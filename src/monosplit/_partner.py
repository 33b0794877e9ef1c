"""The lasso forward x -> A^T (A x - y): its design's layout and split,
and the partner process that takes half of each large evaluation.

``LeastSquaresGradient(A, y)`` evaluates it on private copies of A and
y with the same bits as the plain formula on the caller's A, in any
layout.  Three things keep the 256 x 1024 (2 MiB) lasso design in a
core's L2 cache.

Placement.  An A of at least 1 MiB, C- or F-contiguous, is copied to the
start of a 2 MiB-aligned private anonymous mapping advised MADV_HUGEPAGE
(a shared one is shmem, which "madvise" mode does not back), so that it
fills whole huge pages instead of 4 KiB pages that map unevenly onto
L2's sets.  The advice covers round(nbytes / 2 MiB) huge pages, at least
one: advising the 16 KiB tail of the padded 256 x 1024 copy too backed
it with a second.  A C-order copy's rows are n + 8 doubles apart, one
cache line more than a row, and the copy is the [:, :n] view: at the
8 KiB pitch the column-half products A[:, :c]^T r read 4 KiB half-rows
that all fall into the same cache sets.  numpy hands the view to the
same BLAS kernels with a larger leading dimension, at which gemv and
gemm do the same arithmetic.  An F-order copy, a single row or column
included, stays contiguous.  Without the advice, or where mapping or
advice fails, A is copied plainly, as every other A is; a view keeps its
strides, by which numpy picks BLAS or its own loop.

The splits.  A x is formed as two row blocks, the bottom one first,
split at h = 4 * floor(m / 8), so A^T r starts on rows still in cache.
OpenBLAS's gemv, in C and F order alike, takes rows in groups of 4 and
the last m mod 4 apart, so a split at a multiple of 4 that leaves at
least 4 rows below keeps every row in the same kernel path; another
split, or one leaving a single row (numpy then calls ddot), changes the
last bits.  An A with m < 8 keeps the one product, and so does one with
m * n at or above 460800 (115200 * GEMM_MULTITHREAD_THRESHOLD, which
defaults to 4), where OpenBLAS deals a gemv's rows to several threads.
A^T r splits by columns at c = 8 * floor(n / 16), a multiple of 4
columns, so each output element keeps its kernel path too.

The partner.  On Linux x86-64 with at least two CPUs in the process's
affinity mask, an A that takes the row split and that the caller passed
in C order and at least 1 MiB (read off the caller's A: the padded copy
is not C-contiguous) shares each evaluation with a partner process, on
its own core and its own placed copy.  The parent forms A[:h] x, the
partner A[h:] x; each forms r - y once both halves are in; the parent
forms A[:, :c]^T r, the partner A[:, c:]^T r.  The kernel paths are the
serial evaluation's, so the value is the same bit for bit.

One partner serves a whole Python process and every eligible operator
in it; it keeps the A it served last, and a switch copies the new one
into it.  It is started by file path at the first partnered evaluation;
until it is ready, evaluations take the serial path.  The two sides hand
over through counters in one shared memory block and spin on them, about
1 us a hand-off where a semaphore between threads costs about 21 us.
The hand-off relies on plain stores being seen in program order, as on
x86-64.  After 1 ms idle the partner blocks on its stdin pipe, and the
parent writes a wake byte whenever it sees the partner asleep.  Such a
byte can be lost to the race between "asleep" and "new request", so the
parent re-sends it, and checks that the partner is alive, whenever a
wait makes no progress for 1 ms.  If the partner has died, the parent
computes its half itself and takes the serial path from then on.  The
partner exits at EOF on stdin, so also when the parent dies, and an
atexit hook closes the pipe and waits at most 1 s before killing it.  A
forked child never uses its parent's partner, and a lock lets one
thread at a time use it.

Measured on the shipped lasso instances (seeds 0-4, one BLAS thread, an
Intel Xeon with 2 MiB of L2 per core): a forward evaluation took a
median 103 us as the plain formula, 94 us row-split, 73 us placed and
64 us both.  On a 2-CPU Xeon a partnered evaluation took 59 us against
68 us serial in a tight loop, and inside the benchmark's lasso solves,
where the rest of each iteration evicts part of A from the calling
core's L2 but not the partner's part from its own, each solver ran
15-22 % faster.  The row pad then cut the column-half products from
18-19 us to 11 us and the lasso solve time by 19-22 %; a pad of 64
doubles, as fast in the tight loop, moved it by +15 % and -2 %.  On one
CPU, where no partner runs, solves moved by -3 and +7 %.

The module imports nothing from the package.  Run as a script, this
file is the partner: ``python _partner.py FD`` with FD the shared
block's file descriptor.
"""

import atexit
import itertools
import math
import mmap
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

# A design matrix this large is placed on its own huge page(s).
_PLACE_MIN_BYTES = 1 << 20
_HUGE_PAGE = 2 << 20
# The doubles that pad each placed C-order row: one cache line.
_ROW_PAD = 8
# Control words of the shared block, as int64 indices.  The parent writes
# the first two cache lines and the partner the third, so each side spins
# on a line only the other writes.
_REQ, _LOAD, _M, _N, _H, _C = range(6)    # request number; A's load
_TOP = 8                                  # parent: A[:h] x is in
_BOTTOM, _DONE, _ASLEEP, _READY = range(16, 20)
_HEADER = 4096
_ALIGN = 64
# The row split, and so the partner, takes only an A with fewer entries
# than this (see the module docstring).  As m + n <= m n + 1, A, y, x, r
# and the partner's A^T r then fit in three such spans of float64 plus
# alignment.
_MAX_ENTRIES = 460_800
_BLOCK_BYTES = _HEADER + 3 * 8 * _MAX_ENTRIES + 5 * _ALIGN
# Idle time after which the partner sleeps, and wait time without
# progress after which the parent re-sends a wake byte and polls.
_IDLE_S = 1e-3
_STALL_S = 1e-3


def _placed_copy(A):
    """Copy of a C- or F-contiguous A at the start of a 2 MiB-aligned
    private mapping advised MADV_HUGEPAGE, a C-order one with padded
    rows; None where the platform lacks MADV_HUGEPAGE or the mapping or
    advice fails."""
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        return None
    m, n = A.shape
    order = "C" if A.flags.c_contiguous else "F"
    width = n if A.flags.f_contiguous else n + _ROW_PAD
    nbytes = m * width * A.itemsize
    span = -(-nbytes // _HUGE_PAGE) * _HUGE_PAGE + _HUGE_PAGE
    try:
        buf = mmap.mmap(-1, span, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError:
        return None
    raw = np.frombuffer(buf, dtype=np.uint8)
    start = -raw.ctypes.data % _HUGE_PAGE
    try:
        buf.madvise(mmap.MADV_HUGEPAGE, start,
                    max(1, round(nbytes / _HUGE_PAGE)) * _HUGE_PAGE)
    except OSError:
        del raw    # an exported buffer would make close() raise
        buf.close()
        return None
    block = raw[start:start + nbytes].view(A.dtype).reshape((m, width),
                                                            order=order)
    placed = block[:, :n]
    placed[...] = A
    return placed


def _snapshot(A):
    """Private copy of A that numpy multiplies as it does A: placed where
    A is C- or F-contiguous and at least 1 MiB, else a plain copy in A's
    order, and for a view, one with A's strides."""
    if A.flags.c_contiguous or A.flags.f_contiguous:
        placed = _placed_copy(A) if A.nbytes >= _PLACE_MIN_BYTES else None
        return A.copy(order="K") if placed is None else placed
    ends = [s * (d - 1) for s, d in zip(A.strides, A.shape)]
    low = sum(e for e in ends if e < 0)
    span = np.empty(sum(e for e in ends if e > 0) - low + A.itemsize,
                    dtype=np.uint8)
    copy = np.ndarray(A.shape, A.dtype, buffer=span, offset=-low,
                      strides=A.strides)
    copy[...] = A
    return copy


def _layout(buf, m, n):
    """Views (A, y, x, r, out) of the shared block for an m x n design."""
    views, offset = [], _HEADER
    for shape in ((m, n), (m,), (n,), (m,), (n,)):
        size = 8 * math.prod(shape)
        views.append(np.ndarray(shape, np.float64, buffer=buf, offset=offset))
        offset += -(-size // _ALIGN) * _ALIGN
    return views


class LeastSquaresGradient:
    """x -> A^T (A x - y) on snapshots of a float 2-d A and its y, laid
    out and split as the module describes.

    ``serial`` evaluates on this process alone, with the same bits as a
    partnered evaluation.  ``shareable`` says whether the A is eligible
    for the partner and the host can run one; calling the object then
    shares each float64 evaluation with the partner once it is ready.
    """

    _tokens = itertools.count(1)

    def __init__(self, A, y):
        m, n = A.shape
        shareable = A.flags.c_contiguous and A.nbytes >= _PLACE_MIN_BYTES
        self.A = A = _snapshot(A)
        self.y = y = y.copy()
        self.token = next(self._tokens)
        if m < 8 or A.size >= _MAX_ENTRIES:
            self.serial = lambda x: A.T @ (A @ x - y)
            self.shareable = False
            return
        self.h = h = 4 * (m // 8)
        self.c = c = 8 * (n // 16)
        self.top = top = A[:h]
        self.left = A[:, :c].T
        bottom = A[h:]

        def serial(x):
            r = np.empty(m)
            np.matmul(bottom, x, out=r[h:])
            np.matmul(top, x, out=r[:h])
            r -= y
            return A.T @ r

        self.serial = serial
        self.shareable = shareable and available()

    def __call__(self, x):
        partner = _shared()
        if (partner is None or type(x) is not np.ndarray
                or x.dtype != np.float64 or x.shape != self.A.shape[1:]):
            return self.serial(x)
        return partner.evaluate(self, x)


class Partner:
    """The parent's end of the partner process and the shared block."""

    def __init__(self):
        fd = os.memfd_create("monosplit-partner", os.MFD_CLOEXEC)
        try:
            os.ftruncate(fd, _BLOCK_BYTES)
            self._buf = mmap.mmap(fd, _BLOCK_BYTES)
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(fd)],
                stdin=subprocess.PIPE, pass_fds=(fd,))
        finally:
            os.close(fd)
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._ctrl = memoryview(self._buf).cast("q")
        self._lock = threading.Lock()
        self._views = None
        self._loaded = None       # token of the operator whose A it holds
        self.requests = 0         # partnered evaluations so far
        self.alive = True

    def ready(self):
        """Whether the partner has started and not been found dead."""
        return self.alive and self._ctrl[_READY] == 1

    def evaluate(self, f, x):
        """f(x) with the partner's help; the serial path once it is gone."""
        with self._lock:
            if not self.ready():
                if self.alive and self.proc.poll() is not None:
                    self.alive = False
                return f.serial(x)
            try:
                return self._split(f, x)
            except BaseException:
                # A half-served request cannot be resumed; stop using the
                # partner rather than leave it mid-protocol.
                self._stop()
                raise

    def _split(self, f, x):
        ctrl, h, c = self._ctrl, f.h, f.c
        seq = self.requests + 1
        if self._loaded != f.token:
            m, n = f.A.shape
            self._views = _layout(self._buf, m, n)
            self._views[0][...] = f.A
            self._views[1][...] = f.y
            ctrl[_M], ctrl[_N], ctrl[_H], ctrl[_C] = m, n, h, c
            ctrl[_LOAD] = seq
            self._loaded = f.token
        _, _, x_sh, r_sh, out_sh = self._views
        x_sh[...] = x
        ctrl[_REQ] = seq
        self.requests = seq
        self._nudge()
        np.matmul(f.top, x_sh, out=r_sh[:h])
        ctrl[_TOP] = seq
        self._nudge()
        if not self._wait(_BOTTOM, seq):
            np.matmul(f.A[h:], x_sh, out=r_sh[h:])
        r = r_sh - f.y
        out = np.empty(f.A.shape[1])
        np.matmul(f.left, r, out=out[:c])
        if self.alive and self._wait(_DONE, seq):
            out[c:] = out_sh[c:]
        else:
            np.matmul(f.A[:, c:].T, r, out=out[c:])
        return out

    def _nudge(self):
        if self._ctrl[_ASLEEP]:
            self._wake()

    def _wake(self):
        try:
            os.write(self.proc.stdin.fileno(), b"\0")
        except (BlockingIOError, BrokenPipeError):
            # A full pipe already wakes the partner; a broken one means it
            # has exited, which the caller's poll finds.
            pass

    def _wait(self, word, seq):
        """Spin until the partner posts ``seq`` in ``word``; False once it
        has died instead."""
        ctrl = self._ctrl
        since = time.perf_counter()
        while ctrl[word] != seq:
            now = time.perf_counter()
            if now - since > _STALL_S:
                if self.proc.poll() is not None:
                    self.alive = False
                    return False
                self._wake()
                since = now
        return True

    def _stop(self):
        """End the partner: EOF on its stdin, then a kill after 1 s."""
        self.alive = False
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def close(self):
        """Stop the partner and release the shared block; evaluations
        take the serial path from then on."""
        with self._lock:
            self._stop()
            self._views = None
            self._ctrl.release()
            self._buf.close()


_start_lock = threading.Lock()
_partner = None
# Set in a forked child, and where starting a partner failed: this
# process evaluates serially.
_disabled = False


def _disown():
    """In a forked child: never use the parent's partner, and close this
    copy of its pipe, so that the partner still sees EOF when the parent
    goes."""
    global _partner, _disabled
    _disabled = True
    if _partner is not None:
        _partner.alive = False
        _partner.proc.stdin.close()
        _partner = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disown)


def available():
    """Whether this host can run a partner: Linux on x86-64 with memfd
    and at least two CPUs in this process's affinity mask."""
    return (not _disabled and sys.platform == "linux"
            and os.uname().machine == "x86_64"
            and hasattr(os, "memfd_create")
            and len(os.sched_getaffinity(0)) >= 2)


def _shared():
    """The process's partner, started on first use; None where none can
    be used."""
    global _partner, _disabled
    if _partner is not None or _disabled:
        return _partner
    with _start_lock:
        if _partner is None and not _disabled:
            try:
                _partner = Partner()
            except OSError:
                # memfd, mmap or Popen refused: this process goes serial.
                _disabled = True
                return None
            atexit.register(_close_at_exit)
    return _partner


def _close_at_exit():
    if _partner is not None:
        _partner.close()


def _serve(fd):
    """The partner's loop: serve requests until stdin reaches EOF."""
    # Ctrl-C reaches the whole process group; the partner ends at EOF
    # when its parent goes, not on its own traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    buf = mmap.mmap(fd, os.fstat(fd).st_size)
    os.close(fd)
    ctrl = memoryview(buf).cast("q")
    ctrl[_READY] = 1
    seq, load = 0, None
    while _await(ctrl, _REQ, seq + 1):
        seq += 1
        if ctrl[_LOAD] != load:
            load = ctrl[_LOAD]
            m, n, h, c = ctrl[_M], ctrl[_N], ctrl[_H], ctrl[_C]
            A_sh, y_sh, x, r_sh, out = _layout(buf, m, n)
            A, y = _snapshot(A_sh), y_sh.copy()
            bottom, right = A[h:], A[:, c:].T
        np.matmul(bottom, x, out=r_sh[h:])
        ctrl[_BOTTOM] = seq
        if not _await(ctrl, _TOP, seq):
            break
        np.matmul(right, r_sh - y, out=out[c:])
        ctrl[_DONE] = seq


def _await(ctrl, word, value):
    """Spin until ``word`` holds ``value``, sleeping on stdin after 1 ms
    idle; False at EOF on stdin."""
    since = time.perf_counter()
    while ctrl[word] != value:
        if time.perf_counter() - since > _IDLE_S:
            ctrl[_ASLEEP] = 1
            # Read only if no request came in after the flag went up; a
            # request that slips past this check is re-woken by the parent.
            if ctrl[word] != value and not os.read(0, 4096):
                return False
            ctrl[_ASLEEP] = 0
            since = time.perf_counter()
    return True


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
