"""A partner process that takes half of each large lasso forward evaluation.

``make_lasso_forward`` hands an eligible design to ``SplitForward``.  Each
evaluation of x -> A^T (A x - y) is then shared between the calling
process and one partner process, each on its own core and its own
huge-page copy of A, of which each side reads about three quarters:

* the parent forms A[:h] x and the partner A[h:] x, at the row split
  h = 4 * floor(m / 8) that the serial path already uses;
* each forms r - y on the full r once both halves are in;
* the parent forms A[:, :c]^T r and the partner A[:, c:]^T r, with c a
  multiple of 8 near n / 2.

Every output element goes through the same BLAS kernel path as in the
serial product, so the value is the same bit for bit.

One partner serves a whole Python process and every eligible operator
in it; it keeps the A of whichever operator it served last, and a switch
copies the new one into it.  It is started by file path, on the first
partnered evaluation, and the evaluations that come before it is ready
take the serial path.  The two sides hand over through counters in one
shared memory block and spin on them, which costs about 1 us a hand-off
where a semaphore between threads costs about 21 us.  The hand-off
relies on plain stores being seen in program order, as on x86-64, the
only platform this module runs on.

The partner spins only while requests keep coming: after 1 ms idle it
blocks on its stdin pipe, and the parent writes a wake byte whenever it
sees the partner asleep.  Such a byte can be lost to the race between
"asleep" and "new request", so the parent re-sends it, and checks that
the partner is alive, whenever a wait makes no progress for 1 ms.  If
the partner has died, the parent computes its half itself, with the
same bits, and takes the serial path from then on.  The partner exits
at EOF on stdin, so it also exits when the parent dies, and an atexit
hook closes the pipe and waits at most 1 s before killing it.  A forked
child never uses its parent's partner, and a lock lets one thread at a
time use it.

Run as a script, this file is the partner: ``python _partner.py FD``
with FD the shared block's file descriptor.
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

# Control words of the shared block, as int64 indices.  The parent writes
# the first two cache lines and the partner the third, so each side spins
# on a line only the other writes.
_REQ, _LOAD, _M, _N, _H, _C = range(6)    # request number; A's load
_TOP = 8                                  # parent: A[:h] x is in
_BOTTOM, _DONE, _ASLEEP, _READY = range(16, 20)
_HEADER = 4096
_ALIGN = 64
# A has fewer than 460800 entries, and m + n <= m n + 1, so A, y, x, r and
# the partner's A^T r fit in three such spans of float64 plus alignment.
_MAX_ENTRIES = 460_800
_BLOCK_BYTES = _HEADER + 3 * 8 * _MAX_ENTRIES + 5 * _ALIGN
# Idle time after which the partner sleeps, and wait time without
# progress after which the parent re-sends a wake byte and polls.
_IDLE_S = 1e-3
_STALL_S = 1e-3


def _layout(buf, m, n):
    """Views (A, y, x, r, out) of the shared block for an m x n design."""
    views, offset = [], _HEADER
    for shape in ((m, n), (m,), (n,), (m,), (n,)):
        size = 8 * math.prod(shape)
        views.append(np.ndarray(shape, np.float64, buffer=buf, offset=offset))
        offset += -(-size // _ALIGN) * _ALIGN
    return views


class SplitForward:
    """x -> A^T (A x - y) on a placed C-order A, shared with the partner
    when it is ready, else the ``serial`` evaluation, which gives the same
    bits.  ``h`` is the serial path's row split."""

    _tokens = itertools.count(1)

    def __init__(self, A, y, h, serial):
        m, n = A.shape
        c = 8 * (n // 16)
        self.A, self.y, self.h, self.c = A, y, h, c
        self.top, self.left = A[:h], A[:, :c].T
        self.serial = serial
        self.token = next(self._tokens)

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
    from .operators import _placed_copy

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
            A = _placed_copy(A_sh)
            if A is None:
                A = A_sh.copy()
            y = y_sh.copy()
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
    # Import the package this file belongs to, not whatever the path holds.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from monosplit._partner import _serve as serve
    serve(int(sys.argv[1]))
