import mmap
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monosplit import _partner
from monosplit.operators import (ForwardOperator, LinearMap,
                                 _top_gram_eigenvalue, diagonal_resolvent,
                                 l1_resolvent, make_affine_forward,
                                 make_lasso_forward, power_norm,
                                 soft_threshold, symmetric_affine_resolvent,
                                 zero_resolvent)

finite_vectors = hnp.arrays(np.float64, st.integers(1, 12),
                            elements=st.floats(-10, 10))


def test_soft_threshold_examples():
    np.testing.assert_allclose(soft_threshold([2.0, -0.5, -3.0], 1.0),
                               [1.0, 0.0, -2.0])
    np.testing.assert_allclose(soft_threshold([0.3], 0.5), [0.0])


@given(finite_vectors, st.floats(0, 5))
def test_soft_threshold_shrinks_magnitudes(z, lam):
    out = soft_threshold(z, lam)
    np.testing.assert_allclose(np.abs(out),
                               np.maximum(np.abs(z) - lam, 0.0), atol=1e-12)
    assert np.all(out * z >= 0.0)


@given(finite_vectors, finite_vectors, st.floats(0, 5))
def test_soft_threshold_nonexpansive(a, b, lam):
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    assert np.all(np.abs(soft_threshold(a, lam) - soft_threshold(b, lam))
                  <= np.abs(a - b) + 1e-12)


@given(finite_vectors, st.floats(0.01, 5), st.floats(0.1, 3))
def test_l1_resolvent_satisfies_optimality(z, lam, weight):
    x = l1_resolvent(weight)(z, lam)
    grad = z - x
    on = x != 0.0
    np.testing.assert_allclose(grad[on], lam * weight * np.sign(x[on]),
                               atol=1e-10)
    assert np.all(np.abs(grad[~on]) <= lam * weight + 1e-12)


def test_l1_resolvent_weights_zero_and_one():
    z = np.array([2.0, -0.5, 0.3, -0.0, 0.0, -3.0])
    assert l1_resolvent(0.0)(z, 0.7).tobytes() == z.tobytes()
    shrunk = soft_threshold(z, 0.7).tobytes()
    assert l1_resolvent(1.0)(z, 0.7).tobytes() == shrunk
    assert l1_resolvent()(z, 0.7).tobytes() == shrunk


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_diagonal_resolvent_rejects_a_bad_d(bad):
    # A negative entry would divide by zero at lam = 1 and a NaN one
    # would return NaN; both fail when the resolvent is built.
    with pytest.raises(ValueError, match=r"^d must hold finite reals >= 0, "
                                         r"got d\[1\]"):
        diagonal_resolvent([2.0, bad, 0.5])


def test_diagonal_resolvent_scales_zeros_and_positive_entries():
    z = np.array([2.0, -0.5, 0.3, -0.0])
    assert diagonal_resolvent(np.zeros(4))(z, 0.7).tobytes() == z.tobytes()
    d = np.array([0.0, 1.5, 3.0, 0.25])
    expected = (1.0 / (1.0 + 0.7 * d)) * z
    assert diagonal_resolvent(d)(z, 0.7).tobytes() == expected.tobytes()


def test_soft_threshold_matches_sign_form_bitwise():
    t = 0.75
    z = np.concatenate([
        [2.0, -2.0, t, -t, 0.5, -0.5, 0.0, np.inf, -np.inf, np.nan,
         5e-324, -1e300],
        np.random.default_rng(8).standard_normal(200)])
    before = z.copy()
    out = soft_threshold(z, t)
    ref = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    np.testing.assert_array_equal(out, ref)
    finite = ~np.isnan(ref)
    assert out[finite].tobytes() == ref[finite].tobytes()
    assert z.tobytes() == before.tobytes()
    # Exact ties |z| = t land on a zero carrying z's sign.
    assert out[2] == 0.0 and not np.signbit(out[2])
    assert out[3] == 0.0 and np.signbit(out[3])


def test_soft_threshold_signed_zero_list_and_scalar_inputs():
    # The one bit that differs from the sign form: -0.0 keeps its sign.
    out = soft_threshold([-0.0, 0.0, -3.0], 1.0)
    assert isinstance(out, np.ndarray)
    assert out.tobytes() == np.array([-0.0, 0.0, -2.0]).tobytes()
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.25, 1.0) == 0.0


def test_symmetric_affine_resolvent_bitwise_as_step_changes():
    # lambda in the order (l1, l2, l1): every call must use its own
    # lambda's coefficient, so a stale cached coefficient would show.
    gen = np.random.default_rng(21)
    m = 9
    R = gen.standard_normal((m, m))
    E = 0.5 * (R + R.T)
    beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
    eigs, P = np.linalg.eigh(E)
    res = symmetric_affine_resolvent(E, beta)
    z = gen.standard_normal(m)
    outs = []
    for lam in (0.3, 1.7, 0.3):
        expected = P @ (1.0 / (1.0 + lam * (eigs + beta)) * (P.T @ z))
        out = res(z, lam)
        assert out.tobytes() == expected.tobytes()
        outs.append(out)
    assert not np.array_equal(outs[0], outs[1])


def test_zero_resolvent_is_identity():
    z = np.array([1.5, -2.0, 0.0])
    np.testing.assert_array_equal(zero_resolvent()(z, 3.7), z)


def test_symmetric_affine_resolvent_matches_dense_solve():
    gen = np.random.default_rng(5)
    for _ in range(5):
        m = 8
        R = gen.standard_normal((m, m))
        E = 0.5 * (R + R.T)
        beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
        res = symmetric_affine_resolvent(E, beta)
        z = gen.standard_normal(m)
        lam = float(gen.uniform(0.05, 2.0))
        expected = np.linalg.solve(np.eye(m) + lam * (E + beta * np.eye(m)), z)
        np.testing.assert_allclose(res(z, lam), expected,
                                   rtol=1e-12, atol=1e-12)


def test_resolvent_symmetric_affine_explicit_basis():
    E = np.diag([1.0, 3.0])
    z = np.array([2.0, 4.0])
    out = symmetric_affine_resolvent(E, 1.0)(z, 0.5)
    np.testing.assert_allclose(out, [2.0 / 2.0, 4.0 / 3.0])


def test_symmetric_affine_resolvent_takes_a_rounded_semidefinite_shift():
    # eigh can round the smallest eigenvalue of a semidefinite E + beta*I
    # just below 0; that must not trip diagonal_resolvent's d >= 0 check.
    E = np.diag([-1.0, 2.0])
    beta = np.nextafter(1.0, 0.0)
    z = np.array([2.0, 4.0])
    d = np.array([-1.0 + beta, 2.0 + beta])
    assert d[0] < 0.0
    out = symmetric_affine_resolvent(E, beta)(z, 0.5)
    assert out.tobytes() == ((1.0 / (1.0 + 0.5 * d)) * z).tobytes()


@pytest.mark.parametrize("eigs", [[-3.0, 2.0], [-1.0, 2.0]])
def test_symmetric_affine_resolvent_rejects_an_indefinite_shift(eigs):
    # At beta = 0, E + beta*I has the eigenvalue -3 or -1: no resolvent.
    with pytest.raises(ValueError, match="beta=0.0"):
        symmetric_affine_resolvent(np.diag(eigs), 0.0)


def test_symmetric_affine_resolvent_takes_semidefinite_shifts():
    # beta = max|eig(E)| makes E + beta*I semidefinite, however eigh
    # rounds its smallest eigenvalue.
    gen = np.random.default_rng(29)
    for n in (2, 3, 5, 17, 64):
        for _ in range(10):
            R = gen.standard_normal((n, n))
            E = 0.5 * (R + R.T)
            beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
            symmetric_affine_resolvent(E, beta)


def test_symmetric_affine_resolvent_firmly_nonexpansive():
    gen = np.random.default_rng(11)
    m = 6
    R = gen.standard_normal((m, m))
    E = 0.5 * (R + R.T)
    beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
    res = symmetric_affine_resolvent(E, beta)
    for _ in range(20):
        x, y = gen.standard_normal(m), gen.standard_normal(m)
        lam = float(gen.uniform(0.1, 2.0))
        jx, jy = res(x, lam), res(y, lam)
        lhs = np.dot(jx - jy, jx - jy)
        rhs = np.dot(jx - jy, x - y)
        assert lhs <= rhs + 1e-10


def test_power_norm_matches_svd_and_never_exceeds():
    gen = np.random.default_rng(3)
    for shape in [(5, 8), (8, 5), (10, 10)]:
        K = gen.standard_normal(shape)
        true = np.linalg.norm(K, 2)
        est = power_norm(K)
        assert est <= true * (1.0 + 1e-12)
        assert abs(est - true) <= 1e-6 * true


def test_power_norm_zero_map():
    assert power_norm(np.zeros((4, 3))) == 0.0


def test_power_norm_deterministic():
    K = np.random.default_rng(9).standard_normal((7, 6))
    assert power_norm(K) == power_norm(K)


def test_make_affine_forward_example():
    op = make_affine_forward(2.0 * np.eye(2), np.zeros(2))
    np.testing.assert_allclose(op(np.array([1.0, 1.0])), [2.0, 2.0])
    assert op.lipschitz_hint == pytest.approx(2.0)


@pytest.mark.parametrize("M, b, name", [
    (np.eye(3), np.zeros(2), "b"), (np.eye(3), np.zeros((3, 1)), "b"),
    (np.ones((3, 2)), np.zeros(3), "M"), (np.ones(3), np.zeros(3), "M")])
def test_make_affine_forward_checks_shapes(M, b, name):
    # Without the check a bad b builds and fails at its first evaluation
    # with a broadcast error, and a non-square M only inside a solver.
    with pytest.raises(ValueError, match=f"^{name} must"):
        make_affine_forward(M, b)


@pytest.mark.parametrize("y", [np.zeros(3), np.zeros(())])
def test_make_lasso_forward_checks_shapes(y):
    with pytest.raises(ValueError, match=r"^y must have shape \(4,\)"):
        make_lasso_forward(np.ones((4, 3)), y)


@pytest.mark.parametrize("A", [np.ones(4), np.ones((4, 3, 2))])
def test_make_lasso_forward_needs_a_2d_A(A):
    # Without the check a 1-d A fails with a bare IndexError and a 3-d
    # one inside matmul.
    with pytest.raises(ValueError, match="^A must be a 2-d array, got "
                                         f"shape {re.escape(str(A.shape))}$"):
        make_lasso_forward(A, np.zeros(4))


def test_make_lasso_forward_matches_normal_equations():
    gen = np.random.default_rng(1)
    A = gen.standard_normal((6, 9))
    y = gen.standard_normal(6)
    op = make_lasso_forward(A, y)
    x = gen.standard_normal(9)
    np.testing.assert_allclose(op(x), A.T @ (A @ x - y), rtol=1e-13)
    assert op.lipschitz_hint == pytest.approx(np.linalg.norm(A, 2) ** 2)


def _lasso_layouts(gen, m, n):
    """An m x n design C-ordered, F-ordered, as a view of every other
    row, which numpy hands to BLAS, and as a view of the rows reversed
    and every other column, which it multiplies with its own loop."""
    rows = gen.standard_normal((2 * m, n))
    return {"C": rows[:m].copy(), "F": np.asfortranarray(rows[:m]),
            "strided rows": rows[::2],
            "strided columns": gen.standard_normal((m, 2 * n))[::-1, ::2]}


def _ready_partner():
    """The process's partner once it is ready, or None on a host where
    none runs."""
    partner = _partner._shared() if _partner.available() else None
    if partner is None:
        return None
    deadline = time.monotonic() + 60.0
    while not partner.ready():
        assert partner.proc.poll() is None, "the partner exited at start"
        assert time.monotonic() < deadline, "the partner never got ready"
        time.sleep(0.01)
    return partner


def _lasso_parity_failures(sizes):
    """(m, n, layout, x) cases where make_lasso_forward differs from
    A^T (A x - y) in any bit, or its hint from the caller's A's, and the
    set of (m, n, layout) whose evaluations the partner took half of."""
    gen = np.random.default_rng(31)
    partner = _ready_partner()
    failures, partnered = [], set()
    for m, n in sizes:
        for layout, A in _lasso_layouts(gen, m, n).items():
            y = gen.standard_normal(m)
            op = make_lasso_forward(A, y)
            dense = gen.standard_normal(n)
            sparse = np.where(gen.random(n) < 0.9, 0.0, dense)
            for kind, x in (("dense", dense), ("sparse", sparse)):
                before = partner and partner.requests
                if op(x).tobytes() != (A.T @ (A @ x - y)).tobytes():
                    failures.append((m, n, layout, kind))
                if partner and partner.requests > before:
                    partnered.add((m, n, layout))
            if op.lipschitz_hint != _top_gram_eigenvalue(A):
                failures.append((m, n, layout, "hint"))
    return failures, partnered


# m = 0-40 covers the one-product rule below m = 8 and every split
# remainder; 255-257 x 1024 are at least 1 MiB, so the C and F ones are
# placed on a huge page, and the C ones are shared with the partner.
_PARITY_SIZES = ([(m, 1 + (37 * m) % 61) for m in range(41)]
                 + [(m, 1024) for m in (255, 256, 257)])


def test_lasso_forward_parity_with_plain_formula():
    # The row blocks, the placed copy and the partner change where A is
    # read, never a bit of the value; see make_lasso_forward.
    failures, partnered = _lasso_parity_failures(_PARITY_SIZES)
    assert failures == []
    if _partner.available():
        assert partnered == {(m, 1024, "C") for m in (255, 256, 257)}


# n = 512 + 37 k for k = 0-15 takes every remainder mod 16 once, since 37
# is odd; with 1100 the sweep spans 512-1100, every one of them eligible.
_SWEEP_COLUMNS = [512 + 37 * k for k in range(16)] + [1100]


def test_lasso_forward_column_split_sweep():
    # The partner takes A[:, c:]^T r with c = 8 floor(n / 16); each n mod 16
    # leaves a different tail of columns, which gemv forms apart.  x comes
    # contiguous, off its 8-byte alignment by one element, and strided.
    gen = np.random.default_rng(32)
    partner = _ready_partner()
    failures = []
    for n in _SWEEP_COLUMNS:
        A = gen.standard_normal((256, n))
        y = gen.standard_normal(256)
        op = make_lasso_forward(A, y)
        shifted = np.empty(n + 1)[1:]
        shifted[...] = gen.standard_normal(n)
        for x in (gen.standard_normal(n), shifted,
                  gen.standard_normal(2 * n)[::2]):
            before = partner and partner.requests
            if op(x).tobytes() != (A.T @ (A @ x - y)).tobytes():
                failures.append((n, x.strides, x.ctypes.data % 16))
            if partner:
                assert partner.requests == before + 1
    assert failures == []


def _rerun(tests, *flags, env=None):
    """Run ``tests`` of this file in a fresh interpreter with ``flags``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-q", "-p",
         "no:cacheprovider", *(f"{__file__}::{t}" for t in tests)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)


def test_lasso_forward_parity_with_one_blas_thread():
    # The benchmark pins one BLAS thread and the suite does not; OpenBLAS
    # reads its thread count at load, so the check runs in a fresh process.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = _rerun(["test_lasso_forward_parity_with_plain_formula",
                   "test_lasso_forward_column_split_sweep"], env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout, proc.stdout


_partner_host = pytest.mark.skipif(not _partner.available(),
                                   reason="no partner runs on this host")


def _child(code, **kwargs):
    """A fresh ``-X dev -W error`` interpreter running ``code`` with this
    checkout's package first on its path."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs)


# A child that evaluates one eligible operator on the partner and prints
# the partner's pid, then runs ``{tail}``.  A hook registered before the
# partner's own exit hook runs after it and reports whether the partner
# was waited for, with which status, and whether the child's descriptors
# are back to those it had before the partner started.
_EVALUATE_AND_PRINT_PID = """
import atexit, os, time
import numpy as np
from monosplit import _partner
from monosplit.operators import make_lasso_forward
gen = np.random.default_rng(0)
op = make_lasso_forward(gen.standard_normal((256, 1024)),
                        gen.standard_normal(256))
fds = sorted(os.listdir("/proc/self/fd"))

def report():
    print("closed", partner.proc.returncode,
          sorted(os.listdir("/proc/self/fd")) == fds, flush=True)

atexit.register(report)
partner = _partner._shared()
while not partner.ready():
    time.sleep(0.01)
op(np.ones(1024))
assert partner.requests == 1
print(partner.proc.pid, flush=True)
{tail}
"""


def _gone(pid):
    """Whether no process ``pid`` runs: none exists, or only a zombie
    that its new parent has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@_partner_host
@pytest.mark.parametrize("end", ["exit", "SIGKILL"])
def test_partner_ends_with_its_parent(end):
    # At a normal exit the hook closes the pipe, the partner exits at EOF
    # with status 0 and is waited for; killed, the parent leaves the pipe
    # to the kernel, which closes it, and the partner exits all the same.
    tail = "" if end == "exit" else "time.sleep(60)"
    with _child(_EVALUATE_AND_PRINT_PID.format(tail=tail)) as child:
        pid = int(child.stdout.readline())
        if end == "SIGKILL":
            child.kill()
        # Not communicate(): it reads the pipes past the line buffered above.
        out, err = child.stdout.read(), child.stderr.read()
        child.wait(timeout=30)
    if end == "exit":
        assert (child.returncode, out, err) == (0, "closed 0 True\n", "")
    else:
        assert child.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 2.0
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _gone(pid)


_KILLED_MID_SOLVE = """
import os, signal, threading, time
import numpy as np
from monosplit import _partner
from monosplit.experiments import gen_lasso
from monosplit.operators import ForwardOperator, l1_resolvent
from monosplit.splitting import StopRule, gfrb_adaptive
instance = gen_lasso(256, 1024, 20, seed=0)
A, y = instance.data["A"], instance.data["y"]
op = instance.forward_b
partner = _partner._shared()
while not partner.ready():
    time.sleep(0.01)
calls = 0

def B(x):
    global calls
    calls += 1
    if calls == 100:
        threading.Timer(0.005, os.kill,
                        (partner.proc.pid, signal.SIGKILL)).start()
    return op(x)

def solve(forward):
    return gfrb_adaptive(instance.resolvent_a, ForwardOperator(forward),
                         instance.x0, None, -0.4, 0.1,
                         StopRule(tol=0.0, max_iter=3000))

x, trace = solve(B)
served = partner.requests
plain, plain_trace = solve(lambda x: A.T @ (A @ x - y))
assert not partner.alive and partner.proc.returncode == -signal.SIGKILL
assert 100 <= served < calls, (served, calls)
assert x.tobytes() == plain.tobytes()
assert trace.errs == plain_trace.errs
assert trace.lambdas == plain_trace.lambdas
print("same bits")
"""


@_partner_host
def test_partner_killed_mid_solve_changes_no_bit():
    # The parent finds the partner dead while it waits, forms the missing
    # half itself and goes serial; the solve neither hangs nor moves.
    with _child(_KILLED_MID_SOLVE) as child:
        out, err = child.communicate(timeout=120)
    assert (child.returncode, out, err) == (0, "same bits\n", ""), err


@_partner_host
def test_partner_serves_threads_one_at_a_time():
    # More threads than cores, on operators of different shapes, so the
    # partner switches matrices between nearly every pair of requests.
    partner = _ready_partner()
    gen = np.random.default_rng(33)
    work = []
    for m, n in [(256, 1024), (200, 1100), (300, 900)]:
        A, y = gen.standard_normal((m, n)), gen.standard_normal(m)
        work.append((A, y, make_lasso_forward(A, y),
                     gen.standard_normal((30, n))))
    failures, before = [], partner.requests

    def evaluate(A, y, op, xs):
        for x in xs:
            if op(x).tobytes() != (A.T @ (A @ x - y)).tobytes():
                failures.append(A.shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=evaluate, args=w) for w in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert partner.requests == before + 90


@_partner_host
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_takes_the_serial_path():
    partner = _ready_partner()
    gen = np.random.default_rng(34)
    A, y, x = (gen.standard_normal((256, 1024)), gen.standard_normal(256),
               gen.standard_normal(1024))
    op = make_lasso_forward(A, y)
    expected = (A.T @ (A @ x - y)).tobytes()
    assert op(x).tobytes() == expected
    served = partner.requests
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            serial = (_partner._shared() is None
                      and op(x).tobytes() == expected
                      and partner.requests == served)
            code = 0 if serial else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert op(x).tobytes() == expected
    assert partner.requests == served + 1


def test_partner_tests_pass_in_dev_mode():
    # -X dev warns of a pipe, file or process never closed or waited for,
    # and -W error makes each warning fatal, also at interpreter exit.
    proc = _rerun(["test_lasso_forward_parity_with_plain_formula",
                   "test_lasso_forward_column_split_sweep",
                   "test_partner_ends_with_its_parent",
                   "test_partner_killed_mid_solve_changes_no_bit",
                   "test_partner_serves_threads_one_at_a_time",
                   "test_forked_child_takes_the_serial_path"],
                  "-X", "dev", "-W", "error")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failed" not in proc.stdout and "error" not in proc.stdout, \
        proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr
    assert "Exception ignored" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("shape", [(4, 3), (12, 20), (256, 1024)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_lasso_forward_snapshots_A_and_y(shape, order):
    # Small and placed A alike: the operator keeps what it was built with.
    gen = np.random.default_rng(12)
    A = np.asarray(gen.standard_normal(shape), order=order)
    y = gen.standard_normal(shape[0])
    x = gen.standard_normal(shape[1])
    op = make_lasso_forward(A, y)
    before, hint = op(x), op.lipschitz_hint
    # The placed copy's padded rows leave the hint's bits as they are.
    assert hint == _top_gram_eigenvalue(A)
    A *= 2.0
    y += 1.0
    assert op(x).tobytes() == before.tobytes()
    assert op.lipschitz_hint == hint


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"),
                    reason="no MADV_HUGEPAGE on this platform")
@pytest.mark.parametrize("order", ["C", "F"])
def test_large_contiguous_A_is_placed_on_an_aligned_copy(order):
    # A C-order copy's rows are one cache line (8 doubles) apart beyond
    # their length; an F-order copy stays contiguous.
    m, n = 128, 1024
    A = np.asarray(np.random.default_rng(4).standard_normal((m, n)),
                   order=order)
    snap = _partner._snapshot(A)
    assert snap.ctypes.data % (2 << 20) == 0
    if order == "C":
        assert snap.strides == (8 * (n + 8), 8)
    else:
        assert snap.flags.f_contiguous
    assert not np.shares_memory(snap, A)
    assert snap.tobytes(order="A") == A.tobytes(order="A")


def test_small_or_strided_A_is_copied_with_its_strides():
    rows = np.random.default_rng(5).standard_normal((256, 1024))
    for A in (rows[:100], np.asfortranarray(rows[:100]), rows[::2],
              rows[::-1, ::2]):
        snap = _partner._snapshot(A)
        assert not np.shares_memory(snap, A)
        assert snap.strides == A.strides
        np.testing.assert_array_equal(snap, A)


class _RefusedAdvice(mmap.mmap):
    def madvise(self, *args):
        raise OSError(22, "Invalid argument")


class _RecordedAdvice(mmap.mmap):
    advised = []

    def madvise(self, option, start, length):
        self.advised.append((option, start, length))
        return super().madvise(option, start, length)


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"),
                    reason="no MADV_HUGEPAGE on this platform")
@pytest.mark.parametrize("shape, pages", [((256, 1024), 1), ((128, 1024), 1),
                                          ((640, 1024), 3)])
def test_placed_copy_advises_only_the_huge_pages_it_mostly_fills(
        monkeypatch, shape, pages):
    # The padded 256 x 1024 copy spans 2.02 MiB; its 16 KiB tail gets no
    # huge page of its own.  A 1 MiB copy still gets one.
    monkeypatch.setattr(mmap, "mmap", _RecordedAdvice)
    monkeypatch.setattr(_RecordedAdvice, "advised", [])
    A = np.random.default_rng(7).standard_normal(shape)
    snap = _partner._placed_copy(A)
    (option, start, length), = _RecordedAdvice.advised
    assert option == mmap.MADV_HUGEPAGE
    assert snap.ctypes.data % (2 << 20) == 0
    assert start % mmap.PAGESIZE == 0 and length == pages * (2 << 20)
    np.testing.assert_array_equal(snap, A)


@pytest.mark.parametrize("fallback", ["no advice", "advice fails"])
def test_lasso_forward_falls_back_to_a_plain_copy(monkeypatch, fallback):
    if fallback == "no advice":
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    else:
        monkeypatch.setattr(mmap, "mmap", _RefusedAdvice)
    gen = np.random.default_rng(6)
    A = gen.standard_normal((256, 1024))
    y = gen.standard_normal(256)
    x = gen.standard_normal(1024)
    snap = _partner._snapshot(A)
    assert snap.base is None and snap.flags.c_contiguous
    op = make_lasso_forward(A, y)
    assert op(x).tobytes() == (A.T @ (A @ x - y)).tobytes()
    assert op.lipschitz_hint == _top_gram_eigenvalue(A)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (1, 1), (256, 1024)])
def test_make_lasso_forward_rejects_non_finite_A(shape, value):
    # eigvalsh failed on such a Gram with LinAlgError, or returned NaN,
    # which the clamp at 0 turned into a hint of 0.
    A = np.ones(shape)
    A[-1, 0] = value
    with pytest.raises(ValueError, match="^A must hold finite values"):
        make_lasso_forward(A, np.zeros(shape[0]))


def test_make_lasso_forward_rejects_an_overflowing_gram():
    with pytest.raises(ValueError, match="^A must hold finite values whose "
                                         "Gram matrix does not overflow$"):
        make_lasso_forward(np.full((2, 3), 1e200), np.zeros(2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_make_lasso_forward_rejects_non_finite_y(value):
    y = np.zeros(4)
    y[2] = value
    with pytest.raises(ValueError, match=re.escape(
            f"y must hold finite values, got y[2] = {value!r}")):
        make_lasso_forward(np.ones((4, 3)), y)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("dim", [1, 3, 40])
def test_make_affine_forward_rejects_non_finite_input(dim, value):
    M = np.eye(dim)
    M[0, -1] = value
    with pytest.raises(ValueError, match="^M must hold finite values"):
        make_affine_forward(M, np.zeros(dim))
    b = np.zeros(dim)
    b[-1] = value
    with pytest.raises(ValueError, match=re.escape(
            f"b must hold finite values, got b[{dim - 1}] = {value!r}")):
        make_affine_forward(np.eye(dim), b)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6)])
def test_lasso_lipschitz_hint_matches_svd(shape):
    # The hint is the top eigenvalue of the smaller Gram matrix, wide
    # and tall alike, and agrees with the SVD-based ||A||_2^2.
    gen = np.random.default_rng(17)
    A = gen.standard_normal(shape)
    hint = make_lasso_forward(A, np.zeros(shape[0])).lipschitz_hint
    assert type(hint) is float
    ref = np.linalg.norm(A, 2) ** 2
    assert abs(hint - ref) <= 1e-12 * ref


@pytest.mark.parametrize("shape", [(4, 7), (0, 3), (3, 0)])
def test_lasso_lipschitz_hint_of_zero_matrix_is_zero(shape):
    hint = make_lasso_forward(np.zeros(shape),
                              np.zeros(shape[0])).lipschitz_hint
    assert type(hint) is float
    assert hint == 0.0 and not np.signbit(hint)


def test_affine_lipschitz_hint_matches_svd():
    M = np.random.default_rng(23).standard_normal((7, 7))
    assert not np.allclose(M, M.T)
    hint = make_affine_forward(M, np.zeros(7)).lipschitz_hint
    assert type(hint) is float
    ref = np.linalg.norm(M, 2)
    assert abs(hint - ref) <= 1e-12 * ref


def test_linear_map_adjoint_consistency():
    gen = np.random.default_rng(2)
    K = gen.standard_normal((5, 7))
    lin = LinearMap.from_matrix(K)
    assert lin.shape == (5, 7)
    for _ in range(10):
        x, y = gen.standard_normal(7), gen.standard_normal(5)
        assert np.dot(lin.apply(x), y) == pytest.approx(
            np.dot(x, lin.apply_adjoint(y)), rel=1e-12)


def test_forward_operator_wraps_callable():
    op = ForwardOperator(lambda x: 3.0 * x, lipschitz_hint=3.0)
    np.testing.assert_allclose(op(np.array([1.0, -2.0])), [3.0, -6.0])
    assert op.lipschitz_hint == 3.0
