"""Operator building blocks for monotone inclusion solvers.

A problem 0 in (A + B)(x) is handed to the solvers as a resolvent for the
set-valued part A and a point evaluation for the single-valued part B.
A resolvent is any callable ``J(z, lam)`` that returns the unique x with
z in x + lam*A(x); the factories below return plain functions.  B is any
callable; ForwardOperator only attaches a Lipschitz hint to one, and
LinearMap carries a coupling map's shape, adjoint and norm hint.
"""

import math
import mmap
import numbers

import numpy as np

from ._partner import _MAX_ENTRIES, SplitForward, available


class ForwardOperator:
    """Single-valued monotone map with an optional Lipschitz constant.

    Parameters
    ----------
    evaluate : callable
        Maps a point to the operator value, an array of the point's
        shape.  The solvers write into it in place and raise ValueError
        for any other shape, so a scalar value for a length-1 point is
        rejected rather than broadcast.
    lipschitz_hint : float or None
        Known Lipschitz constant of ``evaluate``, used by solvers to
        check step-size ranges: None, which disables those checks, or a
        finite real >= 0 that is not a bool (0 is the hint of a zero
        matrix), else ValueError.
    """

    def __init__(self, evaluate, lipschitz_hint=None):
        hint = lipschitz_hint
        if hint is not None and (isinstance(hint, bool) or not (
                isinstance(hint, numbers.Real) and 0.0 <= hint < math.inf)):
            raise ValueError("lipschitz_hint must be None or a finite "
                             f"real >= 0, got {hint!r}")
        self._evaluate = evaluate
        self.lipschitz_hint = hint

    def __call__(self, x):
        return self._evaluate(x)


class LinearMap:
    """Linear coupling map with its adjoint and ``norm_hint``, a bound on
    ||K|| or None, which primal_dual.step_pair fills with its estimate."""

    def __init__(self, apply, apply_adjoint, shape):
        self.apply = apply
        self.apply_adjoint = apply_adjoint
        self.shape = tuple(shape)
        self.norm_hint = None

    @classmethod
    def from_matrix(cls, K):
        K = np.asarray(K, dtype=float)
        return cls(lambda x: K @ x, lambda y: K.T @ y, K.shape)


def soft_threshold(z, lam):
    """Componentwise shrinkage sign(z) * max(|z| - lam, 0).

    Computed as copysign(max(|z| - lam, 0), z) in place on the fresh
    |z| array, which equals the sign form bit for bit except that
    z = -0.0 maps to -0.0.  The input is never written to.
    """
    z = np.asarray(z, dtype=float)
    out = np.abs(z)
    if out.ndim == 0:
        # Ufuncs return a scalar for 0-d input, which has no buffer to
        # write into.
        return np.copysign(np.maximum(out - lam, 0.0), z)
    out -= lam
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, z, out=out)


def l1_resolvent(weight=1.0):
    """Resolvent ``J(z, lam)`` of the scaled l1 subdifferential, i.e. soft
    thresholding at lam * weight, for a finite real weight >= 0 that is
    not a bool."""
    if isinstance(weight, bool) or not (isinstance(weight, numbers.Real)
                                        and 0.0 <= weight < math.inf):
        raise ValueError(f"weight must be a finite real >= 0, got {weight!r}")
    return lambda z, lam: soft_threshold(z, lam * weight)


def zero_resolvent():
    """Resolvent ``J(z, lam)`` of the zero operator: the identity map."""
    return lambda z, lam: np.asarray(z, dtype=float)


def diagonal_resolvent(d):
    """Resolvent ``J(z, lam)`` of x -> diag(d) x for finite d >= 0, else
    ValueError: the elementwise scaling (1 / (1 + lam*d)) * z, into a
    fresh array.

    The coefficient vector is kept for the last lam seen, so a
    fixed-step run builds it once.
    """
    d = np.asarray(d, dtype=float)
    bad = np.argwhere(~(np.isfinite(d) & (d >= 0.0)))
    if len(bad):
        i = bad[0].tolist()
        raise ValueError("d must hold finite reals >= 0, got "
                         f"d{i} = {float(d[tuple(i)])!r}")
    return _scaling(d)


def _scaling(d):
    """diagonal_resolvent's map for a float array d, unchecked."""
    # (lam, coefficient) replaced as one tuple, so callers sharing the
    # resolvent across threads never pair a lam with another's vector.
    cached = (None, None)

    def resolve(z, lam):
        nonlocal cached
        lam_cached, coeff = cached
        if lam != lam_cached:
            coeff = 1.0 / (1.0 + lam * d)
            cached = (lam, coeff)
        return coeff * z

    return resolve


def symmetric_affine_resolvent(E, beta=0.0):
    """Resolvent ``J(z, lam)`` of x -> (E + beta*I) x for symmetric
    E = P diag(eigs) P^T.

    Decomposes E once; each call solves (I + lam*(E + beta*I)) x = z in
    the eigenbasis as P @ J_diag(P^T @ z, lam), with J_diag the scaling
    of ``diagonal_resolvent`` at eigs + beta: one matvec pair and no
    refactorization.  The scaling skips that resolvent's d >= 0 check,
    because eigh can round the smallest eigenvalue of a semidefinite
    E + beta*I to about -1e-15 (with beta = max|eigvalsh(E)|, say).
    Such rounding stayed within 0.71 * n * eps * max|eigs| over 2000
    random semidefinite shifts (n = 2 to 200), so an eigenvalue of
    E + beta*I below ten times that floor raises ValueError naming beta.
    """
    eigs, P = np.linalg.eigh(np.asarray(E, dtype=float))
    shifted = eigs + beta
    floor = -10.0 * eigs.size * np.finfo(float).eps \
        * np.max(np.abs(eigs), initial=0.0)
    if not np.all(shifted >= floor):
        raise ValueError(f"E + beta*I must be positive semidefinite: beta="
                         f"{beta!r} leaves eigenvalue {shifted.min():g}")
    scale = _scaling(shifted)
    # P.T stays a view: a contiguous copy could change the BLAS path and
    # with it the last bits of the product.
    P_t = P.T
    return lambda z, lam: P @ scale(P_t @ z, lam)


def _top_gram_eigenvalue(A, name="A"):
    """Largest eigenvalue of the smaller Gram matrix of A, i.e. ||A||_2^2.

    A A^T and A^T A share their nonzero spectrum, so the smaller one
    gives the answer.  One symmetric eigenvalue solve on it is several
    times cheaper than the SVD behind np.linalg.norm(A, 2) and agrees
    with that to about 5e-15 relative, so fixed steps derived from it
    differ from SVD-based ones only in their last digits.  Clamped at
    0 so that the result is never negative; an empty A gives 0, as the
    SVD does.

    A non-finite entry of A, or a Gram entry that overflows, raises
    ValueError naming ``name``.  The Gram's trace is ||A||_F^2, a sum of
    squares, so it is finite exactly when the whole Gram is: the check
    costs one pass over the Gram's diagonal, not over A, and runs before
    eigvalsh, which fails on a non-finite Gram with LinAlgError or
    returns NaN (that max(0.0, nan) would turn into 0.0).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
        finite = math.isfinite(np.trace(gram))
    if not finite:
        raise ValueError(f"{name} must hold finite values whose Gram "
                         f"matrix does not overflow")
    eigs = np.linalg.eigvalsh(gram)
    return max(0.0, float(eigs[-1])) if eigs.size else 0.0


def _check_finite(v, name):
    """ValueError naming the first non-finite entry of a vector v."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{name} must hold finite values, got "
                         f"{name}[{bad[0]}] = {float(v[bad[0]])!r}")


def make_affine_forward(M, b):
    """Forward operator x -> M x + b with Lipschitz constant ||M||_2,
    taken as sqrt(lambda_max) of the Gram of M, which agrees with the
    SVD to about 5e-15 relative (see _top_gram_eigenvalue).  A
    non-finite entry of M or b raises ValueError naming it."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square 2-d array, got shape {M.shape}")
    if b.shape != M.shape[:1]:
        raise ValueError(f"b must have shape {M.shape[:1]}, got {b.shape}")
    _check_finite(b, "b")
    return ForwardOperator(lambda x: M @ x + b,
                           lipschitz_hint=math.sqrt(
                               _top_gram_eigenvalue(M, "M")))


# A design matrix this large is placed on its own transparent huge page(s).
_PLACE_MIN_BYTES = 1 << 20
_HUGE_PAGE = 2 << 20
# A placed C-order row is followed by one 64-byte cache line of padding.
# At the 256 x 1024 lasso's 8 KiB pitch, the column-half products
# A[:, :c]^T r read 4 KiB half-rows that all fall into the same cache
# sets.  On a 2-CPU Xeon with 2 MiB of L2 per core, padded by 8 doubles
# they took 11 us against 18-19 us in a tight loop, and the benchmark's
# lasso solves 15-22 % less time.  A pad of 64 doubles was slower than
# none in solves, though no slower in the tight loop, so the pad is set
# by solve-level runs; see the README's Determinism section.
_ROW_PAD = 8


def _placed_copy(A):
    """Copy of a C- or F-contiguous A that starts a 2 MiB-aligned private
    anonymous mapping; None where the platform lacks MADV_HUGEPAGE or the
    mapping or advice fails.  The advice covers only the huge pages the
    copy mostly fills, round(nbytes / 2 MiB) of them and at least one,
    from its start: the padded 256 x 1024 lasso design (2.02 MiB) gets
    one, where advising its 16 KiB tail too backed it with a second.

    An F-order A is copied contiguously in its order.  A C-order A is
    copied with a row pitch of n + _ROW_PAD doubles, so that the
    half-rows the column-half products A[:, :c]^T r read do not all
    fall into the same cache sets (see _ROW_PAD), and returned as the
    [:, :n] view of that block, which is not C-contiguous.  numpy hands
    such a view to BLAS with lda = n + _ROW_PAD, and gemv and gemm do
    the same arithmetic at any lda, so every product keeps its bits.

    The mapping is private: a shared anonymous one is shmem, which
    transparent huge pages in "madvise" mode do not back.
    """
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        return None
    m, n = A.shape
    order = "C" if A.flags.c_contiguous else "F"
    # Only a C-only A gets padded rows: a single row or column is both C-
    # and F-contiguous, and a pad there would only waste memory.
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
    """Private copy of A that numpy multiplies as it does A: placed by
    _placed_copy when A is C- or F-contiguous and at least 1 MiB, else
    a plain copy in A's order, and for a view, one with A's strides,
    since whether numpy hands a view to BLAS depends on those.  The
    placed C-order copy has a wider row pitch than A, but its rows are
    still unit-stride, so numpy hands it to the same BLAS kernels, only
    with a larger leading dimension, which changes no arithmetic."""
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


def _least_squares_gradient(A, y, shareable):
    """x -> A^T (A x - y), with A x formed bottom row block first.

    An A that takes the row split shares each evaluation with the
    partner process where ``shareable`` and the host can run one
    (_partner.available).  ``shareable`` says the caller's A was C-order
    and at least 1 MiB; it cannot be read off A, whose placed copy has
    padded rows and so is not C-contiguous.  On the shipped lasso
    iterates (seeds 0-4, one BLAS thread) a shared evaluation took a
    median 59 us in a tight loop against 68 us for the serial one below.
    """
    m = A.shape[0]
    if m < 8 or A.size >= _MAX_ENTRIES:
        return lambda x: A.T @ (A @ x - y)
    h = 4 * (m // 8)
    top, bottom = A[:h], A[h:]

    def evaluate(x):
        r = np.empty(m)
        np.matmul(bottom, x, out=r[h:])
        np.matmul(top, x, out=r[:h])
        r -= y
        return A.T @ r

    if shareable and available():
        return SplitForward(A, y, h, evaluate)
    return evaluate


def make_lasso_forward(A, y):
    """Least-squares gradient x -> A^T (A x - y) with Lipschitz constant
    ||A||_2^2, taken as the top eigenvalue of A A^T or A^T A, whichever
    is smaller; it agrees with the SVD to about 5e-15 relative (see
    _top_gram_eigenvalue).  A non-finite entry of A or y raises
    ValueError naming it.

    The operator snapshots A and y when it is built, at every size, so
    later writes to the caller's arrays do not reach it.  Its values
    and hint equal those of the plain formula on the caller's A bit for
    bit, in any layout.  Three things keep the 256 x 1024 (2 MiB) lasso
    design in a core's L2 cache:

    * An A of at least 1 MiB, C- or F-contiguous, is copied to the
      start of a 2 MiB-aligned private anonymous mapping advised
      MADV_HUGEPAGE, so it fills whole huge pages instead of 4 KiB
      pages that map unevenly onto L2's sets.  Linux backs it with huge
      pages when transparent huge pages are in "always" or "madvise"
      mode.  A C-order copy's rows are n + 8 doubles apart, one 64-byte
      cache line more than a row, so that the 4 KiB half-rows the
      column-half products A[:, :c]^T r read at a 1024-double pitch no
      longer fall into the same cache sets; the operator keeps the
      [:, :n] view, which numpy hands to the same BLAS kernels with a
      larger leading dimension.  An F-order copy stays contiguous.
      Without the advice, or when mapping or advice fails, A is copied
      plainly, as every other A is; a view keeps its strides, because
      numpy hands a view to BLAS or to its own loop by them.
    * A x is formed as two row blocks, the bottom one first, split at
      h = 4 * floor(m / 8), so A^T r starts on rows still in cache.
      OpenBLAS's gemv, for C and F order alike, takes rows in groups
      of 4 and the last m mod 4 rows apart; a split at a multiple of 4
      that leaves at least 4 rows below keeps every row in the same
      kernel path.  A split off a multiple of 4, or one leaving a single
      row (numpy then calls ddot), changes the last bits.  An A with
      m < 8 keeps the one product, and so does one with m * n at or
      above 460800, where OpenBLAS deals the rows to several threads
      and a split would regroup them.
    * On Linux x86-64 with at least two CPUs in the process's affinity
      mask, an A of at least 1 MiB that the caller passed in C order
      and that is split by rows is shared with a partner process
      (monosplit._partner), which keeps its own placed copy, padded
      alike: the parent forms A[:h] x and A[:, :c]^T r, the partner
      A[h:] x and A[:, c:]^T r, with c = 8 * floor(n / 16).
      Each column block of A^T r starts at a multiple of 4 columns, so
      each output element keeps its kernel path, as each row does.  The
      partner starts at the first such evaluation, not here; until it is
      ready, and once it is gone, evaluations take the serial path.

    On the shipped lasso instances (seeds 0-4, one BLAS thread, an
    Intel Xeon with 2 MiB of L2 per core) a forward evaluation took a
    median 103 us with the plain formula on numpy's allocation, 94 us
    with the split alone, 73 us placed alone and 64 us with both.  Over
    the iterates of a gfrb_adaptive solve on the same instances, on a
    2-CPU Xeon, a partnered evaluation took a median 59 us against 68 us
    serial, in a tight loop; inside the benchmark's lasso solves, where
    the rest of each iteration evicts part of A from the calling core's
    L2 while the partner's part stays in its own, each solver ran 15-22 %
    faster.  Padding the placed rows by 8 doubles then cut the
    column-half products from 18-19 us to 11 us in a tight loop; the row
    blocks and the serial path's full A^T r got no faster.  In two runs
    of the benchmark's lasso workload the pad took 19-22 % off the solve
    time against none, while a pad of 64 doubles changed it by +15 % and
    -2 %; on one CPU, where no partner runs, solves moved by -3 and +7 %.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a 2-d array, got shape {A.shape}")
    if y.shape != A.shape[:1]:
        raise ValueError(f"y must have shape {A.shape[:1]}, got {y.shape}")
    _check_finite(y, "y")
    shareable = A.flags.c_contiguous and A.nbytes >= _PLACE_MIN_BYTES
    A = _snapshot(A)
    return ForwardOperator(_least_squares_gradient(A, y.copy(), shareable),
                           lipschitz_hint=_top_gram_eigenvalue(A))


_POWER_MAX_ITER = 500
_POWER_TOL = 1e-8


def power_norm(K):
    """Operator 2-norm of a linear map by power iteration on K^T K.

    Uses a fixed internal seed so repeated calls agree bitwise.  The
    Rayleigh estimate climbs to the true norm from below, so the result
    never exceeds ||K||; it stops once successive estimates agree to
    1e-8 relative, or after 500 iterations.
    """
    if isinstance(K, np.ndarray):
        K = LinearMap.from_matrix(K)
    n = K.shape[1]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0x9e3779b9)))
    v = gen.random(n) - 0.5
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = K.apply(v)
        new_est = np.linalg.norm(w)
        if new_est == 0.0:
            return 0.0
        v = K.apply_adjoint(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return float(new_est)
        v /= nv
        if abs(new_est - est) <= _POWER_TOL * max(1.0, new_est):
            return float(new_est)
        est = new_est
    return float(est)
