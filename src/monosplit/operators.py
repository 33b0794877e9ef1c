"""Operator building blocks for monotone inclusion solvers.

A problem 0 in (A + B)(x) is handed to the solvers as a resolvent for the
set-valued part A and a point evaluation for the single-valued part B.
A resolvent is any callable ``J(z, lam)`` that returns the unique x with
z in x + lam*A(x); the factories below return plain functions.  B is any
callable; ForwardOperator only attaches a Lipschitz hint to one, and
LinearMap carries a coupling map's shape, adjoint and norm hint.
"""

import math

import numpy as np

from ._partner import LeastSquaresGradient
from .stepsize import real_arg


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
        finite real >= 0 (0 is the hint of a zero matrix), else
        ValueError naming lipschitz_hint.
    """

    def __init__(self, evaluate, lipschitz_hint=None):
        self._evaluate = evaluate
        self.lipschitz_hint = None if lipschitz_hint is None else \
            real_arg(lipschitz_hint, "lipschitz_hint", ">= 0")

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
    thresholding at lam * weight; ValueError naming weight (a finite
    real >= 0)."""
    weight = real_arg(weight, "weight", ">= 0")
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


def make_lasso_forward(A, y):
    """Least-squares gradient x -> A^T (A x - y) with Lipschitz constant
    ||A||_2^2, taken as the top eigenvalue of A A^T or A^T A, whichever
    is smaller; it agrees with the SVD to about 5e-15 relative (see
    _top_gram_eigenvalue).  A non-finite entry of A or y raises
    ValueError naming it.

    The operator snapshots A and y when it is built, at every size, so
    later writes to the caller's arrays do not reach it.  Its values
    and hint equal those of the plain formula on the caller's A bit for
    bit, in any layout, though a large A is laid out, split and shared
    with a second process as monosplit._partner describes.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a 2-d array, got shape {A.shape}")
    if y.shape != A.shape[:1]:
        raise ValueError(f"y must have shape {A.shape[:1]}, got {y.shape}")
    _check_finite(y, "y")
    grad = LeastSquaresGradient(A, y)
    # A gradient that is never shared is evaluated without a hop through
    # its __call__.
    return ForwardOperator(grad if grad.shareable else grad.serial,
                           lipschitz_hint=_top_gram_eigenvalue(grad.A))


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
