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
        check step-size ranges.  None disables those checks.
    """

    def __init__(self, evaluate, lipschitz_hint=None):
        self._evaluate = evaluate
        self.lipschitz_hint = lipschitz_hint

    def __call__(self, x):
        return self._evaluate(x)


class LinearMap:
    """Linear coupling map with its adjoint and an optional norm bound,
    ``norm_hint``, which starts as None (experiments.resolve sets it)."""

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
    thresholding at lam * weight."""
    return lambda z, lam: soft_threshold(z, lam * weight)


def zero_resolvent():
    """Resolvent ``J(z, lam)`` of the zero operator: the identity map."""
    return lambda z, lam: np.asarray(z, dtype=float)


def symmetric_affine_resolvent(E, beta=0.0):
    """Resolvent ``J(z, lam)`` of x -> (E + beta*I) x for symmetric
    E = P diag(eigs) P^T.

    Decomposes E once; each call solves (I + lam*(E + beta*I)) x = z in
    the eigenbasis as P @ (1 / (1 + lam*(eigs + beta)) * (P^T @ z)), one
    matvec pair and no refactorization.  The shifted spectrum
    eigs + beta is formed once, and the coefficient vector is kept for
    the last lam seen, so a fixed-step run builds it once.
    """
    eigs, P = np.linalg.eigh(np.asarray(E, dtype=float))
    return _eigen_affine_resolvent(eigs, P, beta)


def _eigen_affine_resolvent(eigs, P, beta):
    """symmetric_affine_resolvent from a decomposition ``eigh`` gave, for
    callers that need the spectrum themselves and decompose E only once."""
    shifted = eigs + beta
    # P.T stays a view: a contiguous copy could change the BLAS path and
    # with it the last bits of the product.
    P_t = P.T
    # (lam, coefficient) replaced as one tuple, so callers sharing the
    # resolvent across threads never pair a lam with another's vector.
    cached = (None, None)

    def resolve(z, lam):
        nonlocal cached
        lam_cached, coeff = cached
        if lam != lam_cached:
            coeff = 1.0 / (1.0 + lam * shifted)
            cached = (lam, coeff)
        v = P_t @ z
        v *= coeff
        return P @ v

    return resolve


def _top_gram_eigenvalue(A):
    """Largest eigenvalue of the smaller Gram matrix of A, i.e. ||A||_2^2.

    A A^T and A^T A share their nonzero spectrum, so the smaller one
    gives the answer.  One symmetric eigenvalue solve on it is several
    times cheaper than the SVD behind np.linalg.norm(A, 2) and agrees
    with that to about 5e-15 relative, so fixed steps derived from it
    differ from SVD-based ones only in their last digits.  Clamped at
    0 so that the result is never negative; an empty A gives 0, as the
    SVD does.
    """
    gram = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    eigs = np.linalg.eigvalsh(gram)
    return max(0.0, float(eigs[-1])) if eigs.size else 0.0


def make_affine_forward(M, b):
    """Forward operator x -> M x + b with Lipschitz constant ||M||_2,
    taken as sqrt(lambda_max) of the Gram of M, which agrees with the
    SVD to about 5e-15 relative (see _top_gram_eigenvalue)."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    return ForwardOperator(lambda x: M @ x + b,
                           lipschitz_hint=math.sqrt(_top_gram_eigenvalue(M)))


def make_lasso_forward(A, y):
    """Least-squares gradient x -> A^T (A x - y) with Lipschitz constant
    ||A||_2^2, taken as the top eigenvalue of A A^T or A^T A, whichever
    is smaller; it agrees with the SVD to about 5e-15 relative (see
    _top_gram_eigenvalue)."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    return ForwardOperator(lambda x: A.T @ (A @ x - y),
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
