"""Operator building blocks for monotone inclusion solvers.

A problem 0 in (A + B)(x) is handed to the solvers as a resolvent for the
set-valued part A and a point evaluation for the single-valued part B.
Operators are small wrapper objects so that Lipschitz and norm metadata
travel with the callables that need them.
"""

import numpy as np

# Iterates are plain 1-d float arrays.
VectorPoint = np.ndarray


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

    def evaluate(self, x):
        return self._evaluate(x)

    __call__ = evaluate


class ResolventOperator:
    """Resolvent of a maximally monotone operator.

    ``resolve(z, lam)`` returns the unique x with z in x + lam*A(x).
    """

    def __init__(self, resolve):
        self._resolve = resolve

    def resolve(self, z, lam):
        return self._resolve(z, lam)

    __call__ = resolve


class LinearMap:
    """Linear coupling map with its adjoint and an optional norm bound."""

    def __init__(self, apply, apply_adjoint, shape, norm_hint=None):
        self._apply = apply
        self._adjoint = apply_adjoint
        self.shape = tuple(shape)
        self.norm_hint = norm_hint

    def apply(self, x):
        return self._apply(x)

    def apply_adjoint(self, y):
        return self._adjoint(y)

    @classmethod
    def from_matrix(cls, K, norm_hint=None):
        K = np.asarray(K, dtype=float)
        return cls(lambda x: K @ x, lambda y: K.T @ y, K.shape,
                   norm_hint=norm_hint)


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
    """Resolvent of the scaled l1 subdifferential, i.e. soft thresholding."""
    return ResolventOperator(lambda z, lam: soft_threshold(z, lam * weight))


def zero_resolvent():
    """Resolvent of the zero operator: the identity map."""
    return ResolventOperator(lambda z, lam: np.asarray(z, dtype=float))


def symmetric_affine_resolvent(E, beta=0.0):
    """Resolvent of x -> (E + beta*I) x for symmetric E = P diag(eigs) P^T.

    Decomposes E once; each call solves (I + lam*(E + beta*I)) x = z in
    the eigenbasis as P @ (1 / (1 + lam*(eigs + beta)) * (P^T @ z)), one
    matvec pair and no refactorization.  The shifted spectrum
    eigs + beta is formed once, and the coefficient vector is kept for
    the last lam seen, so a fixed-step run builds it once.
    """
    E = np.asarray(E, dtype=float)
    eigs, P = np.linalg.eigh(E)
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

    return ResolventOperator(resolve)


def make_affine_forward(M, b):
    """Forward operator x -> M x + b with its exact Lipschitz constant."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    return ForwardOperator(lambda x: M @ x + b,
                           lipschitz_hint=float(np.linalg.norm(M, 2)))


def make_lasso_forward(A, y):
    """Least-squares gradient x -> A^T (A x - y); Lipschitz ||A||_2^2."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    return ForwardOperator(lambda x: A.T @ (A @ x - y),
                           lipschitz_hint=float(np.linalg.norm(A, 2)) ** 2)


def power_norm(K, max_iter=500, tol=1e-8):
    """Operator 2-norm of a linear map by power iteration on K^T K.

    Uses a fixed internal seed so repeated calls agree bitwise.  The
    Rayleigh estimate climbs to the true norm from below, so the result
    never exceeds ||K|| and stops once successive estimates agree to
    ``tol`` relative.
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
    for _ in range(max_iter):
        w = K.apply(v)
        new_est = np.linalg.norm(w)
        if new_est == 0.0:
            return 0.0
        v = K.apply_adjoint(w)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return float(new_est)
        v /= nv
        if abs(new_est - est) <= tol * max(1.0, new_est):
            return float(new_est)
        est = new_est
    return float(est)
