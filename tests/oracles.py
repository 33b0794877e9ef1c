"""Dense reference oracles the tests check the package against.

They live beside the tests, not in ``monosplit``, so a refactor of the
package cannot break an oracle together with the code it checks.
``build_matrix`` and ``spectral_radius`` check the rate routes of
``rate_analysis`` (``cubic_roots``, ``characteristic_roots``) and predict
fixed-step rates on example2, whose resolvent is a diagonal scaling;
``metric_matrix``, ``coupling_matrix`` and ``gfrb_in_metric`` check
``primal_dual.epdtr_step`` as a multi-step reflected splitting on the
product space in the metric [[tau^{-1} I, -K*], [-K, sigma^{-1} I]];
``expanded_epdtr_drive`` is epdtr_step's primal drive in the
hand-expanded form it had before it shared splitting's reflected kernel;
``planted_instance`` is a random inclusion built around a planted
solution, so it is known exactly without a reference solve.
``linear_composite_instance`` is a random linear composite problem, and
``run_epdtr_steps`` runs the package's epdtr_step on it with dense
resolvents, the trajectory the metric and two-term oracles check.
"""

import numpy as np

from monosplit.operators import LinearMap
from monosplit.primal_dual import PrimalDualState, epdtr_step


def build_matrix(B, lam, delta, r=None):
    """Companion-block iteration matrix of the three-term recursion.

    Top block row implements
    x_{k+1} = diag(r) (x_k - lam*(delta+2)*B x_k + lam*(2*delta+1)*B x_{k-1}
                       - lam*delta*B x_{k-2}),
    the error recursion of a fixed step whose resolvent J_{lam A} is the
    linear scaling diag(r); r None is A = 0 (the identity resolvent).
    """
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    eye = np.eye(d)
    zero = np.zeros((d, d))
    top = [eye - lam * (delta + 2.0) * B, lam * (2.0 * delta + 1.0) * B,
           -lam * delta * B]
    if r is not None:
        top = [np.asarray(r, dtype=float)[:, None] * block for block in top]
    return np.block([top, [eye, zero, zero], [zero, eye, zero]])


def spectral_radius(M):
    """Largest eigenvalue modulus of M via dense eigenvalues."""
    M = np.asarray(M, dtype=float)
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigenvalue iteration failed for a {M.shape[0]}x{M.shape[1]} "
            f"matrix with max |entry| {np.max(np.abs(M)):g}") from exc
    return float(np.max(np.abs(eigs)))


def metric_matrix(tau, sigma, K):
    """Dense product-space metric [[tau^{-1} I, -K^T], [-K, sigma^{-1} I]]."""
    K = np.asarray(K, dtype=float)
    m, n = K.shape
    return np.block([
        [np.eye(n) / tau, -K.T],
        [-K, np.eye(m) / sigma],
    ])


def coupling_matrix(A_mat, C_inv_mat, K):
    """Dense coupling block [[A, K^T], [-K, C^{-1}]] for linear A, C^{-1}."""
    K = np.asarray(K, dtype=float)
    return np.block([
        [np.asarray(A_mat, dtype=float), K.T],
        [-K, np.asarray(C_inv_mat, dtype=float)],
    ])


def gfrb_in_metric(M_mat, G_mat, F_mat, f_vec, z0, z_minus1, z_minus2, b,
                   num_steps):
    """Reference product-space recursion with dense solves.

    Advances M z_k - (b+2) F(z_k) + (2b+1) F(z_{k-1}) - b F(z_{k-2})
    = (M + G) z_{k+1} for affine F(z) = F_mat z + f_vec and returns the
    iterates z_1 ... z_{num_steps} as rows.  This is the oracle the
    coordinate update formulas are checked against on linear instances.
    """
    M_mat = np.asarray(M_mat, dtype=float)
    G_mat = np.asarray(G_mat, dtype=float)
    F_mat = np.asarray(F_mat, dtype=float)
    f_vec = np.asarray(f_vec, dtype=float)
    z_pp = np.asarray(z_minus2, dtype=float).copy()
    z_p = np.asarray(z_minus1, dtype=float).copy()
    z = np.asarray(z0, dtype=float).copy()
    system = M_mat + G_mat
    out = np.empty((num_steps, z.size))
    for k in range(num_steps):
        Fz = F_mat @ z + f_vec
        Fz_p = F_mat @ z_p + f_vec
        Fz_pp = F_mat @ z_pp + f_vec
        rhs = (M_mat @ z - (b + 2.0) * Fz + (2.0 * b + 1.0) * Fz_p
               - b * Fz_pp)
        z_new = np.linalg.solve(system, rhs)
        out[k] = z_new
        z_pp, z_p, z = z_p, z, z_new
    return out


def expanded_epdtr_drive(x, Kty, Bx, Bx_prev, Bx_prev2, tau, b):
    """x - tau*K*y - ((b+2)*tau)*Bx + ((2b+1)*tau)*Bx_prev - (b*tau)*Bx_prev2,
    grouped so, with Kty = K*y: the composite solver's primal drive with
    the reflected combination's coefficients expanded by hand, a frozen
    copy that the shared kernel's form must match to rounding.
    """
    drive = x - tau * Kty
    work = ((b + 2.0) * tau) * Bx
    drive -= work
    np.multiply((2.0 * b + 1.0) * tau, Bx_prev, out=work)
    drive += work
    np.multiply(b * tau, Bx_prev2, out=work)
    drive -= work
    return drive


class AffineForward:
    """x -> M x + b, with the exact Lipschitz constant ||M||_2 as its
    lipschitz_hint, which the fixed-step solvers' default steps read."""

    def __init__(self, M, b):
        self.M, self.b = M, b
        self.lipschitz_hint = float(np.linalg.norm(M, 2))

    def __call__(self, x):
        return self.M @ x + self.b


def planted_instance(n, s, w, seed):
    """0 in (A + B)(x) with a planted solution x*; returns
    (resolvent of A, B, x*).

    A = d(w ||.||_1), whose resolvent is soft thresholding at lam * w.
    B(x) = M x + b with M = G G^T / n + s (R - R^T) / 2: G is n x 2n, so
    the symmetric part is positive definite (for large n its spectrum
    lies near [0.17, 5.8]) and B is strongly monotone, with skew weight
    s.  x* is sparse, with max(1, n // 4) normal entries, and
    v = w sign(x*) on its support and w u off it, |u| <= 0.9, lies in
    A(x*), strictly inside w [-1, 1] off the support.  Then
    b = -(M x* + v) gives -B(x*) = v, so x* is the unique solution.
    All draws come from numpy's default_rng(seed).
    """
    gen = np.random.default_rng(seed)
    G = gen.standard_normal((n, 2 * n))
    R = gen.standard_normal((n, n))
    M = G @ G.T / n + s * 0.5 * (R - R.T)
    x_star = np.zeros(n)
    support = gen.permutation(n)[:max(1, n // 4)]
    x_star[support] = gen.standard_normal(support.size)
    v = w * gen.uniform(-0.9, 0.9, n)
    v[support] = w * np.sign(x_star[support])

    def resolvent(z, lam):
        return np.sign(z) * np.maximum(np.abs(z) - lam * w, 0.0)

    return resolvent, AffineForward(M, -(M @ x_star + v)), x_star


def linear_composite_instance(seed, n=4, m=3):
    """(A, C^{-1}, B, b, K, x0, y0) of a linear composite problem: A,
    C^{-1} and B symmetric positive semidefinite (C^{-1} and B definite),
    B(x) = B x + b, K of shape (m, n), all from default_rng(seed)."""
    gen = np.random.default_rng(seed)
    Ra = gen.standard_normal((n, n))
    A_mat = Ra @ Ra.T / n
    Rc = gen.standard_normal((m, m))
    Cinv_mat = Rc @ Rc.T / m + 0.5 * np.eye(m)
    Rb = gen.standard_normal((n, n))
    B_mat = Rb @ Rb.T / n + 0.3 * np.eye(n)
    b_vec = gen.standard_normal(n)
    K = gen.standard_normal((m, n)) / 2.0
    x0 = gen.standard_normal(n)
    y0 = gen.standard_normal(m)
    return A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0


def run_epdtr_steps(parts, cfg, steps):
    """The (x, y) rows of ``steps`` epdtr_step passes under cfg on the
    linear_composite_instance ``parts``, from histories seeded at x0."""
    A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = parts
    n, m = x0.size, y0.size
    res_a = (
        lambda z, lam: np.linalg.solve(np.eye(n) + lam * A_mat, z))
    res_cinv = lambda v, s: np.linalg.solve(np.eye(m) + s * Cinv_mat, v)
    fwd = lambda x: B_mat @ x + b_vec
    lin = LinearMap.from_matrix(K)
    Bx0 = fwd(x0)
    state = PrimalDualState(x=x0, x_prev=x0, x_prev2=x0, y=y0, Bx=Bx0,
                            Bx_prev=Bx0, Bx_prev2=Bx0, Kx=K @ x0)
    out = []
    for _ in range(steps):
        state = epdtr_step(state, cfg, res_a, fwd, lin, res_cinv)
        out.append(np.concatenate([state.x, state.y]))
    return np.array(out)
