"""Dense reference oracles the tests check the package against.

They live beside the tests, not in ``monosplit``, so a refactor of the
package cannot break an oracle together with the code it checks.
``build_matrix`` and ``spectral_radius`` check the rate routes of
``rate_analysis`` (``cubic_roots``, ``characteristic_roots``);
``metric_matrix``, ``coupling_matrix`` and ``gfrb_in_metric`` check
``primal_dual.epdtr_step`` as a multi-step reflected splitting on the
product space in the metric [[tau^{-1} I, -K*], [-K, sigma^{-1} I]].
"""

import numpy as np


def build_matrix(B, lam, delta):
    """Companion-block iteration matrix of the three-term recursion.

    Top block row implements
    x_{k+1} = x_k - lam*(delta+2)*B x_k + lam*(2*delta+1)*B x_{k-1}
              - lam*delta*B x_{k-2}.
    """
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return np.block([
        [eye - lam * (delta + 2.0) * B, lam * (2.0 * delta + 1.0) * B,
         -lam * delta * B],
        [eye, zero, zero],
        [zero, eye, zero],
    ])


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
