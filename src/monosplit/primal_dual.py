"""Primal-dual twice-reflected splitting for 0 in (A + B + K* C K)(x).

The solver interleaves a resolvent step on A (with the multi-step
reflected combination of B values) and a resolvent step on C^{-1} fed by
reflected K images, with the reflection weight b generalizing the
two-term scheme recovered at b = 0.  Admissibility of the step pair is
2*tau*(1+|b|)*L + tau*sigma*||K||^2 < 1.

The same iteration is a multi-step reflected splitting on the product
space in the metric

    M = [[tau^{-1} I, -K*], [-K, sigma^{-1} I]],

with coupling G = [[A, K*], [-K, C^{-1}]] and forward part
F(z) = (B x, 0).  ``gfrb_in_metric`` runs that product-space recursion
with dense solves for linear instances and is the reference the update
formulas are validated against.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import power_norm
from .splitting import StepSizeWarning, _drive, _forward, _norm, _resolver


@dataclass
class EPDTRConfig:
    """Step pair and reflection weight for the primal-dual solver."""

    tau: float
    sigma: float
    b: float = 0.0


@dataclass
class CompositeProblem:
    """Data for 0 in (A + B + K* C K)(x).

    resolvent_c is the resolvent of C itself; the solver derives the
    resolvent of C^{-1} from it.  x0 and y0 default to zeros.
    """

    resolvent_a: object
    forward_b: object
    linmap_k: object
    resolvent_c: object
    x0: np.ndarray = None
    y0: np.ndarray = None


@dataclass
class PrimalDualState:
    """One iteration's worth of primal-dual history."""

    x: np.ndarray
    x_prev: np.ndarray
    x_prev2: np.ndarray
    y: np.ndarray
    Bx: np.ndarray
    Bx_prev: np.ndarray
    Bx_prev2: np.ndarray
    Kx: np.ndarray


def check_stepsizes(tau, sigma, b, L, norm_k):
    """Admissibility test; returns (admissible, slack).

    slack = 1 - 2*tau*(1+|b|)*L - tau*sigma*norm_k**2; admissible means
    slack > 0 with both steps positive.
    """
    if tau <= 0.0 or sigma <= 0.0:
        raise ValueError("tau and sigma must be positive")
    slack = 1.0 - (2.0 * tau * (1.0 + abs(b)) * L + tau * sigma * norm_k ** 2)
    return slack > 0.0, float(slack)


def default_stepsizes(b, L, norm_k, budget=0.95):
    """Step pair spending ``budget`` of the admissibility bound.

    Splits the budget evenly between the forward term and the coupling
    term; degenerate problems (L = 0 or norm_k = 0) spend it all on the
    surviving term.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    scale = 2.0 * (1.0 + abs(b)) * L
    if L > 0.0 and norm_k > 0.0:
        tau = (budget / 2.0) / scale
        sigma = scale / norm_k ** 2
    elif L > 0.0:
        tau = budget / scale
        sigma = tau
    elif norm_k > 0.0:
        tau = np.sqrt(budget) / norm_k
        sigma = tau
    else:
        tau = sigma = 1.0
    return float(tau), float(sigma)


def resolvent_of_inverse(resolvent_c, sigma, y):
    """Resolvent of sigma * C^{-1} from the resolvent of C.

    Inversion identity: J_{sigma C^{-1}}(y) = y - sigma *
    J_{(1/sigma) C}(y / sigma).
    """
    y = np.asarray(y, dtype=float)
    return y - sigma * np.asarray(resolvent_c(y / sigma, 1.0 / sigma),
                                  dtype=float)


def epdtr_step(state, cfg, resolvent_a, forward_b, linmap_k, resolvent_c_inv):
    """One primal-dual pass; returns the advanced state.

    Primal: resolvent of A at x_k - tau*K*y_k minus the reflected B
    combination (b+2, -(2b+1), b) over the last three B values.
    Dual: resolvent of sigma*C^{-1} at y_k + sigma*K(2 x_{k+1} - x_k).
    Exactly one evaluation each of B, K and K* per call.
    """
    tau, sigma, b = cfg.tau, cfg.sigma, cfg.b
    # The formula's grouping, term by term, in place on the fresh drive
    # and dual arrays (see splitting's notes on bitwise step kernels).
    drive = state.x - tau * linmap_k.apply_adjoint(state.y)
    work = ((b + 2.0) * tau) * state.Bx
    drive -= work
    np.multiply((2.0 * b + 1.0) * tau, state.Bx_prev, out=work)
    drive += work
    np.multiply(b * tau, state.Bx_prev2, out=work)
    drive -= work
    x_new = np.asarray(_resolver(resolvent_a)(drive, tau), dtype=float)
    Kx_new = np.asarray(linmap_k.apply(x_new), dtype=float)
    dual = 2.0 * Kx_new
    dual -= state.Kx
    dual *= sigma
    dual += state.y
    y_new = np.asarray(resolvent_c_inv(dual, sigma), dtype=float)
    Bx_new = _forward(forward_b, x_new)
    return PrimalDualState(x=x_new, x_prev=state.x, x_prev2=state.x_prev,
                           y=y_new, Bx=Bx_new, Bx_prev=state.Bx,
                           Bx_prev2=state.Bx_prev, Kx=Kx_new)


def epdtr_solve(problem, cfg=None, stop=None):
    """Run the primal-dual iteration to a joint displacement tolerance.

    Returns (x, y, trace).  The trace's lambda column records tau, and
    the terminal fixed-point residuals are attached as
    ``trace.primal_residual`` and ``trace.dual_residual``:

        ||x - J_{tau A}(x - tau*(B x + K* y))||,
        ||y - J_{sigma C^{-1}}(y + sigma*K x)||.

    With no config, steps come from ``default_stepsizes`` using the
    forward operator's Lipschitz hint and a 1%-inflated power-iteration
    estimate of ||K|| (exact hint used when the map carries one).
    Histories are seeded x_{-1} = x_{-2} = x_0.  An inadmissible step
    pair warns and iterates anyway.
    """
    K = problem.linmap_k
    m, n = K.shape
    x0 = np.zeros(n) if problem.x0 is None else \
        np.asarray(problem.x0, dtype=float).copy()
    y0 = np.zeros(m) if problem.y0 is None else \
        np.asarray(problem.y0, dtype=float).copy()
    L = getattr(problem.forward_b, "lipschitz_hint", None)
    norm_k = K.norm_hint if K.norm_hint is not None else \
        1.01 * power_norm(K)
    if cfg is None:
        if L is None:
            raise ValueError("default step sizes need a lipschitz_hint on "
                             "the forward operator; pass an EPDTRConfig")
        tau, sigma = default_stepsizes(0.0, L, norm_k)
        cfg = EPDTRConfig(tau=tau, sigma=sigma, b=0.0)
    if L is not None:
        ok, slack = check_stepsizes(cfg.tau, cfg.sigma, cfg.b, L, norm_k)
        if not ok:
            warnings.warn(
                f"step pair (tau={cfg.tau:g}, sigma={cfg.sigma:g}) is outside "
                f"the admissible region (slack {slack:g}); iterating anyway",
                StepSizeWarning, stacklevel=2)

    def resolvent_c_inv(v, sigma):
        return resolvent_of_inverse(problem.resolvent_c, sigma, v)

    Bx0 = _forward(problem.forward_b, x0)
    seed = PrimalDualState(x=x0, x_prev=x0, x_prev2=x0, y=y0,
                           Bx=Bx0, Bx_prev=Bx0, Bx_prev2=Bx0,
                           Kx=np.asarray(K.apply(x0), dtype=float))
    tau = float(cfg.tau)

    def step(state):
        new = epdtr_step(state, cfg, problem.resolvent_a, problem.forward_b,
                         K, resolvent_c_inv)
        # np.hypot, not math.hypot: the two differ in the last bit.
        err = float(np.hypot(_norm(new.x - state.x), _norm(new.y - state.y)))
        return new, err, tau

    state, trace = _drive(step, seed, stop, "epdtr_solve")
    x, y = state.x, state.y
    fresh_Bx = _forward(problem.forward_b, x)
    px = np.asarray(_resolver(problem.resolvent_a)(
        x - cfg.tau * (fresh_Bx + K.apply_adjoint(y)), cfg.tau), dtype=float)
    py = resolvent_c_inv(y + cfg.sigma * np.asarray(K.apply(x), dtype=float),
                         cfg.sigma)
    trace.primal_residual = float(np.linalg.norm(x - px))
    trace.dual_residual = float(np.linalg.norm(y - py))
    return x, y, trace


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


def region_grid(b, L, norm_k, n=200, tau_max=1.0, sigma_max=1.0):
    """Admissibility slack over an n-by-n grid of positive step pairs.

    Returns (tau_values, sigma_values, slack) with
    slack[i, j] = 1 - 2*tau_i*(1+|b|)*L - tau_i*sigma_j*norm_k**2.
    """
    tau_values = np.linspace(0.0, tau_max, n + 1)[1:]
    sigma_values = np.linspace(0.0, sigma_max, n + 1)[1:]
    tt = tau_values[:, None]
    ss = sigma_values[None, :]
    slack = 1.0 - 2.0 * tt * (1.0 + abs(b)) * L - tt * ss * norm_k ** 2
    return tau_values, sigma_values, slack
