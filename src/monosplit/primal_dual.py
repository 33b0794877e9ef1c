"""Primal-dual twice-reflected splitting for 0 in (A + B + K* C K)(x).

The solver interleaves a resolvent step on A (with the multi-step
reflected combination of B values) and a resolvent step on C^{-1} fed by
reflected K images, with the reflection weight b generalizing the
two-term scheme recovered at b = 0.  The primal step's combination is
splitting's reflected kernel (``_reflected_target``) at step tau and
delta = b, the one the splitting solvers run, minus tau*K*y.
Admissibility of the step pair is 2*tau*(1+|b|)*L + tau*sigma*||K||^2
< 1.

The same iteration is a multi-step reflected splitting on the product
space in the metric

    M = [[tau^{-1} I, -K*], [-K, sigma^{-1} I]],

with coupling G = [[A, K*], [-K, C^{-1}]] and forward part
F(z) = (B x, 0).  The tests' ``oracles`` module runs that product-space
recursion with dense solves on linear instances (``gfrb_in_metric``,
with ``metric_matrix`` and ``coupling_matrix``); it is the reference
the update formulas are validated against.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .operators import power_norm
from .splitting import (StepSizeWarning, _drive, _forward, _norm,
                        _reflected_target)
from .stepsize import reflection_scale


@dataclass
class EPDTRConfig:
    """Step pair and reflection weight for the primal-dual solver.

    Set both steps or neither: ``step_pair`` fills an unset pair from
    ``default_stepsizes`` at b and the problem's L and ||K||.  A config
    run always leaves both None, so an explicit pair is a library call.
    """

    tau: float = None
    sigma: float = None
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


def _slack(tau, sigma, b, L, norm_k):
    """1 - tau*reflection_scale(b)*L - tau*sigma*norm_k**2, on arrays too;
    check_stepsizes and region_grid share this grouping bit for bit."""
    return 1.0 - tau * reflection_scale(b) * L - tau * sigma * norm_k ** 2


def _check_steps(tau, sigma):
    """Raise ValueError naming a step that is not positive and finite."""
    for name, step in (("tau", tau), ("sigma", sigma)):
        if not (math.isfinite(step) and step > 0.0):
            raise ValueError(f"step {name} must be positive and finite, "
                             f"got {step!r}")


def check_stepsizes(tau, sigma, b, L, norm_k):
    """Admissibility test; returns (admissible, slack).

    slack is ``_slack``'s; admissible means slack > 0.  A step that is
    not positive and finite raises ValueError naming it.
    """
    _check_steps(tau, sigma)
    slack = float(_slack(tau, sigma, b, L, norm_k))
    return slack > 0.0, slack


def default_stepsizes(b, L, norm_k):
    """Step pair spending 95% of the admissibility bound.

    Splits that budget evenly between the forward term and the coupling
    term; degenerate problems (L = 0 or norm_k = 0) spend it all on the
    surviving term.
    """
    budget = 0.95
    scale = reflection_scale(b) * L
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


def step_pair(problem, cfg):
    """The step pair a solve of ``problem`` runs, and its slack.

    Returns (cfg, slack): cfg with an unset pair filled by
    ``default_stepsizes`` at cfg.b, and check_stepsizes' slack.  L is
    the forward operator's lipschitz_hint; ||K|| is the map's norm_hint,
    else a 1%-inflated power-iteration estimate stored as that hint, so
    each map is estimated once.  Both uses of ||K|| need L: without a
    hint the slack is None, no power iteration runs, and an unset pair
    raises ValueError, as does, with or without L, a step that is not
    positive and finite; before any of that, so do a cfg.b that the GFRB
    delta rule ``stepsize.reflection_scale`` rejects and a pair with one
    step set.
    """
    reflection_scale(cfg.b)
    unset = [name for name in ("tau", "sigma") if getattr(cfg, name) is None]
    if len(unset) == 1:
        raise ValueError(f"step {unset[0]} is unset; set both or neither")
    L = getattr(problem.forward_b, "lipschitz_hint", None)
    if L is None:
        if unset:
            raise ValueError("default step sizes need a lipschitz_hint on "
                             "the forward operator; pass both steps in "
                             "the EPDTRConfig")
        _check_steps(cfg.tau, cfg.sigma)
        return cfg, None
    K = problem.linmap_k
    if K.norm_hint is None:
        K.norm_hint = 1.01 * power_norm(K)
    if unset:
        tau, sigma = default_stepsizes(cfg.b, L, K.norm_hint)
        cfg = replace(cfg, tau=tau, sigma=sigma)
    return cfg, check_stepsizes(cfg.tau, cfg.sigma, cfg.b, L, K.norm_hint)[1]


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

    Primal: resolvent of A at splitting's reflected combination of the
    last three B values at step tau and weight b, minus tau*K*y_k:

        x_k - tau*Bx_k - (tau*(1+b))*D + (tau*b)*D_p - tau*K*y_k,

    with D = Bx_k - Bx_{k-1} and D_p = Bx_{k-1} - Bx_{k-2}.
    Dual: resolvent of sigma*C^{-1} at y_k + sigma*K(2 x_{k+1} - x_k).
    Exactly one evaluation each of B, K and K* per call.
    """
    tau, sigma, b = cfg.tau, cfg.sigma, cfg.b
    drive = _reflected_target(state.x, state.Bx, state.Bx - state.Bx_prev,
                              state.Bx_prev - state.Bx_prev2, tau, tau, tau, b)
    drive -= tau * linmap_k.apply_adjoint(state.y)
    x_new = np.asarray(resolvent_a(drive, tau), dtype=float)
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

    B x and K x there are the last state's, so a solve evaluates B
    len(trace) + 1 times.  With no config, cfg is ``EPDTRConfig()``;
    ``step_pair`` checks b and fills an unset pair (storing its ||K||
    estimate on the map), and a step pair it finds inadmissible warns
    and iterates anyway.  Histories are seeded x_{-1} = x_{-2} = x_0.
    Before any of that, an x0 or y0 whose shape is not (n,) or (m,) for
    K of shape (m, n) raises ValueError naming it.
    """
    K = problem.linmap_k
    m, n = K.shape
    x0 = np.zeros(n) if problem.x0 is None else \
        np.array(problem.x0, dtype=float)
    y0 = np.zeros(m) if problem.y0 is None else \
        np.array(problem.y0, dtype=float)
    for name, seed, size in (("x0", x0, n), ("y0", y0, m)):
        if seed.shape != (size,):
            raise ValueError(f"{name} has shape {seed.shape}; K has shape "
                             f"{K.shape}, so it must have shape ({size},)")
    cfg, slack = step_pair(problem, cfg or EPDTRConfig())
    if slack is not None and slack <= 0.0:
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
    px = np.asarray(problem.resolvent_a(
        x - cfg.tau * (state.Bx + K.apply_adjoint(y)), cfg.tau), dtype=float)
    py = resolvent_c_inv(y + cfg.sigma * state.Kx, cfg.sigma)
    trace.primal_residual = float(np.linalg.norm(x - px))
    trace.dual_residual = float(np.linalg.norm(y - py))
    return x, y, trace


def region_grid(b, L, norm_k, n=200):
    """Admissibility slack over an n-by-n grid of step pairs in (0, 1].

    Returns (tau_values, sigma_values, slack) with
    slack[i, j] = ``_slack``(tau_i, sigma_j, b, L, norm_k).
    Raises ValueError naming the argument unless n >= 1, reflection_scale
    accepts b, L and norm_k are finite and nonnegative, and the slack's
    coefficients scale*L, norm_k*norm_k and their sum are finite too.
    """
    if not n >= 1:
        raise ValueError(f"region argument 'n' (--grid): must be at least 1, "
                         f"got {n!r}")
    try:
        scale = reflection_scale(b)
    except ValueError as exc:
        raise ValueError(f"region argument 'b' (--b): {exc}") from exc
    for name, flag, value in (("L", "--L", L), ("norm_k", "--normK", norm_k)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"region argument '{name}' ({flag}): must be "
                             f"nonnegative and finite, got {value!r}")
    # Past these the slack would be -inf, or norm_k ** 2 would raise.
    forward_term, coupling_term = scale * L, norm_k * norm_k
    if not math.isfinite(forward_term):
        raise ValueError(f"region argument 'L' (--L): must keep "
                         f"2*(1+|b|)*L finite, got {L!r}")
    if not math.isfinite(coupling_term):
        raise ValueError(f"region argument 'norm_k' (--normK): must keep "
                         f"norm_k*norm_k finite, got {norm_k!r}")
    if not math.isfinite(forward_term + coupling_term):
        raise ValueError(f"region arguments 'L' (--L) and 'norm_k' "
                         f"(--normK): must keep 2*(1+|b|)*L + norm_k*norm_k "
                         f"finite, got {L!r} and {norm_k!r}")
    steps = np.linspace(0.0, 1.0, n + 1)[1:]
    slack = _slack(steps[:, None], steps[None, :], b, L, norm_k)
    return steps, steps.copy(), slack
