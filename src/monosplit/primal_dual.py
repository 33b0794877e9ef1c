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
from .stepsize import int_arg, real_arg, reflection_scale


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


def _budget(b, L, norm_k, heads=None):
    """(reflection_scale(b), L, norm_k ** 2) for finite reals L, norm_k
    >= 0 whose step budget terms 2(1+|b|)L and norm_k ** 2, and their
    sum, are finite; else ValueError naming b, L, norm_k or both, after
    a caller's head for that name in ``heads``."""
    heads = heads or {}
    scale = reflection_scale(b)
    L = real_arg(L, heads.get("L", "") + "L", ">= 0")
    norm_k = real_arg(norm_k, heads.get("norm_k", "") + "norm_k", ">= 0")
    try:
        coupling = norm_k ** 2
    except OverflowError:
        coupling = math.inf
    for names, term, rule, got in (
            ("L", scale * L, "2*(1+|b|)*L", f"{L!r}"),
            ("norm_k", coupling, "norm_k*norm_k", f"{norm_k!r}"),
            ("L and norm_k", scale * L + coupling,
             "2*(1+|b|)*L + norm_k*norm_k", f"{L!r} and {norm_k!r}")):
        if not math.isfinite(term):
            raise ValueError(f"{heads.get(names, names + ' ')}must keep "
                             f"{rule} finite, got {got}")
    return scale, L, coupling


def _slack(tau, sigma, scale, L, coupling):
    """1 - tau*scale*L - tau*sigma*coupling, on arrays too, for _budget's
    terms; check_stepsizes, step_pair and region_grid share this
    grouping bit for bit."""
    return 1.0 - tau * scale * L - tau * sigma * coupling


def _check_steps(tau, sigma):
    """(tau, sigma) as floats; ValueError naming a step that is not a
    finite real > 0."""
    return real_arg(tau, "tau", "> 0"), real_arg(sigma, "sigma", "> 0")


def check_stepsizes(tau, sigma, b, L, norm_k):
    """Admissibility test; returns (admissible, slack).

    slack is ``_slack``'s; admissible means slack > 0.  ValueError naming
    tau or sigma (a finite real > 0), or as ``_budget`` does.
    """
    tau, sigma = _check_steps(tau, sigma)
    slack = float(_slack(tau, sigma, *_budget(b, L, norm_k)))
    return slack > 0.0, slack


def default_stepsizes(b, L, norm_k):
    """Step pair spending 95% of the admissibility bound.

    Splits that budget evenly between the forward term and the coupling
    term; degenerate problems, where a term is 0 (L = 0, norm_k = 0 or a
    square that underflows), spend it all on the surviving term.
    ValueError as ``_budget`` raises it, or naming the terms' L, norm_k
    or both where the pair would not be finite reals > 0.
    """
    scale, L, coupling = _budget(b, L, norm_k)
    forward, budget = scale * L, 0.95
    if forward > 0.0 and coupling > 0.0:
        names, pair = "L and norm_k", ((budget / 2.0) / forward,
                                       forward / coupling)
    elif forward > 0.0:
        names, pair = "L", (budget / forward,) * 2
    elif coupling > 0.0:
        # coupling > 0 keeps norm_k above 1e-162, so the step is finite.
        return (float(np.sqrt(budget) / norm_k),) * 2
    else:
        return 1.0, 1.0
    if not all(0.0 < step < math.inf for step in pair):
        raise ValueError(f"{names} must give finite default steps > 0, "
                         f"got L={L!r} and norm_k={norm_k!r}")
    return pair


def step_pair(problem, cfg):
    """The step pair a solve of ``problem`` runs, and its slack.

    Returns (cfg, slack): cfg with an unset pair filled by
    ``default_stepsizes`` at cfg.b, and the pair's ``_slack``.  L is
    the forward operator's lipschitz_hint; ||K|| is the map's norm_hint,
    else a 1%-inflated power-iteration estimate stored as that hint, so
    each map is estimated once.  Both uses of ||K|| need L: without a
    hint the slack is None, no power iteration runs, and an unset pair
    raises ValueError.  First, ValueError names a cfg.b that the GFRB
    delta rule ``stepsize.reflection_scale`` rejects, a pair with one
    step set, a set step that ``_check_steps`` rejects, and then, before
    K is applied, an L that ``_budget`` rejects.
    """
    reflection_scale(cfg.b)
    unset = [name for name in ("tau", "sigma") if getattr(cfg, name) is None]
    if len(unset) == 1:
        raise ValueError(f"step {unset[0]} is unset; set both or neither")
    if not unset:
        tau, sigma = _check_steps(cfg.tau, cfg.sigma)
        cfg = replace(cfg, tau=tau, sigma=sigma)
    L = getattr(problem.forward_b, "lipschitz_hint", None)
    if L is None:
        if unset:
            raise ValueError("default step sizes need a lipschitz_hint on "
                             "the forward operator; pass both steps in "
                             "the EPDTRConfig")
        return cfg, None
    _budget(cfg.b, L, 0.0)
    K = problem.linmap_k
    if K.norm_hint is None:
        K.norm_hint = 1.01 * power_norm(K)
    if unset:
        tau, sigma = default_stepsizes(cfg.b, L, K.norm_hint)
        cfg = replace(cfg, tau=tau, sigma=sigma)
    terms = _budget(cfg.b, L, K.norm_hint)
    return cfg, float(_slack(cfg.tau, cfg.sigma, *terms))


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


# region_grid's head for each name of _budget's messages.
_REGION_HEADS = {
    "L": "region argument 'L' (--L): ",
    "norm_k": "region argument 'norm_k' (--normK): ",
    "L and norm_k": "region arguments 'L' (--L) and 'norm_k' (--normK): "}


def region_grid(b, L, norm_k, n=200):
    """Admissibility slack over an n-by-n grid of step pairs in (0, 1].

    Returns (tau_values, sigma_values, slack) with slack[i, j] the
    ``_slack`` of (tau_i, sigma_j) and ``_budget``'s terms.  ValueError
    naming the argument and its CLI flag unless n is an integer >= 1,
    reflection_scale accepts b and ``_budget`` accepts L and norm_k.
    """
    n = int_arg(n, "region argument 'n' (--grid): n", 1)
    try:
        reflection_scale(b)
    except ValueError as exc:
        raise ValueError(f"region argument 'b' (--b): {exc}") from exc
    terms = _budget(b, L, norm_k, _REGION_HEADS)
    steps = np.linspace(0.0, 1.0, n + 1)[1:]
    slack = _slack(steps[:, None], steps[None, :], *terms)
    return steps, steps.copy(), slack
