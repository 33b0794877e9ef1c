"""Reproducible problem generators and benchmark drivers.

Each generator draws every array from its own PCG64 substream keyed by
(seed, array index), so a given seed draws the same uniforms on any
platform and adding arrays later cannot shift existing draws.  Normal
draws (see rng) are bitwise only for one numpy build and CPU target.
Stream allocation is part of each generator's contract and is listed in
its docstring.
"""

import contextlib
import json
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng
from .operators import (ForwardOperator, LinearMap, diagonal_resolvent,
                        l1_resolvent, make_affine_forward, make_lasso_forward,
                        soft_threshold, zero_resolvent)
from .primal_dual import CompositeProblem, EPDTRConfig, epdtr_solve
from .splitting import (DivergenceError, StopRule, fb, fbf, frb,
                        gfrb_adaptive, gfrb_fixed, rfb)
from .stepsize import reflection_scale

# Fixed-step solvers as run from a config: every seed iterate is x0, and
# each fills its own default step from delta and B's lipschitz_hint.
_FIXED_STEP_RUNS = {
    "gfrb_fixed": lambda A, B, x0, delta, stop:
        gfrb_fixed(A, B, x0, x0, x0, None, delta, stop),
    "frb": lambda A, B, x0, delta, stop: frb(A, B, x0, x0, None, stop),
    "fbf": lambda A, B, x0, delta, stop: fbf(A, B, x0, None, stop),
    "rfb": lambda A, B, x0, delta, stop: rfb(A, B, x0, x0, None, stop),
    "fb": lambda A, B, x0, delta, stop: fb(A, B, x0, None, stop),
}
# epdtr solves the composite problem and no other; the rest never solve it.
SOLVERS = ("gfrb_adaptive",) + tuple(_FIXED_STEP_RUNS) + ("epdtr",)
# The solvers that read delta, the keys a per-solver delta object takes;
# epdtr reads it as its reflection weight b.
_DELTA_READERS = ("gfrb_adaptive", "gfrb_fixed", "epdtr")
PROBLEMS = ("example1", "example2", "lasso", "composite")
# Instance fields, and those each problem's generator reads.
_INSTANCE_FIELDS = ("n", "k", "noise_sigma", "reg_lambda")
_READS = {"example1": (), "example2": (), "lasso": _INSTANCE_FIELDS,
          "composite": ("n",)}


@dataclass
class InclusionInstance:
    """A generated problem 0 in (A + B)(x) with its start point and an
    optional known solution.

    The operators, the start x0, x_star and the solvers' iterates share
    the instance's coordinates u.  An orthogonal ``basis`` (None means
    the identity) maps them to the problem's own coordinates as
    x = basis @ u.
    """

    name: str
    resolvent_a: object
    forward_b: object
    dim: int
    seed: int
    x0: np.ndarray
    x_star: np.ndarray = None
    data: dict = field(default_factory=dict)
    basis: np.ndarray = None


def gen_example1(m, seed=0):
    """Sparse shift problem: A = l1 subdifferential, B(x) = 2x + b.

    Streams: 0 -> b (m standard normals).  The solution is known in
    closed form, x*_i = -soft(b_i, 1) / 2, and is attached as x_star.
    The start is x0 = ones.
    """
    b = rng.standard_normal(rng.substream(seed, 0), m)
    forward = ForwardOperator(lambda x: 2.0 * x + b, lipschitz_hint=2.0)
    x_star = -soft_threshold(b, 1.0) / 2.0
    return InclusionInstance(name="example1", resolvent_a=l1_resolvent(),
                             forward_b=forward, dim=m, seed=seed,
                             x0=np.ones(m), x_star=x_star, data={"b": b})


def gen_example2(m, seed=10):
    """Dense monotone pair: linear A = E + beta*I, affine skewed B.

    Streams: 0 -> R, 1 -> Rbar, 2 -> G (each m*m standard normals,
    row-major), 3 -> b.  E = (R + R^T)/2 with beta = max |eig(E)| makes
    A maximally monotone; B(x) = M x + b with
    M = G^T + (Rbar - Rbar^T)/2 + shift*I and
    shift = max(0, -lambda_min(sym(G))) + 0.1, so sym(M) is positive
    definite and B is monotone with L = ||M||_2.  Both operators are
    single-valued, so the solution x* solves a linear system.

    The instance is posed in the eigenbasis E = P diag(eigs) P^T, in
    u = P^T x, where A's resolvent is the elementwise scaling
    ``diagonal_resolvent(eigs + beta)`` and B(u) = (P^T M P) u + P^T b
    is one product: resolvent_a, forward_b and x_star = P^T x* are in
    u, and basis = P.  The start is ones in x, attached in u as
    x0 = P^T @ ones.  P is orthogonal, so ||B||, every displacement and
    every step-controller input equal their x-coordinate values up to
    rounding.  data keeps E, M, b and beta in x-coordinates.
    """
    R = rng.standard_normal(rng.substream(seed, 0), (m, m))
    Rbar = rng.standard_normal(rng.substream(seed, 1), (m, m))
    G = rng.standard_normal(rng.substream(seed, 2), (m, m))
    b = rng.standard_normal(rng.substream(seed, 3), m)
    E = 0.5 * (R + R.T)
    S = 0.5 * (Rbar - Rbar.T)
    sym_G = 0.5 * (G + G.T)
    shift = max(0.0, -float(np.min(np.linalg.eigvalsh(sym_G)))) + 0.1
    M = G.T + S + shift * np.eye(m)
    # One eigh of E gives both beta and the basis u = P^T x.
    eigs, P = np.linalg.eigh(E)
    beta = float(np.max(np.abs(eigs)))
    x_star = np.linalg.solve(E + beta * np.eye(m) + M, -b)
    P_t = P.T
    return InclusionInstance(name="example2",
                             resolvent_a=diagonal_resolvent(eigs + beta),
                             forward_b=make_affine_forward(P_t @ M @ P,
                                                           P_t @ b),
                             dim=m, seed=seed, x0=P_t @ np.ones(m),
                             x_star=P_t @ x_star,
                             data={"E": E, "M": M, "b": b, "beta": beta},
                             basis=P)


def gen_lasso(m=256, n=1024, k=20, noise_sigma=0.01, reg_lambda=0.01,
              seed=0):
    """Sparse recovery instance for the l1-regularized least squares.

    Streams: 0 -> design matrix entries (m*n normals, scaled 1/sqrt(m)),
    1 -> candidate signal values (n normals), 2 -> support scores
    (n uniforms; the k smallest mark the support), 3 -> observation
    noise (m normals, scaled noise_sigma).  The true signal keeps the
    stream-1 normals on the support and is attached in
    data['x_true']; x_star stays None because the minimizer has no
    closed form.  The start is x0 = zeros.  ValueError naming k unless
    0 < k <= n.
    """
    if not 0 < k <= n:
        raise ValueError(f"k must satisfy 0 < k <= n = {n}, got {k!r}")
    A = rng.standard_normal(rng.substream(seed, 0), (m, n))
    A /= np.sqrt(m)
    values = rng.standard_normal(rng.substream(seed, 1), n)
    scores = rng.substream(seed, 2).random(n)
    support = np.argsort(scores)[:k]
    x_true = np.zeros(n)
    x_true[support] = values[support]
    noise = noise_sigma * rng.standard_normal(rng.substream(seed, 3), m)
    y = A @ x_true + noise
    forward = make_lasso_forward(A, y)
    return InclusionInstance(name="lasso", resolvent_a=l1_resolvent(reg_lambda),
                             forward_b=forward, dim=n, seed=seed,
                             x0=np.zeros(n),
                             data={"A": A, "y": y, "x_true": x_true,
                                   "support": support,
                                   "reg_lambda": reg_lambda})


def gen_composite(n=40, m_rows=30, seed=0):
    """Composite instance min 0.5*||x - p||^2 + ||K x||_1 as a three-part
    inclusion 0 in (A + B + K* C K)(x).

    Streams: 0 -> coupling matrix entries (m_rows*n normals, scaled
    1/sqrt(m_rows)), 1 -> anchor p (n normals).  A = 0 (identity
    resolvent), B(x) = x - p with L = 1, C is the l1 subdifferential
    acting on K x.  B is strongly monotone, so the solution is unique:
    x* = p - K^T y* with y* the box-constrained dual minimizer.  The
    problem starts from x0 = zeros, y0 = zeros.
    """
    K = rng.standard_normal(rng.substream(seed, 0), (m_rows, n)) \
        / np.sqrt(m_rows)
    p = rng.standard_normal(rng.substream(seed, 1), n)
    forward = ForwardOperator(lambda x: x - p, lipschitz_hint=1.0)
    problem = CompositeProblem(resolvent_a=zero_resolvent(),
                               forward_b=forward,
                               linmap_k=LinearMap.from_matrix(K),
                               resolvent_c=l1_resolvent(),
                               x0=np.zeros(n), y0=np.zeros(m_rows))
    return problem, {"K": K, "p": p}


def snr(x_star, x):
    """Recovery quality 20*log10(||x*|| / ||x - x*||) in dB.

    Exact recovery returns inf; a zero reference signal is a domain
    error.
    """
    ref = float(np.linalg.norm(x_star))
    if ref == 0.0:
        raise ValueError("snr undefined for a zero reference signal")
    gap = float(np.linalg.norm(np.asarray(x) - np.asarray(x_star)))
    if gap == 0.0:
        return np.inf
    return 20.0 * np.log10(ref / gap)


@dataclass
class ExperimentConfig:
    """Flat, JSON-mappable description of one benchmark run.

    ``delta`` is one number for every solver that reads it,
    gfrb_adaptive, gfrb_fixed and epdtr (as its reflection weight b), or
    an object keyed by solver name that gives each of them that is
    listed in ``solvers`` its own.  The start point is no
    field: each problem's generator attaches its own as
    InclusionInstance.x0.
    """

    problem: str = "example1"
    solvers: tuple = ("gfrb_adaptive", "gfrb_fixed", "frb", "fbf", "rfb")
    m: int = 200
    n: int = 1024
    k: int = 20
    seed: int = 0
    delta: float | dict = 0.1
    lambda0: float = 0.1
    tol: float = 1e-6
    max_iter: int = 5000
    noise_sigma: float = 0.01
    reg_lambda: float = 0.01


def _accepted_types(f):
    # Numeric fields take numpy scalars too (_check rejects bool), and
    # tuple fields take lists.
    return {int: (numbers.Integral,), float: (numbers.Real,),
            float | dict: (numbers.Real, dict),
            tuple: (list, tuple)}.get(f.type, (f.type,))


_CONFIG_TYPES = {f.name: _accepted_types(f) for f in fields(ExperimentConfig)}


def config_from_dict(d):
    """Strict loader: a non-object root, unknown keys, ``_check`` failures
    and fields the problem or its solvers never read (the one rule that
    needs the file's keys) raise ValueError naming the offending field."""
    if not isinstance(d, dict):
        raise ValueError("config root must be a JSON object")
    for key in d:
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config field '{key}': unknown field")
    cfg = ExperimentConfig(**d)
    _check(cfg)
    cfg.solvers = tuple(cfg.solvers)
    for key in d:
        if cfg.problem == "composite" and key == "lambda0":
            raise ValueError(f"config field '{key}': epdtr, the solver of "
                             "'composite', does not read it")
        if key in _INSTANCE_FIELDS and key not in _READS[cfg.problem]:
            raise ValueError(f"config field '{key}': {cfg.problem!r} does "
                             "not read it")
    return cfg


def _named_deltas(cfg):
    """{field name: value} of cfg's deltas: {'delta': cfg.delta}, or one
    'delta.<solver>' per entry of a per-solver object, which must name
    exactly the listed solvers that read delta, each with a number."""
    if not isinstance(cfg.delta, dict):
        return {"delta": cfg.delta}
    named = {}
    for solver, value in cfg.delta.items():
        name = f"delta.{solver}"
        if solver not in _DELTA_READERS:
            raise ValueError(f"config field '{name}': {solver!r} does not "
                             f"read delta; only {_DELTA_READERS} do")
        if solver not in cfg.solvers:
            raise ValueError(f"config field '{name}': {solver!r} is not "
                             "listed in 'solvers'")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"config field '{name}': bad type "
                             f"{type(value).__name__}")
        named[name] = value
    for solver in cfg.solvers:
        if solver in _DELTA_READERS and solver not in cfg.delta:
            raise ValueError(f"config field 'delta.{solver}': missing; each "
                             "listed solver that reads delta needs an entry")
    return named


def _check(cfg):
    """The one definition of a valid config, loaded or hand-built: raise
    ValueError naming the first field of cfg with a bad type or value.
    A delta must pass stepsize.reflection_scale, the one rule every
    solver that reads it applies; each entry of a per-solver delta is
    checked as a scalar delta is, named 'delta.<solver>'."""
    for key, expected in _CONFIG_TYPES.items():
        value = getattr(cfg, key)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(f"config field '{key}': bad type "
                             f"{type(value).__name__}")
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"config field 'problem': must be one of {PROBLEMS}")
    for s in cfg.solvers:
        if s not in SOLVERS:
            raise ValueError(f"config field 'solvers': unknown solver {s!r}")
        if cfg.solvers.count(s) > 1:
            raise ValueError(f"config field 'solvers': {s!r} is listed twice")
        if (s == "epdtr") != (cfg.problem == "composite"):
            raise ValueError(f"config field 'solvers': {s!r} does not solve "
                             f"{cfg.problem!r}; 'epdtr' solves 'composite' "
                             "and no other problem")
    if not cfg.solvers:
        raise ValueError("config field 'solvers': must not be empty")
    for key in ("m", "n", "k", "max_iter"):
        if getattr(cfg, key) <= 0:
            raise ValueError(f"config field '{key}': must be positive")
    if cfg.seed < 0:
        raise ValueError("config field 'seed': must be nonnegative")
    if cfg.problem == "lasso" and cfg.k > cfg.n:
        raise ValueError(f"config field 'k': the lasso support size k={cfg.k}"
                         f" exceeds the signal length n={cfg.n}")
    # abs(value) <= float max: finite as a float, which NaN and an integer
    # too large for one (on which math.isfinite raises) are not.
    for key in ("lambda0", "tol"):
        value = getattr(cfg, key)
        if not (abs(value) <= sys.float_info.max and value > 0):
            raise ValueError(f"config field '{key}': must be positive and "
                             "finite")
    for name, delta in _named_deltas(cfg).items():
        try:
            reflection_scale(delta)
        except ValueError as exc:
            raise ValueError(f"config field '{name}': {exc}") from exc
    for key in ("noise_sigma", "reg_lambda"):
        value = getattr(cfg, key)
        if not (abs(value) <= sys.float_info.max and value >= 0):
            raise ValueError(f"config field '{key}': must be nonnegative and "
                             "finite")


def load_config(path, **overrides):
    """Read and check the JSON config file at ``path``.

    Each keyword override that is not None replaces the file's field
    before the check, so it is checked, and named, like the file's own.
    An unreadable file, invalid JSON and every config_from_dict failure
    raise ValueError naming the file or the field.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path!r}: invalid JSON ({exc})") \
            from exc
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return config_from_dict(raw)


def resolve(cfg):
    """Check cfg (``_check``, whose ValueError names the offending field)
    and build its instance once through ``generate``."""
    _check(cfg)
    return generate(cfg)


def generate(cfg):
    """Instance for cfg.problem with the configured sizes and seed."""
    if cfg.problem == "example1":
        return gen_example1(cfg.m, cfg.seed)
    if cfg.problem == "example2":
        return gen_example2(cfg.m, cfg.seed)
    if cfg.problem == "lasso":
        return gen_lasso(cfg.m, cfg.n, cfg.k, cfg.noise_sigma,
                         cfg.reg_lambda, cfg.seed)
    if cfg.problem == "composite":
        # n unknowns, m rows of K; the CompositeProblem rides in data.
        problem, data = gen_composite(cfg.n, cfg.m, cfg.seed)
        return InclusionInstance(
            name="composite", resolvent_a=problem.resolvent_a,
            forward_b=problem.forward_b, dim=cfg.n, seed=cfg.seed,
            x0=problem.x0, data=dict(data, problem=problem))
    raise ValueError(f"unknown problem {cfg.problem!r}")


@dataclass
class RunResult:
    """Outcome of one (problem, solver) run.  A diverged run has
    diverged=True, converged=False, x=None, its partial trace and, as
    known_answer, the divergence message."""

    problem: str
    solver: str
    m: int
    n: int
    seed: int
    iterations: int
    final_err: float
    elapsed_s: float
    converged: bool
    x: np.ndarray
    trace: object
    known_answer: str = None
    diverged: bool = False
    # The delta the solver ran at; None for a solver that reads none.
    delta: float = None


def _solver_delta(cfg, solver):
    """The delta ``solver`` runs at under cfg, None if it reads none."""
    if solver not in _DELTA_READERS:
        return None
    return cfg.delta[solver] if isinstance(cfg.delta, dict) else cfg.delta


def _run_result(instance, solver, cfg, x, trace, **extra):
    """RunResult of ``solver``'s run on ``instance``, read off its trace."""
    iterations = len(trace)
    return RunResult(problem=instance.name, solver=solver, m=cfg.m,
                     n=instance.dim, seed=cfg.seed, iterations=iterations,
                     final_err=trace.errs[-1] if iterations else 0.0,
                     elapsed_s=trace.elapsed[-1] if iterations else 0.0,
                     converged=trace.converged, x=x, trace=trace,
                     delta=_solver_delta(cfg, solver), **extra)


def run_solver(instance, solver, cfg):
    """Run one solver from the instance's start and wrap the outcome.

    Every solver, epdtr included, starts from instance.x0, and every
    history seed of a fixed-step solver is that point, and each
    fixed-step solver runs its own default step.  gfrb_adaptive,
    gfrb_fixed and epdtr run at their ``_solver_delta``, epdtr as its b,
    from which epdtr_solve derives its step pair; gfrb_adaptive starts
    from cfg.lambda0, x0 and its probe seed (x_minus1=None).
    RunResult.x is in the instance's coordinates, as x0 and x_star are.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    stop = StopRule(tol=cfg.tol, max_iter=cfg.max_iter)
    x0 = instance.x0
    A, B = instance.resolvent_a, instance.forward_b
    delta = _solver_delta(cfg, solver)
    if solver == "gfrb_adaptive":
        x, trace = gfrb_adaptive(A, B, x0, None, delta, cfg.lambda0, stop)
    elif solver == "epdtr":
        problem = replace(instance.data["problem"], resolvent_a=A,
                          forward_b=B, x0=x0)
        x, _y, trace = epdtr_solve(problem, EPDTRConfig(b=delta), stop)
    else:
        x, trace = _FIXED_STEP_RUNS[solver](A, B, x0, delta, stop)
    return _run_result(instance, solver, cfg, x, trace)


def summary_header():
    return "problem,solver,m,n,seed,iters,final_err,elapsed_s,delta"


def summary_row(result):
    # delta is last and empty for a solver that reads none.
    delta = "" if result.delta is None else f"{result.delta:.17g}"
    return (f"{result.problem},{result.solver},{result.m},{result.n},"
            f"{result.seed},{result.iterations},{result.final_err:.17g},"
            f"{result.elapsed_s:.17g},{delta}")


def known_answer(instance, result):
    """How far result.x is from what the instance knows of its solution:
    the distance to x_star (example1, example2), the SNR against the
    planted data['x_true'] (lasso), else the terminal fixed-point
    residuals epdtr_solve left on the trace (composite)."""
    if instance.x_star is not None:
        gap = np.linalg.norm(result.x - instance.x_star)
        return f"distance to oracle {gap:.3e}"
    if instance.name == "composite":
        trace = result.trace
        return (f"terminal residuals primal {trace.primal_residual:.3e}, "
                f"dual {trace.dual_residual:.3e}")
    return f"terminal SNR {snr(instance.data['x_true'], result.x):.2f} dB"


def trace_path(out_dir, solver):
    """Path of ``solver``'s trace CSV in ``out_dir``."""
    return os.path.join(out_dir, f"{solver}_trace.csv")


def run_benchmark(cfg, out_dir=None):
    """Run every configured solver on the instance ``resolve`` builds.

    A config resolve rejects raises before out_dir is created.  A
    diverged solver does not stop the rest: its DivergenceError becomes
    its RunResult.  Returns one RunResult per configured solver, each
    with its known_answer line; with out_dir set, writes summary.csv
    plus every solver's <solver>_trace.csv, after first removing the
    <solver>_trace.csv of every other solver, so no trace from an
    earlier run is left beside a summary that does not list it.
    """
    instance = resolve(cfg)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for solver in set(SOLVERS).difference(cfg.solvers):
            with contextlib.suppress(FileNotFoundError):
                os.remove(trace_path(out_dir, solver))
    results = []
    for solver in cfg.solvers:
        try:
            res = run_solver(instance, solver, cfg)
        except DivergenceError as exc:
            res = _run_result(instance, solver, cfg, None, exc.trace,
                              known_answer=str(exc), diverged=True)
        else:
            res.known_answer = known_answer(instance, res)
        results.append(res)
    if out_dir is not None:
        with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
            fh.write(summary_header() + "\n")
            for res in results:
                fh.write(summary_row(res) + "\n")
        for res in results:
            res.trace.to_csv(trace_path(out_dir, res.solver))
    return results
