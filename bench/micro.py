"""Microbenchmarks of public primitives, outside any solver loop.

The traced run times each primitive on instances made from the benchmark
seed, so the hot loops themselves carry no instrumentation beyond the
probes.  Every timing is the median of several batches, each batch long
enough for the clock's resolution not to matter.
"""

import contextlib
import io
import itertools
import statistics
import time

import numpy as np

from monosplit import (IterationTrace, StopRule, design_rate,
                       epdtr_step, make_affine_forward, make_lasso_forward,
                       make_stepsize_state, next_step, power_norm, rate_table,
                       resolvent_of_inverse, symmetric_affine_resolvent)
from monosplit import cli, rng
from monosplit.experiments import (gen_composite, gen_example1, gen_example2,
                                   gen_lasso, summary_header, summary_row)
from monosplit.primal_dual import (EPDTRConfig, PrimalDualState,
                                   default_stepsizes, region_grid)

import workloads
from tracing import Tracer


def per_call(fn, min_batch_s=0.01, batches=5):
    """Median seconds per call of ``fn`` over ``batches`` timed batches."""
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t
        if dt >= min_batch_s:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(batches - 1):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n)
    return statistics.median(samples)


def _next_step_call():
    state = make_stepsize_state(0.1, 0.1)
    # From the same step, alternate a large and a small operator
    # displacement so the shrink and the growth branch run equally often.
    args = ((1.0, 100.0), (1.0, 0.01))
    k = [0]

    def call():
        k[0] ^= 1
        state.lambda_curr = 0.1
        next_step(state, *args[k[0]])
    return call


def _epdtr_step_call(problem):
    K = problem.linmap_k
    m, n = K.shape
    tau, sigma = default_stepsizes(0.0, problem.forward_b.lipschitz_hint,
                                   1.01 * power_norm(K))
    cfg = EPDTRConfig(tau=tau, sigma=sigma, b=0.0)
    x0, y0 = np.zeros(n), np.zeros(m)
    Bx0 = np.asarray(problem.forward_b(x0), dtype=float)
    state = [PrimalDualState(x=x0, x_prev=x0, x_prev2=x0, y=y0, Bx=Bx0,
                             Bx_prev=Bx0, Bx_prev2=Bx0, Kx=K.apply(x0))]

    def c_inv(v, s):
        return resolvent_of_inverse(problem.resolvent_c, s, v)

    def call():
        state[0] = epdtr_step(state[0], cfg, problem.resolvent_a,
                              problem.forward_b, K, c_inv)
    return call


def primitives(ctx):
    """Per-layer timings of primitives that every workload reports."""
    p = ctx.profile
    seed = workloads.sub_seed(ctx.seed, 9, 0)
    m = p["example_m"]
    lm, ln, lk = p["lasso_shape"] or (256, 1024, 20)
    n_c, m_c = p["composite"]
    lasso = gen_lasso(lm, ln, lk, seed=seed)
    ex2 = gen_example2(m, seed)
    problem, _ = gen_composite(n_c, m_c, seed)
    trace = IterationTrace()
    gen = rng.substream(seed, 0)
    out = {
        "stepsize.next_step.us_per_call": 1e6 * per_call(_next_step_call()),
        "splitting.trace.append_us": 1e6 * per_call(
            lambda: trace.append(7, 1e-3, 0.1, 0.5)),
        "rng.standard_normal_s": per_call(
            lambda: rng.standard_normal(gen, lm * ln)),
        "experiments.generate_s.example1": per_call(
            lambda: gen_example1(m, seed)),
        "experiments.generate_s.example2": per_call(
            lambda: gen_example2(m, seed)),
        "experiments.generate_s.lasso": per_call(
            lambda: gen_lasso(lm, ln, lk, seed=seed)),
        "experiments.generate_s.composite": per_call(
            lambda: gen_composite(n_c, m_c, seed)),
        "operators.setup_s": (
            per_call(lambda: make_lasso_forward(lasso.data["A"],
                                                lasso.data["y"]))
            + per_call(lambda: make_affine_forward(ex2.data["M"],
                                                   ex2.data["b"]))
            + per_call(lambda: symmetric_affine_resolvent(
                ex2.data["E"], ex2.data["beta"]))),
        "rate_analysis.rate_table_s": per_call(rate_table),
        "rate_analysis.design_rate_s": per_call(lambda: design_rate(5.0)),
        "primal_dual.region_grid_s": per_call(
            lambda: region_grid(0.5, 1.0, 1.0, n=p["region_grid"])),
        "primal_dual.power_norm_s": per_call(
            lambda: power_norm(problem.linmap_k)),
        "primal_dual.epdtr_step.us_per_call": 1e6 * per_call(
            _epdtr_step_call(problem)),
    }
    return out


def composite_solve(ctx):
    """A probed epdtr solve for workloads that do not run one themselves."""
    n_c, m_c = ctx.profile["composite"]
    problem, _ = gen_composite(n_c, m_c, workloads.sub_seed(ctx.seed, 9, 1))
    solve, _, _ = workloads.solve_composite(
        problem, StopRule(tol=1e-6, max_iter=5000), Tracer(False),
        itertools.count())
    return solve


def cold_import(ctx, repeats=3):
    return statistics.median(workloads.cold_import_seconds(ctx.root)
                             for _ in range(repeats))


def warm_commands(ctx, repeats=3):
    """Median seconds of each CLI command run in-process, warm."""
    commands = workloads.CliWorkload(ctx).commands(ctx.work / "warm")
    out = {}
    for name, argv, _ in commands:
        samples = []
        for _ in range(repeats):
            with contextlib.redirect_stdout(io.StringIO()):
                t = time.perf_counter()
                code = cli.main(argv)
                samples.append(time.perf_counter() - t)
            if code != 0:
                raise RuntimeError(f"in-process {name} exited {code}")
        out[name] = statistics.median(samples)
    return out


def write_outputs(ctx, solves):
    """Write a pass's traces and summary as ``experiment`` would.

    Returns (to_csv seconds, all writing seconds, bytes written).
    """
    out = ctx.work / "outputs"
    out.mkdir(parents=True, exist_ok=True)
    to_csv = 0.0
    t0 = time.perf_counter()
    with open(out / "summary.csv", "w") as fh:
        fh.write(summary_header() + "\n")
        for s in solves:
            if s.solver != "epdtr":
                fh.write(summary_row(s.result) + "\n")
    for i, s in enumerate(solves):
        trace = s.result if s.solver == "epdtr" else s.result.trace
        t = time.perf_counter()
        trace.to_csv(out / f"{i}_{s.solver}_trace.csv")
        to_csv += time.perf_counter() - t
    total = time.perf_counter() - t0
    nbytes = sum(f.stat().st_size for f in out.iterdir())
    return to_csv, total, nbytes
