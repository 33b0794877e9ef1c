"""Benchmark of the monosplit package: three workloads, one command.

    python3 bench/run.py --workload {lasso,small,cli} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a checkout and measures the package under
``src/`` there.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Two more modes:

    python3 bench/run.py --ledger --seed 0   # deterministic count ledger
    python3 bench/run.py --selftest          # quick tiny-size self-test

See bench/README.md for the workloads, metrics and thresholds.
"""

import argparse
import ctypes
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
from statistics import median
import sys
import time

from metrics import (CLI_COMMANDS, END_TO_END, PER_LAYER,
                     SPLITTING_SOLVERS)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One BLAS thread: every workload is a single closed-loop caller, and on a
# small shared machine a second BLAS thread adds more noise than speed at
# these sizes.  Set before numpy is imported, and inherited by children.
BLAS_THREADS = 1

# Spans of library work inside a CLI command; the rest of the command is
# output formatting and writing, plus argument and config parsing.
CLI_COMPUTE_SPANS = frozenset(
    ["experiments.generate", "rate_analysis.rate_table",
     "rate_analysis.design_rate", "primal_dual.region_grid"]
    + [f"splitting.{s}" for s in SPLITTING_SOLVERS])

# Set-up samples taken before the first pass; every pass then adds one
# more (its own instance build, or on cli a cold import before it).  A cold
# import is short and noisy, so cli takes more of them up front.
SETUP_REPEATS = {"lasso": 5, "small": 5, "cli": 11}


class SetupError(Exception):
    """The checkout lacks the package or the configs the benchmark needs."""


def prepare():
    """Pin BLAS threads and make ``src/`` the only monosplit on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for needed in ("src/monosplit/__init__.py", "configs/lasso.json",
                   "configs/example1.json", "configs/example2.json"):
        if not (ROOT / needed).is_file():
            raise SetupError(f"{needed} not found under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import monosplit
    if pathlib.Path(monosplit.__file__).resolve().parent != \
            ROOT / "src" / "monosplit":
        raise SetupError(f"imported monosplit from {monosplit.__file__}, "
                         f"not from {ROOT / 'src'}")


def _median_of(values):
    """Median that keeps counts whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


# ---------------------------------------------------------------- metrics

def best_times(passes):
    """Shortest time of each timed step of a pass, over the run's passes.

    A step is one solve (by its position in the pass) and, on ``cli``, one
    command; on the in-process workloads the rest of a pass (instance
    builds, probes, bookkeeping) is one more step.  Host speed on a small
    shared machine swings between a fast and a slow state, up to 2x, many
    times a minute, so a median over passes flips between the two; a
    step's shortest time is its cost in the fast state, which recurs in
    every run.  Returns (seconds of each solve of the first pass, wall).
    """
    keys = [(s.problem, s.solver) for s in passes[0].solves]
    same = [p for p in passes
            if [(s.problem, s.solver) for s in p.solves] == keys]
    solves = [min(p.solves[i].seconds for p in same)
              for i in range(len(keys))]
    if passes[0].commands is not None:
        wall = sum(min(p.commands[c] for p in passes)
                   for c in passes[0].commands)
    else:
        wall = sum(solves) + min(p.wall - sum(s.seconds for s in p.solves)
                                 for p in same)
    return solves, wall


def _solve_metrics(solves, seconds):
    """Solve-time metrics from per-solve ``seconds``."""
    solve_s = sum(seconds)
    out = {"solve_s": solve_s,
           "us_per_iter": 1e6 * solve_s / max(1, sum(s.iterations
                                                     for s in solves))}
    for solver in SPLITTING_SOLVERS:
        out[f"solve_s.{solver}"] = sum(t for s, t in zip(solves, seconds)
                                       if s.solver == solver)
    epdtr = [t for s, t in zip(solves, seconds) if s.solver == "epdtr"]
    out["solve_s.epdtr"] = sum(epdtr) if epdtr else None
    return out


def ledger(p):
    """Deterministic counts of a pass by problem and solver."""
    out = {}
    for s in p.solves:
        e = out.setdefault(s.problem, {}).setdefault(s.solver, {
            "instances": 0, "iterations": 0, "b_evals": 0,
            "resolvent_calls": 0})
        e["instances"] += 1
        e["iterations"] += s.iterations
        e["b_evals"] += s.b_evals
        e["resolvent_calls"] += s.resolvent_calls
        if s.linmap_calls:
            e["linmap_calls"] = e.get("linmap_calls", 0) + s.linmap_calls
        if s.lambdas is not None:
            shrinks, grows = controller_branches(s.lambda0, s.lambdas)
            e["shrinks"] = e.get("shrinks", 0) + shrinks
            e["grows"] = e.get("grows", 0) + grows
    return out


def controller_branches(lambda0, lambdas):
    """(shrinks, grows) of the adaptive controller, read off its steps.

    A shrink sets the step to c1*dx/dB < (c1/c2)*lambda_prev, below the
    previous step; a growth multiplies it by 1 + gamma_k >= 1.
    """
    shrinks = 0
    prev = lambda0
    for lam in lambdas:
        shrinks += lam < prev
        prev = lam
    return shrinks, len(lambdas) - shrinks


def end_to_end_metrics(passes, setup_samples):
    first = passes[0].solves
    seconds, wall = best_times(passes)
    values = _solve_metrics(first, seconds)
    values["wall_s"] = wall
    values["setup_s"] = median(setup_samples)
    values["iterations"] = sum(s.iterations for s in first)
    values["b_evals"] = sum(s.b_evals for s in first)
    values["residual_max"] = max((s.residual for s in first), default=0.0)
    extra = {"solve_s.epdtr": values.pop("solve_s.epdtr")}
    return values, extra


def layer_metrics(ctx, workload, traced, untraced, setup_samples, micro):
    """Per-layer values from the traced passes and the microbenchmarks."""
    rows = [_layer_pass(ctx, workload, p, micro) for p in traced]
    values = {name: _median_of([r[name] for r in rows]) for name in rows[0]}
    values.update(micro.primitives(ctx))
    if workload.name == "cli":
        for c in CLI_COMMANDS:
            values[f"cli.command_s.{c}"] = median(p.commands[c]
                                                  for p in untraced)
        values["cli.import_s"] = median(setup_samples)
    else:
        warm = micro.warm_commands(ctx)
        for c in CLI_COMMANDS:
            values[f"cli.command_s.{c}"] = warm[c]
        values["cli.import_s"] = micro.cold_import(ctx)
    values["tracing_overhead_s"] = (best_times(traced)[1]
                                    - best_times(untraced)[1])
    return values


def _by_name(totals):
    """{name: [count, seconds]} from per-(name, solve) span totals."""
    out = {}
    for (name, _), (count, seconds) in totals.items():
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += count
        acc[1] += seconds
    return out


def _layer_pass(ctx, workload, p, micro):
    tracer = p.tracer
    totals = tracer.totals()
    by_name = _by_name(totals)
    fwd = by_name.get("operators.forward", [0, 0.0])
    res = by_name.get("operators.resolvent", [0, 0.0])
    out = {
        "operators.forward.calls": fwd[0],
        "operators.forward.time_s": fwd[1],
        "operators.forward.us_per_call": 1e6 * fwd[1] / max(1, fwd[0]),
        "operators.forward.flops_computed": sum(s.forward_flops
                                                for s in p.solves),
        "operators.forward.bytes_computed": sum(s.forward_bytes
                                                for s in p.solves),
        "operators.resolvent.calls": res[0],
        "operators.resolvent.time_s": res[1],
        "operators.resolvent.us_per_call": 1e6 * res[1] / max(1, res[0]),
    }
    self_s = {s: 0.0 for s in SPLITTING_SOLVERS}
    iters = {s: 0 for s in SPLITTING_SOLVERS}
    for s in p.solves:
        if s.solver not in SPLITTING_SOLVERS:
            continue
        span = totals[(f"splitting.{s.solver}", s.solve_id)][1]
        inner = sum(totals.get((n, s.solve_id), (0, 0.0))[1]
                    for n in ("operators.forward", "operators.resolvent"))
        self_s[s.solver] += span - inner
        iters[s.solver] += s.iterations
    out["splitting.self_s"] = sum(self_s.values())
    for solver in SPLITTING_SOLVERS:
        out[f"splitting.self_us_per_iter.{solver}"] = \
            1e6 * self_s[solver] / max(1, iters[solver])
    shrinks = grows = 0
    for s in p.solves:
        if s.lambdas is not None:
            a, b = controller_branches(s.lambda0, s.lambdas)
            shrinks += a
            grows += b
    out["stepsize.shrinks"] = shrinks
    out["stepsize.grows"] = grows
    epdtr = [s for s in p.solves if s.solver == "epdtr"]
    if not epdtr:
        epdtr = [micro.composite_solve(ctx)]
    out["primal_dual.solve_s"] = sum(s.seconds for s in epdtr)
    out["primal_dual.linmap.calls"] = sum(s.linmap_calls for s in epdtr)
    if workload.name == "cli":
        out["splitting.trace.to_csv_s"] = by_name.get(
            "splitting.trace.to_csv", [0, 0.0])[1]
        out["experiments.output_bytes"] = p.output_bytes
        out["experiments.output_write_s"] = _cli_self_seconds(tracer)
    else:
        to_csv, total, nbytes = micro.write_outputs(ctx, p.solves)
        out["splitting.trace.to_csv_s"] = to_csv
        out["experiments.output_bytes"] = nbytes
        out["experiments.output_write_s"] = total
    return out


def layer_split(tracer):
    """Shares of traced solve time: forward, resolvent, everything else."""
    by_name = _by_name(tracer.totals())
    solve = sum(by_name.get(n, [0, 0.0])[1] for n in
                [f"splitting.{s}" for s in SPLITTING_SOLVERS]
                + ["primal_dual.epdtr"])
    fwd = by_name.get("operators.forward", [0, 0.0])[1]
    res = by_name.get("operators.resolvent", [0, 0.0])[1]
    solve = solve or 1.0
    return {"forward": fwd / solve, "resolvent": res / solve,
            "self": (solve - fwd - res) / solve}


# Predicted layer splits: which share of traced solve time is the majority.
PREDICTED_MAJORITY = {"lasso": "forward", "small": "self"}


def _cli_self_seconds(tracer):
    """Command time not spent in library calls, summed over commands."""
    compute = {}
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        if name in CLI_COMPUTE_SPANS and parent >= 0:
            compute[parent] = compute.get(parent, 0.0) + \
                tracer.ends[i] - tracer.starts[i]
    return sum(tracer.ends[i] - tracer.starts[i] - compute.get(i, 0.0)
               for i, name in enumerate(tracer.names)
               if name == "cli.command")


# ---------------------------------------------------------------- running

def measure(name, ctx, seconds, trace):
    """Run one workload; returns a result dict (see ``main``)."""
    import micro
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](ctx)
    setup_samples = workload.setup_samples(SETUP_REPEATS[name])
    checked = list(workload.warmup())
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = bool(trace) and len(untraced) > len(traced)
        t = time.perf_counter()
        p = workload.run_pass(Tracer(tracing))
        (traced if tracing else untraced).append(p)
        spent = time.perf_counter() - t
        enough = (len(untraced) >= (1 if trace else workload.min_passes)
                  and (traced or not trace))
        if enough and time.perf_counter() + spent > deadline:
            break
    passes = untraced + traced
    setup_samples += [p.setup for p in passes]
    checked.extend(passes)
    attempted = sum(c.attempted for c in checked)
    messages = [m for c in checked for ms in c.failures.values() for m in ms]
    failed = sum(len(c.failures) for c in checked)
    reference = ledger(passes[0])
    for p in passes[1:]:
        if ledger(p) != reference:
            failed += 1
            attempted += 1
            messages.append("oracle counts differ between passes of one run")
    result = {"attempted": attempted, "failed": failed,
              "messages": messages, "ledger": reference,
              "passes": (len(untraced), len(traced))}
    e2e, extra = end_to_end_metrics(untraced, setup_samples)
    result["end_to_end"] = e2e
    result["extra"] = extra
    if trace:
        result["per_layer"] = layer_metrics(ctx, workload, traced, untraced,
                                            setup_samples, micro)
        result["split"] = layer_split(traced[-1].tracer)
        spans = ctx.work / f"spans-{name}-seed{ctx.seed}.json"
        traced[-1].tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ctx.root))
    return result


def environment(seed):
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "git_revision": _git_revision(),
        "seed": seed,
        "flops_and_bytes": "computed from array shapes, not measured",
        "roofline": "not reported: the lasso working set (2 MiB) is "
                    "cache-resident",
    }


def _cache_sizes():
    """L1d, L2 and L3 sizes from glibc's sysconf, or None where unknown."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE.
    sizes = {level: libc.sysconf(code)
             for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    return {k: v if v > 0 else None for k, v in sizes.items()}


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: the checkout is not a git repository"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unavailable"


def _format(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(name, ctx, result, trace, out=sys.stdout):
    """Human-readable table, then the single JSON result line."""
    specs = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    print(f"env: {json.dumps(environment(ctx.seed))}", file=out)
    print(f"ledger: {json.dumps({name: result['ledger']})}", file=out)
    print(f"workload {name}, seed {ctx.seed}, passes untraced/traced "
          f"{result['passes'][0]}/{result['passes'][1]}", file=out)
    rows = [(m, values[m], u) for m, u in specs]
    if not trace:
        rows.append(("solve_s.epdtr", result["extra"]["solve_s.epdtr"], "s"))
        rows.append(("fail_rate", result["failed"] / result["attempted"],
                     "1"))
    else:
        print(f"spans written to {result['spans_file']}", file=out)
        split = result["split"]
        print("layer split of traced solve time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in split.items()), file=out)
        layer = PREDICTED_MAJORITY.get(name)
        if layer is not None:
            verdict = "holds" if split[layer] > 0.5 else "does not hold"
            print(f"prediction: {layer} is most of solve time on {name}: "
                  f"{verdict}", file=out)
    for metric, value, unit in rows:
        print(f"  {metric:40s} {_format(value):>14s} {unit}", file=out)
    for m in result["messages"][:20]:
        print(f"FAILED: {m}", file=sys.stderr)
    line = {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in specs}}
    print(json.dumps(line), file=out)


def clean(ctx):
    """Remove a run's outputs; span files stay for the reader."""
    for sub in ("cli", "outputs", "warm"):
        shutil.rmtree(ctx.work / sub, ignore_errors=True)


def make_context(seed, profile="full", perturb=False):
    import workloads
    return workloads.Context(root=ROOT, seed=seed,
                             profile=workloads.PROFILES[profile],
                             perturb=perturb)


def run_ledger(seed):
    """Counts of one untraced pass of every workload at ``seed``."""
    ctx = make_context(seed)
    out = {"seed": seed, "environment": environment(seed)}
    for name in ("lasso", "small", "cli"):
        result = measure(name, ctx, 0, 0)
        if result["failed"]:
            raise RuntimeError(f"{name}: {result['messages'][:3]}")
        out[name] = result["ledger"]
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def selftest():
    """Tiny sizes: every metric is emitted with its unit, and a perturbed
    answer is counted as a failure on every workload."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []
    expect = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for name in ("lasso", "small", "cli"):
        for trace in (0, 1):
            ctx = make_context(0, "tiny")
            result = measure(name, ctx, 0, trace)
            specs = dict(PER_LAYER if trace else END_TO_END)
            values = result["per_layer" if trace else "end_to_end"]
            if specs != expect[trace]:
                problems.append(f"trace {trace}: runner metrics differ from "
                                "BENCHMARK.json")
            for metric in expect[trace]:
                value = values.get(metric)
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{name} trace {trace}: {metric} "
                                    f"missing or not a finite number")
            if result["failed"]:
                problems.append(f"{name} trace {trace}: unperturbed run "
                                f"failed: {result['messages'][:3]}")
        result = measure(name, make_context(0, "tiny", perturb=True), 0, 0)
        if not result["failed"]:
            problems.append(f"{name}: perturbed answers were not counted "
                            "as failures")
        print(f"selftest {name}: perturbed run failed "
              f"{result['failed']}/{result['attempted']} operations")
    for p in problems:
        print(f"SELFTEST: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("lasso", "small", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true",
                        help="print the deterministic count ledger")
    parser.add_argument("--selftest", action="store_true",
                        help="quick tiny-size check of the benchmark")
    args = parser.parse_args(argv)
    if not (args.ledger or args.selftest or args.workload):
        parser.error("--workload is required")
    try:
        prepare()
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    ctx = make_context(args.seed)
    ctx.work.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest()
        if args.ledger:
            return run_ledger(args.seed)
        result = measure(args.workload, ctx, args.seconds, args.trace)
    finally:
        clean(ctx)
    report(args.workload, ctx, result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
