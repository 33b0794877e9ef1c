"""The benchmark's three workloads: lasso, small and cli.

Each workload is a closed loop: one caller runs one solve or one CLI
command at a time and waits for it.  A *pass* runs the whole workload
once: it builds the instances (timed as set-up), runs every solve or
command, and then checks every answer.  Instances come from the package
generators, or from seeded copies of ``configs/*.json`` for ``cli``; the
benchmark seed selects them through ``sub_seed``.
"""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from monosplit import StopRule, epdtr_solve
from monosplit.experiments import (config_from_dict, gen_composite,
                                   generate, run_solver, summary_header)

import oracle
from metrics import CLI_COMMANDS
from tracing import (LinearMapProbe, Tracer, forward_cost, forward_probe,
                     resolvent_probe)


# "full" is the benchmark; "tiny" is the self-test's quick mode.
PROFILES = {
    "full": {"lasso_instances": 10, "lasso_shape": None, "small_seeds": 8,
             "example_m": 200, "composite": (40, 30), "region_grid": 400},
    "tiny": {"lasso_instances": 2, "lasso_shape": (32, 64, 4),
             "small_seeds": 1, "example_m": 20, "composite": (8, 6),
             "region_grid": 20},
}

# The perturbation the self-test applies to answers before checking them.
PERTURBATION = 1e-2

# A CLI command that runs longer than this has hung; each takes under 2 s.
COMMAND_TIMEOUT_S = 60


@dataclasses.dataclass
class Context:
    root: object        # pathlib.Path of the checkout
    seed: int
    profile: dict
    perturb: bool = False

    @property
    def work(self):
        return self.root / ".bench_work"


def sub_seed(seed, stream, index):
    """Instance seed ``index`` of ``stream`` under benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, stream, index])
               .generate_state(1)[0] >> 1)


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


@dataclasses.dataclass
class Solve:
    """One solve as the benchmark saw it, after its checks."""

    problem: str
    solver: str
    seconds: float
    iterations: int
    b_evals: int
    resolvent_calls: int
    residual: float
    forward_flops: float = 0.0
    forward_bytes: float = 0.0
    linmap_calls: int = 0
    solve_id: int = -1
    lambdas: list = None
    lambda0: float = None
    result: object = None


@dataclasses.dataclass
class Pass:
    """One run of a whole workload."""

    wall: float
    solves: list
    attempted: int
    failures: dict            # operation key -> list of messages
    tracer: Tracer
    commands: dict = None     # cli: command name -> seconds
    output_bytes: int = 0
    setup: float = None       # one set-up sample, outside ``wall``


def solve_inclusion(instance, solver, cfg, tracer, ids):
    """Run one configured solver on probed operators; returns a Solve."""
    fwd = forward_probe(instance.forward_b, tracer, *forward_cost(instance))
    res = resolvent_probe(instance.resolvent_a, tracer)
    probed = dataclasses.replace(instance, forward_b=fwd, resolvent_a=res)
    sid = tracer.solve_id = next(ids)
    with tracer.span("splitting." + solver):
        t = time.perf_counter()
        result = run_solver(probed, solver, cfg)
        seconds = time.perf_counter() - t
    tracer.solve_id = -1
    adaptive = solver == "gfrb_adaptive"
    return Solve(problem=instance.name, solver=solver,
                 seconds=seconds, iterations=result.iterations,
                 b_evals=fwd.calls, resolvent_calls=res.calls,
                 residual=float("nan"), forward_flops=fwd.calls * fwd.flops,
                 forward_bytes=fwd.calls * fwd.bytes, solve_id=sid,
                 lambdas=result.trace.lambdas if adaptive else None,
                 lambda0=cfg.lambda0 if adaptive else None, result=result)


def solve_composite(problem, stop, tracer, ids):
    """Run epdtr_solve on probed operators; returns (Solve, x, y)."""
    n = problem.linmap_k.shape[1]
    fwd = forward_probe(problem.forward_b, tracer, float(n), 24.0 * n)
    ra = resolvent_probe(problem.resolvent_a, tracer)
    rc = resolvent_probe(problem.resolvent_c, tracer)
    K = LinearMapProbe(problem.linmap_k, tracer)
    probed = dataclasses.replace(problem, forward_b=fwd, resolvent_a=ra,
                                 resolvent_c=rc, linmap_k=K)
    sid = tracer.solve_id = next(ids)
    with tracer.span("primal_dual.epdtr"):
        t = time.perf_counter()
        x, y, trace = epdtr_solve(probed, stop=stop)
        seconds = time.perf_counter() - t
    tracer.solve_id = -1
    solve = Solve(problem="composite", solver="epdtr",
                  seconds=seconds, iterations=len(trace), b_evals=fwd.calls,
                  resolvent_calls=ra.calls + rc.calls, residual=float("nan"),
                  forward_flops=fwd.calls * fwd.flops,
                  forward_bytes=fwd.calls * fwd.bytes, linmap_calls=K.calls,
                  solve_id=sid, result=trace)
    return solve, x, y


class _Checks:
    """Operations attempted and the failures recorded against each."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def operation(self):
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op, messages):
        if messages:
            self.failures.setdefault(op, []).extend(messages)


def _attempt(checks, op, fn, *args):
    """Run one operation; an exception is recorded as its failure."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation must not end the run
        checks.fail(op, [f"{type(exc).__name__}: {exc}"])
        return None


class InProcessWorkload:
    """Shared pass loop of the two in-process workloads."""

    # Untraced passes a run makes at least, however short ``--seconds``.
    min_passes = 1

    def __init__(self, ctx):
        self.ctx = ctx

    def setup_samples(self, repeats):
        """Timed builds of the pass's instance set."""
        out = []
        for _ in range(repeats):
            t = time.perf_counter()
            self.build()
            out.append(time.perf_counter() - t)
        return out

    def _check_inclusion(self, checks, op, instance, solve):
        x = solve.result.x
        if self.ctx.perturb:
            x = x + PERTURBATION
        failures, solve.residual = oracle.check_inclusion(
            instance, solve.solver, x, solve.result.converged)
        checks.fail(op, failures)
        return x


class LassoWorkload(InProcessWorkload):
    """configs/lasso.json on several seeded instances, five solvers each."""

    name = "lasso"
    # A pass takes about 30 s, so ``--seconds`` alone would allow one; the
    # second gives every solve a shorter time to keep (run.best_times).
    min_passes = 2

    def __init__(self, ctx):
        super().__init__(ctx)
        cfg = load_config(ctx.root / "configs" / "lasso.json")
        shape = ctx.profile["lasso_shape"]
        if shape is not None:
            cfg.m, cfg.n, cfg.k = shape
        self.cfg = cfg
        self.seeds = [sub_seed(ctx.seed, 0, i)
                      for i in range(ctx.profile["lasso_instances"])]

    def build(self):
        return [generate(dataclasses.replace(self.cfg, seed=s))
                for s in self.seeds]

    def warmup(self):
        """Fill caches and finish lazy set-up with short solves.

        These are not operations of the workload, so nothing is counted.
        """
        cfg = dataclasses.replace(self.cfg, seed=self.seeds[0], max_iter=20)
        instance = generate(cfg)
        for solver in cfg.solvers:
            run_solver(instance, solver, cfg)
        return []

    def run_pass(self, tracer):
        checks, ids = _Checks(), itertools.count()
        t0 = time.perf_counter()
        instances = self.build()
        setup = time.perf_counter() - t0
        runs = []
        for instance in instances:
            for solver in self.cfg.solvers:
                op = checks.operation()
                runs.append((instance, op, _attempt(
                    checks, op, solve_inclusion, instance, solver, self.cfg,
                    tracer, ids)))
        wall = time.perf_counter() - t0
        solves = []
        for instance in instances:
            mine = [(op, s) for inst, op, s in runs if inst is instance]
            xs = [self._check_inclusion(checks, op, instance, s)
                  for op, s in mine if s is not None]
            agree = oracle.check_lasso_agreement(instance, xs)
            for op, _ in mine:
                checks.fail(op, agree)
            solves.extend(s for _, s in mine if s is not None)
        return Pass(wall=wall, solves=solves,
                    attempted=checks.attempted, failures=checks.failures,
                    tracer=tracer, setup=setup)


class SmallWorkload(InProcessWorkload):
    """example1 and example2 at m=200 over several seeds, plus a composite."""

    name = "small"

    def __init__(self, ctx):
        super().__init__(ctx)
        m = ctx.profile["example_m"]
        self.cfgs = []
        for stream, problem in ((1, "example1"), (2, "example2")):
            cfg = load_config(ctx.root / "configs" / f"{problem}.json")
            cfg.m = m
            self.cfgs.extend(
                dataclasses.replace(cfg, seed=sub_seed(ctx.seed, stream, i))
                for i in range(ctx.profile["small_seeds"]))
        self.composite_seed = sub_seed(ctx.seed, 3, 0)
        self.stop = StopRule(tol=self.cfgs[0].tol,
                             max_iter=self.cfgs[0].max_iter)

    def build(self):
        n, m_rows = self.ctx.profile["composite"]
        return ([generate(cfg) for cfg in self.cfgs],
                gen_composite(n, m_rows, self.composite_seed)[0])

    def warmup(self):
        """One checked, untimed pass; returns it for the operation count."""
        return [self.run_pass(Tracer(False))]

    def run_pass(self, tracer):
        checks, ids = _Checks(), itertools.count()
        t0 = time.perf_counter()
        instances, composite = self.build()
        setup = time.perf_counter() - t0
        runs = []
        for cfg, instance in zip(self.cfgs, instances):
            for solver in cfg.solvers:
                op = checks.operation()
                runs.append((instance, op, _attempt(
                    checks, op, solve_inclusion, instance, solver, cfg,
                    tracer, ids)))
        op_c = checks.operation()
        comp = _attempt(checks, op_c, solve_composite, composite, self.stop,
                        tracer, ids)
        wall = time.perf_counter() - t0
        solves = []
        for instance, op, solve in runs:
            if solve is not None:
                self._check_inclusion(checks, op, instance, solve)
                solves.append(solve)
        if comp is not None:
            solve, x, y = comp
            if self.ctx.perturb:
                x = x + PERTURBATION
            failures, solve.residual = oracle.check_composite(composite, x, y)
            checks.fail(op_c, failures)
            if not solve.result.converged:
                checks.fail(op_c, ["composite/epdtr: stopped at max_iter "
                                   "before reaching the tolerance"])
            solves.append(solve)
        return Pass(wall=wall, solves=solves,
                    attempted=checks.attempted, failures=checks.failures,
                    tracer=tracer, setup=setup)


def child_env(root):
    """Environment of a child interpreter: the checkout's package only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cold_import_seconds(root):
    """Seconds to ``import monosplit`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import monosplit; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class CliWorkload:
    """Shipped CLI commands, each in a fresh interpreter."""

    name = "cli"
    min_passes = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.dir = ctx.work / "cli"
        config_dir = self.dir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.cfgs = {}
        self.config_paths = {}
        for stream, problem in ((4, "example1"), (5, "example2"),
                                (6, "lasso")):
            with open(ctx.root / "configs" / f"{problem}.json") as fh:
                raw = json.load(fh)
            raw["seed"] = sub_seed(ctx.seed, stream, 0)
            if problem != "lasso":
                raw["m"] = ctx.profile["example_m"]
            path = config_dir / f"{problem}.json"
            path.write_text(json.dumps(raw, indent=2))
            self.cfgs[problem] = config_from_dict(raw)
            self.config_paths[problem] = str(path)
        self.grid = ctx.profile["region_grid"]
        self.replay = None

    def commands(self, out_root):
        """(name, argv, output dir or None) of every command of a pass."""
        out = {name: str(out_root / name) for name in CLI_COMMANDS}
        return [
            ("experiment_example1", ["experiment", "--config",
             self.config_paths["example1"], "--out",
             out["experiment_example1"]], out["experiment_example1"]),
            ("experiment_example2", ["experiment", "--config",
             self.config_paths["example2"], "--out",
             out["experiment_example2"]], out["experiment_example2"]),
            ("rate_table", ["rate-table", "--out", out["rate_table"]],
             out["rate_table"]),
            ("design_rate", ["design-rate", "5"], None),
            ("region", ["region", "--b", "0.5", "--grid", str(self.grid),
                        "--out", out["region"]], out["region"]),
            ("validate_config", ["validate-config", "--config",
                                 self.config_paths["lasso"]], None),
        ]

    def setup_samples(self, repeats):
        return [cold_import_seconds(self.ctx.root) for _ in range(repeats)]

    def warmup(self):
        """Replay the experiment configs in-process for oracle counts.

        The CLI runs the same deterministic computation, so its iteration
        counts must equal the replay's; the replay supplies the B
        evaluations, resolvent calls and certified residuals that a cold
        command does not print.  One untimed pass then warms file caches.
        Returns the checked replay and pass for the operation count.
        """
        checks, ids = _Checks(), itertools.count()
        self.replay = {}
        for problem in ("example1", "example2"):
            cfg = self.cfgs[problem]
            instance = generate(cfg)
            for solver in cfg.solvers:
                op = checks.operation()
                solve = _attempt(checks, op, solve_inclusion, instance,
                                 solver, cfg, Tracer(False), ids)
                if solve is None:
                    continue
                failures, solve.residual = oracle.check_inclusion(
                    instance, solver, solve.result.x, solve.result.converged)
                checks.fail(op, failures)
                self.replay[(problem, solver)] = solve
        return [checks, self.run_pass(Tracer(False))]

    def run_pass(self, tracer):
        setup = cold_import_seconds(self.ctx.root)
        checks = _Checks()
        out_root = self.dir / "out"
        traced = tracer.enabled
        solves, seconds, output_bytes = [], {}, 0
        spans_dir = self.dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for name, argv, out_dir in self.commands(out_root):
            op = checks.operation()
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
            spans_path = spans_dir / f"{name}.json"
            if traced:
                cmd = [sys.executable, str(self.ctx.root / "bench" /
                                           "cli_traced.py"),
                       str(spans_path)] + argv
            else:
                cmd = [sys.executable, "-m", "monosplit.cli"] + argv
            t = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.ctx.root,
                                      env=child_env(self.ctx.root),
                                      capture_output=True, text=True,
                                      timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            seconds[name] = time.perf_counter() - t
            if proc is None:
                checks.fail(op, [f"{name}: no exit within "
                                 f"{COMMAND_TIMEOUT_S} s"])
                continue
            if proc.returncode != 0:
                checks.fail(op, [f"{name}: exit code {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}"])
                continue
            if self.ctx.perturb and name == "region":
                _drop_last_line(os.path.join(out_dir, "region.csv"))
            found = _attempt(checks, op, self._check, name, proc.stdout,
                             out_dir)
            if found is not None:
                solves.extend(found)
            if out_dir is not None:
                output_bytes += sum(
                    os.path.getsize(os.path.join(out_dir, f))
                    for f in os.listdir(out_dir))
            if traced:
                with open(spans_path) as fh:
                    child = json.load(fh)
                base = max(tracer.solves, default=-1) + 1
                tracer.extend(child["spans"], base)
                for s in found or ():
                    s.forward_flops, s.forward_bytes = \
                        child["forward"][str(s.solve_id)]
                    s.solve_id += base
        return Pass(wall=sum(seconds.values()), solves=solves,
                    attempted=checks.attempted, failures=checks.failures,
                    tracer=tracer, commands=seconds,
                    output_bytes=output_bytes, setup=setup)

    def _check(self, name, stdout, out_dir):
        if name.startswith("experiment_"):
            return self._check_experiment(name[len("experiment_"):], out_dir)
        if name == "rate_table":
            header, rows = _read_csv(os.path.join(out_dir, "rate_table.csv"))
            _expect(header == ["delta", "lambda_rule", "rho"],
                    "rate-table: bad CSV header")
            _expect(len(rows) == 66, f"rate-table: {len(rows)} rows, not 66")
            _raise_all(oracle.check_rate_rows(
                [(float(d), label, float(rho)) for d, label, rho in rows]))
        elif name == "design_rate":
            values = dict(line.split(":", 1) for line in
                          stdout.strip().splitlines())
            roots = [complex(v) for v in values["roots"].split(",")]
            _raise_all(oracle.check_design(
                float(values["r"]), float(values["delta"]),
                float(values["lambda"]), roots))
        elif name == "region":
            self._check_region(os.path.join(out_dir, "region.csv"))
        elif name == "validate_config":
            _expect(stdout.startswith("config ok"),
                    "validate-config: no 'config ok' line")
        return []

    def _check_experiment(self, problem, out_dir):
        cfg = self.cfgs[problem]
        header, rows = _read_csv(os.path.join(out_dir, "summary.csv"))
        _expect(header == summary_header().split(","),
                f"{problem}: bad summary.csv header")
        _expect([r[1] for r in rows] == list(cfg.solvers),
                f"{problem}: summary rows {[r[1] for r in rows]} do not "
                f"match the configured solvers")
        solves = []
        for i, row in enumerate(rows):
            solver, iters = row[1], int(row[5])
            final_err, elapsed = float(row[6]), float(row[7])
            ref = self.replay[(problem, solver)]
            _expect(iters == ref.iterations,
                    f"{problem}/{solver}: {iters} iterations, in-process "
                    f"replay took {ref.iterations}")
            _expect(final_err <= cfg.tol,
                    f"{problem}/{solver}: final err {final_err:g} > tol")
            theader, trows = _read_csv(
                os.path.join(out_dir, f"{solver}_trace.csv"))
            _expect(theader == ["k", "err", "lambda", "elapsed_s"],
                    f"{problem}/{solver}: bad trace CSV header")
            _expect(len(trows) == iters,
                    f"{problem}/{solver}: trace has {len(trows)} rows, "
                    f"summary says {iters}")
            adaptive = solver == "gfrb_adaptive"
            solves.append(Solve(
                problem=problem, solver=solver,
                seconds=elapsed, iterations=iters, b_evals=ref.b_evals,
                resolvent_calls=ref.resolvent_calls, residual=ref.residual,
                solve_id=i, lambdas=[float(r[2]) for r in trows]
                if adaptive else None,
                lambda0=cfg.lambda0 if adaptive else None))
        return solves

    def _check_region(self, path):
        header, rows = _read_csv(path)
        _expect(header == ["tau", "sigma", "admissible", "slack"],
                "region: bad CSV header")
        _expect(len(rows) == self.grid * self.grid,
                f"region: {len(rows)} rows, not {self.grid ** 2}")
        # slack = 1 - 2 tau (1 + |b|) L - tau sigma normK^2, b = 0.5, L = 1.
        for row in rows[::997] + rows[-1:]:
            tau, sigma, flag, slack = (float(v) for v in row)
            _expect(abs(slack - (1.0 - 3.0 * tau - tau * sigma)) <= 1e-12
                    and flag == float(slack > 0.0),
                    f"region: wrong row {','.join(row)}")


class CheckFailed(Exception):
    """A CLI output check failed; the message names the check."""


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _raise_all(failures):
    if failures:
        raise CheckFailed("; ".join(failures))


def _drop_last_line(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


WORKLOADS = {"lasso": LassoWorkload, "small": SmallWorkload,
             "cli": CliWorkload}
