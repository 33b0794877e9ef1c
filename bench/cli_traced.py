"""Run one monosplit CLI command with spans at its layer boundaries.

Usage: python3 bench/cli_traced.py SPANS_JSON CLI_ARGS...

The command runs unchanged through ``monosplit.cli.main``; only the
library entry points it reaches are wrapped from outside: instance
generation (whose operators are replaced by probes), each solver run,
trace CSV writing, the rate table, rate design and the region grid.  The
spans and each solve's computed forward work go to SPANS_JSON; the exit
code is the command's own.
"""

import dataclasses
import functools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import monosplit.cli as cli  # noqa: E402
import monosplit.experiments as experiments  # noqa: E402
from monosplit.splitting import IterationTrace  # noqa: E402

from tracing import (Tracer, forward_cost, forward_probe,  # noqa: E402
                     resolvent_probe)


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def main(spans_path, argv):
    tracer = Tracer(True)
    forward = {}
    current = {}
    generate = experiments.generate
    run_solver = experiments.run_solver

    def traced_generate(cfg):
        with tracer.span("experiments.generate"):
            instance = generate(cfg)
        fwd = forward_probe(instance.forward_b, tracer,
                            *forward_cost(instance))
        current["forward"] = fwd
        return dataclasses.replace(
            instance, forward_b=fwd,
            resolvent_a=resolvent_probe(instance.resolvent_a, tracer))

    def traced_run_solver(instance, solver, cfg):
        fwd = current["forward"]
        calls = fwd.calls
        tracer.solve_id = len(forward)
        try:
            with tracer.span("splitting." + solver):
                return run_solver(instance, solver, cfg)
        finally:
            n = fwd.calls - calls
            forward[str(tracer.solve_id)] = [n * fwd.flops, n * fwd.bytes]
            tracer.solve_id = -1

    experiments.generate = traced_generate
    experiments.run_solver = traced_run_solver
    IterationTrace.to_csv = _spanned(tracer, "splitting.trace.to_csv",
                                     IterationTrace.to_csv)
    cli.rate_table = _spanned(tracer, "rate_analysis.rate_table",
                              cli.rate_table)
    cli.design_rate = _spanned(tracer, "rate_analysis.design_rate",
                               cli.design_rate)
    cli.region_grid = _spanned(tracer, "primal_dual.region_grid",
                               cli.region_grid)
    with tracer.span("cli.command"):
        code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.columns(), "forward": forward}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
