"""Command-line front door for solves, sweeps and experiments.

Commands
--------
solve            run the first configured solver on the configured problem
experiment       run every configured solver; write summary + traces
rate-table       spectral radii over the delta grid and three step rules
design-rate R    print the mix-in weight and step achieving rate 1/R
region           admissibility slack grid for the primal-dual step pair
validate-config  check the config and build its instance, run no solver

solve, experiment and validate-config take --m and --seed, which replace
the config file's fields before the loader checks them, so a bad override
fails like a bad file, naming the field, and creates no output directory.
experiments.resolve then builds the instance; no check needs it.  The
composite problem runs through solve and experiment too, with the
primal-dual solver epdtr.

Exit codes: 0 success, 2 malformed config or bad input (diagnostic names
the offending field) or an output that cannot be written, 3 divergence
(every solver still runs and writes its outputs; each diverged solver's
message and partial trace path are printed).
Outputs land in --out, defaulting to ./results/<command>-<timestamp>;
--deterministic drops the timestamp so reruns overwrite byte-identical
files (timing columns aside).
"""

import argparse
import os
import sys
import time

from .experiments import (load_config, resolve, run_benchmark,
                          summary_header, summary_row, trace_path)
from .primal_dual import region_grid
from .rate_analysis import design_rate, rate_table


def _out_dir(args, command):
    if args.out is not None:
        return args.out
    stamp = "" if args.deterministic else time.strftime("-%Y%m%d-%H%M%S")
    return os.path.join("results", command + stamp)


def _divergence_code(results, out):
    """Print each diverged run's trace path; 3 if any diverged, else 0."""
    diverged = [res for res in results if res.diverged]
    for res in diverged:
        print(f"divergence: {res.known_answer}; partial trace at "
              f"{trace_path(out, res.solver)}")
    return 3 if diverged else 0


def _config(args):
    """The --config file with the command line's overrides merged in."""
    return load_config(args.config, problem=getattr(args, "name", None),
                       m=args.m, seed=args.seed)


def _cmd_validate_config(args):
    cfg = _config(args)
    resolve(cfg)
    print(f"config ok: problem={cfg.problem}, solvers={list(cfg.solvers)}")
    return 0


def _cmd_solve(args):
    cfg = _config(args)
    out = _out_dir(args, "solve")
    cfg.solvers = cfg.solvers[:1]
    if isinstance(cfg.delta, dict):
        # A per-solver delta keeps only the entry of the solver that runs.
        cfg.delta = {s: d for s, d in cfg.delta.items() if s in cfg.solvers}
    (result,) = run_benchmark(cfg, out_dir=out)
    status = "diverged" if result.diverged else \
        "converged" if result.converged else "stopped"
    print(f"{result.solver} on {cfg.problem}: {status} after "
          f"{result.iterations} iterations, final err "
          f"{result.final_err:.6g}; outputs in {out}")
    return _divergence_code([result], out)


def _cmd_experiment(args):
    cfg = _config(args)
    out = _out_dir(args, "experiment")
    results = run_benchmark(cfg, out_dir=out)
    print(summary_header())
    for res in results:
        print(summary_row(res))
    for res in results:
        if not res.diverged:
            print(f"{res.solver}: {res.known_answer}")
    print(f"outputs in {out}")
    return _divergence_code(results, out)


def _cmd_rate_table(args):
    out = _out_dir(args, "rate-table")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "rate_table.csv")
    with open(path, "w") as fh:
        fh.write("delta,lambda_rule,rho\n")
        for delta, label, _lam, rho in rate_table():
            fh.write(f"{delta:.17g},{label},{rho:.17g}\n")
    print(f"rate table written to {path}")
    return 0


def _cmd_design_rate(args):
    design = design_rate(args.r)
    print(f"r: {design.r:.17g}")
    print(f"delta: {design.delta:.17g}")
    print(f"lambda: {design.lam:.17g}")
    roots = ", ".join(f"{z:.17g}" for z in design.roots)
    print(f"roots: {roots}")
    return 0


def _cmd_region(args):
    taus, sigmas, slack = region_grid(args.b, args.L, args.normK,
                                      n=args.grid)
    out = _out_dir(args, "region")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "region.csv")
    # Float formatting dominates the write: format each tau and sigma
    # once, not once per row.
    sigma_strs = [f"{sigma:.17g}" for sigma in sigmas.tolist()]
    with open(path, "w") as fh:
        fh.write("tau,sigma,admissible,slack\n")
        for tau, row in zip(taus.tolist(), slack.tolist()):
            tau_str = f"{tau:.17g}"
            fh.writelines(f"{tau_str},{sigma_str},{int(s > 0.0)},{s:.17g}\n"
                          for sigma_str, s in zip(sigma_strs, row))
    print(f"admissibility grid written to {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monosplit",
        description="Operator-splitting solvers for monotone inclusions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default "
                            "./results/<command>-<timestamp>)")
        p.add_argument("--deterministic", action="store_true",
                       help="drop the timestamp from the default "
                            "output directory")

    def add_config(p):
        p.add_argument("--config", required=True)
        p.add_argument("--m", type=int, default=None,
                       help="override the config's m")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")

    p = sub.add_parser("solve", help="run the first configured solver")
    add_config(p)
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("experiment", help="run every configured solver")
    p.add_argument("name", nargs="?", default=None,
                   help="problem name overriding the config")
    add_config(p)
    add_common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("rate-table",
                       help="spectral radii over the delta grid")
    add_common(p)
    p.set_defaults(func=_cmd_rate_table)

    p = sub.add_parser("design-rate",
                       help="mix-in weight and step for a target rate")
    p.add_argument("r", type=float)
    p.set_defaults(func=_cmd_design_rate)

    p = sub.add_parser("region", help="admissibility slack grid")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--normK", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=200)
    add_common(p)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("validate-config",
                       help="check the config and build its instance")
    add_config(p)
    p.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
