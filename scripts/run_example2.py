"""Benchmark all five solvers on the shifted affine saddle problem.

Runs the shipped configuration (seed 10), prints the summary table plus
each solver's terminal distance to the dense linear-solve oracle, and
writes summary + trace CSVs.
"""

import argparse
import pathlib
import sys

import numpy as np

from monosplit.experiments import (generate, load_config,
                                   run_benchmark, summary_header,
                                   summary_row, validate_config)

CONFIG = pathlib.Path(__file__).resolve().parent.parent \
    / "configs" / "example2.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(CONFIG))
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--out", default="results/example2")
    args = parser.parse_args()

    try:
        cfg = load_config(args.config)
        if args.m is not None:
            cfg.m = args.m
        validate_config(cfg)
    except ValueError as exc:
        sys.exit(f"config error: {exc}")
    oracle = generate(cfg).x_star

    print(summary_header())
    results = run_benchmark(cfg, out_dir=args.out)
    for result in results:
        print(summary_row(result))
    print()
    for result in results:
        gap = np.linalg.norm(result.x - oracle)
        print(f"{result.solver}: distance to oracle {gap:.3e}")


if __name__ == "__main__":
    main()
