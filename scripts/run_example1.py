"""Benchmark all five solvers on the l1-shrinkage problem.

Sweeps the problem size over the usual {200, 500, 1000} grid, prints one
summary row per (size, solver) pair and writes summary + trace CSVs per
size under the output directory.
"""

import argparse
import pathlib
import sys

from monosplit.experiments import (load_config, run_benchmark,
                                   summary_header, summary_row,
                                   validate_config)

CONFIG = pathlib.Path(__file__).resolve().parent.parent \
    / "configs" / "example1.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(CONFIG))
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[200, 500, 1000])
    parser.add_argument("--out", default="results/example1")
    args = parser.parse_args()

    try:
        cfg = validate_config(load_config(args.config))
    except ValueError as exc:
        sys.exit(f"config error: {exc}")

    print(summary_header())
    for m in args.sizes:
        cfg.m = m
        out_dir = pathlib.Path(args.out) / f"m{m}"
        for result in run_benchmark(cfg, out_dir=str(out_dir)):
            print(summary_row(result))


if __name__ == "__main__":
    main()
