"""Benchmark all five solvers on the sparse-recovery problem.

Runs the shipped 256x1024 instance with 20 active coefficients, prints
the summary table and the terminal signal-to-noise ratio of each solver
against the planted sparse signal, and writes summary + trace CSVs.
"""

import argparse
import pathlib
import sys

from monosplit.experiments import (generate, load_config,
                                   run_benchmark, snr, summary_header,
                                   summary_row, validate_config)

CONFIG = pathlib.Path(__file__).resolve().parent.parent \
    / "configs" / "lasso.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(CONFIG))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="results/lasso")
    args = parser.parse_args()

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        validate_config(cfg)
    except ValueError as exc:
        sys.exit(f"config error: {exc}")
    x_true = generate(cfg).data["x_true"]

    print(summary_header())
    results = run_benchmark(cfg, out_dir=args.out)
    for result in results:
        print(summary_row(result))
    print()
    for result in results:
        print(f"{result.solver}: terminal SNR {snr(x_true, result.x):.2f} dB")


if __name__ == "__main__":
    main()
