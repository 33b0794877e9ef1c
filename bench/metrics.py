"""Names and units of the benchmark's metrics, as BENCHMARK.json lists them.

``--trace 0`` reports END_TO_END and ``--trace 1`` reports PER_LAYER; the
self-test checks both lists against BENCHMARK.json.
"""

SPLITTING_SOLVERS = ("gfrb_adaptive", "gfrb_fixed", "frb", "fbf", "rfb")

END_TO_END = (
    [("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
     ("us_per_iter", "us")]
    + [(f"solve_s.{s}", "s") for s in SPLITTING_SOLVERS]
    + [("iterations", "count"), ("b_evals", "count"),
       ("residual_max", "norm")])

CLI_COMMANDS = ("experiment_example1", "experiment_example2", "rate_table",
                "design_rate", "region", "validate_config")

PER_LAYER = (
    [("operators.forward.calls", "count"), ("operators.forward.time_s", "s"),
     ("operators.forward.us_per_call", "us"),
     ("operators.forward.flops_computed", "flop"),
     ("operators.forward.bytes_computed", "B"),
     ("operators.resolvent.calls", "count"),
     ("operators.resolvent.time_s", "s"),
     ("operators.resolvent.us_per_call", "us"),
     ("operators.setup_s", "s"),
     ("splitting.self_s", "s")]
    + [(f"splitting.self_us_per_iter.{s}", "us") for s in SPLITTING_SOLVERS]
    + [("splitting.trace.append_us", "us"),
       ("splitting.trace.to_csv_s", "s"),
       ("experiments.output_bytes", "B"),
       ("experiments.output_write_s", "s")]
    + [(f"experiments.generate_s.{p}", "s")
       for p in ("example1", "example2", "lasso", "composite")]
    + [("stepsize.next_step.us_per_call", "us"),
       ("stepsize.shrinks", "count"), ("stepsize.grows", "count"),
       ("primal_dual.solve_s", "s"),
       ("primal_dual.epdtr_step.us_per_call", "us"),
       ("primal_dual.power_norm_s", "s"),
       ("primal_dual.linmap.calls", "count"),
       ("primal_dual.region_grid_s", "s"),
       ("rate_analysis.rate_table_s", "s"),
       ("rate_analysis.design_rate_s", "s"),
       ("rng.standard_normal_s", "s")]
    + [(f"cli.command_s.{c}", "s") for c in CLI_COMMANDS]
    + [("cli.import_s", "s"), ("tracing_overhead_s", "s")])
