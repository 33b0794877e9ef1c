import json
import pathlib
import re
import shlex

import pytest

from monosplit import experiments, primal_dual
from monosplit.cli import build_parser, main
from monosplit.experiments import (generate, load_config, run_solver,
                                   summary_header, summary_row)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_rate_table_csv(tmp_path, capsys):
    out = tmp_path / "rt"
    assert main(["rate-table", "--out", str(out)]) == 0
    lines = (out / "rate_table.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,lambda_rule,rho"
    assert len(lines) == 1 + 66
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[1] == "1/(2d+2)"
    assert abs(float(first[2]) - 0.707107) <= 1e-6
    assert "rate table written" in capsys.readouterr().out


def test_rate_table_idempotent(tmp_path):
    out = tmp_path / "rt"
    main(["rate-table", "--out", str(out)])
    first = (out / "rate_table.csv").read_bytes()
    main(["rate-table", "--out", str(out)])
    assert (out / "rate_table.csv").read_bytes() == first


def test_design_rate_output(capsys):
    assert main(["design-rate", "5"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.strip()
    assert float(values["delta"]) == pytest.approx(27.0 / 68.0, rel=1e-12)
    assert float(values["lambda"]) == pytest.approx(68.0 / 285.0, rel=1e-12)
    assert "roots" in values


def test_design_rate_excluded(capsys):
    assert main(["design-rate", "1"]) == 2
    assert "excluded" in capsys.readouterr().err


# 1e103 is finite, but its cube overflows a float.
@pytest.mark.parametrize("r", ["nan", "inf", "1e103"])
def test_design_rate_rejects_non_finite_rate(capsys, r):
    assert main(["design-rate", r]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'r'" in err and "finite" in err


def test_region_csv_and_idempotency(tmp_path):
    out = tmp_path / "rg"
    args = ["region", "--b", "0.5", "--grid", "10", "--out", str(out)]
    assert main(args) == 0
    lines = (out / "region.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,sigma,admissible,slack"
    assert len(lines) == 1 + 10 * 10
    for line in lines[1:]:
        tau, sigma, admissible, slack = line.split(",")
        assert int(admissible) == int(float(slack) > 0.0)
        expected = 1.0 - 2.0 * float(tau) * 1.5 - float(tau) * float(sigma)
        assert float(slack) == pytest.approx(expected, abs=1e-12)
    first = (out / "region.csv").read_bytes()
    main(args)
    assert (out / "region.csv").read_bytes() == first


@pytest.mark.parametrize("flags, name", [
    (["--grid", "-3"], "'n' (--grid)"),
    (["--grid", "0"], "'n' (--grid)"),
    (["--L", "-1"], "'L' (--L)"),
    (["--b", "nan"], "'b' (--b)"),
    # Finite, but 2*(1+|b|) overflows: the slack would be -inf.
    (["--b", "1e308"], "'b' (--b)"),
    (["--b=-1e308"], "'b' (--b)"),
    # Finite, but norm_k ** 2 overflows and raised OverflowError.
    (["--L", "1", "--b", "0", "--normK", "1e200"], "'norm_k' (--normK)"),
    # Finite, but 2*(1+|b|)*L overflows: the slack would be -inf.
    (["--L", "1e308"], "'L' (--L)"),
    (["--L", "1e307", "--b", "100"], "'L' (--L)"),
    # Each coefficient is finite, but their sum is not.
    (["--L", "8e307", "--normK", "1e154"], "'L' (--L) and 'norm_k' (--normK)"),
])
def test_region_rejects_bad_argument(tmp_path, capsys, flags, name):
    out = tmp_path / "never"
    assert main(["region", "--grid", "4", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert name in err
    assert not out.exists()


def test_validate_config_ok(tmp_path, capsys):
    path = write_config(tmp_path, "good.json",
                        {"problem": "example1", "m": 40, "delta": 0.1})
    assert main(["validate-config", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_config_bad_coefficients(tmp_path, capsys):
    # Every step rule at delta scales by 2(1 + |delta|), which overflows.
    path = write_config(tmp_path, "bad.json", {"delta": 1e308})
    assert main(["validate-config", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'delta'" in err and "must keep 2*(1+|delta|) finite" in err


def test_validate_config_names_an_integer_too_large_for_a_float(tmp_path,
                                                                capsys):
    # JSON reads a long digit string as an int, on which math.isfinite
    # raises OverflowError; it fails as a bad value instead.
    path = tmp_path / "huge.json"
    path.write_text('{"problem": "example1", "m": 20, "tol": 1' + "0" * 400
                    + "}")
    assert main(["validate-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'tol':")


def test_validate_config_bad_gamma_box(tmp_path, capsys):
    # The growth sequence is a constant of stepsize, not a config field.
    path = write_config(tmp_path, "gamma.json", {"gamma_ratio": 2})
    assert main(["validate-config", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "config field 'gamma_ratio': unknown field" in err


def test_validate_config_unknown_field(tmp_path, capsys):
    path = write_config(tmp_path, "unknown.json", {"stepsize": 0.1})
    assert main(["validate-config", "--config", path]) == 2
    assert "stepsize" in capsys.readouterr().err


def test_validate_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate-config", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_validate_config_missing_file(tmp_path, capsys):
    assert main(["validate-config", "--config",
                 str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_solve_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "solve.json",
                       {"problem": "example1", "m": 20, "seed": 3,
                        "solvers": ["frb"], "tol": 1e-8})
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "frb on example1: converged" in stdout
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == \
        "problem,solver,m,n,seed,iters,final_err,elapsed_s,delta"
    assert summary[1].startswith("example1,frb,20,20,3,")
    # frb reads no delta, so its delta column is empty.
    assert summary[1].endswith(",")
    trace = (out / "frb_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "k,err,lambda,elapsed_s"
    assert len(trace) >= 2


def test_solve_divergence_exit_code(tmp_path, capsys, understated_example2):
    cfg = write_config(tmp_path, "div.json",
                       {"problem": "example2", "m": 30, "seed": 10,
                        "solvers": ["frb"], "max_iter": 2000})
    out = tmp_path / "div"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "divergence" in stdout
    trace = (out / "frb_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "k,err,lambda,elapsed_s"
    assert float(trace[-1].split(",")[1]) > 1e12


def test_experiment_divergence_trace_named_after_solver(
        tmp_path, capsys, understated_example2):
    # gfrb_adaptive converges on this instance; frb diverges.
    cfg = write_config(tmp_path, "div.json",
                       {"problem": "example2", "m": 30, "seed": 10,
                        "solvers": ["gfrb_adaptive", "frb"]})
    out = tmp_path / "div"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
    assert str(out / "frb_trace.csv") in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "frb_trace.csv", "gfrb_adaptive_trace.csv", "summary.csv"]
    trace = (out / "frb_trace.csv").read_text().strip().splitlines()
    assert float(trace[-1].split(",")[1]) > 1e12


def test_experiment_prints_a_divergence_once(tmp_path, capsys,
                                             understated_example2):
    cfg = write_config(tmp_path, "div.json",
                       {"problem": "example2", "m": 30, "seed": 10,
                        "solvers": ["gfrb_adaptive", "frb"]})
    out = tmp_path / "div"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert stdout.count("frb diverged at iteration 69") == 1
    assert "trace attached" not in stdout
    assert "gfrb_adaptive: distance to oracle" in stdout


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", str(REPO_ROOT / "configs" / "example1.json"),
     "--m", "20"],
    ["rate-table"],
], ids=["experiment", "rate-table"])
def test_unwritable_out_is_an_output_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(argv + ["--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("output error:")


def test_experiment_runs_all_solvers(tmp_path, capsys):
    cfg = write_config(tmp_path, "exp.json",
                       {"problem": "example1", "m": 25, "seed": 1,
                        "solvers": ["frb", "fbf"]})
    out = tmp_path / "exp"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "problem,solver,m,n,seed,iters,final_err,elapsed_s" in stdout
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3
    assert (out / "frb_trace.csv").exists()
    assert (out / "fbf_trace.csv").exists()


def test_experiment_rerun_removes_stale_traces(tmp_path, capsys):
    # A rerun into the same directory with fewer solvers must not leave
    # the dropped solver's trace beside a summary that does not list it.
    out = tmp_path / "rerun"
    for solvers in (["frb", "fbf"], ["frb"]):
        cfg = write_config(tmp_path, "rerun.json",
                           {"problem": "example1", "m": 25, "seed": 1,
                            "solvers": solvers})
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["frb_trace.csv",
                                                      "summary.csv"]
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert [row.split(",")[1] for row in summary[1:]] == ["frb"]


def test_diverged_rerun_rewrites_summary(tmp_path, capsys,
                                         understated_example2):
    # The second run diverges in both solvers; it must still run fbf and
    # replace the first run's summary and traces, not sit beside them.
    out = tmp_path / "rerun"
    for solvers, code in ((["gfrb_adaptive", "fb"], 0), (["frb", "fbf"], 3)):
        cfg = write_config(tmp_path, "rerun.json",
                           {"problem": "example2", "m": 30, "seed": 10,
                            "solvers": solvers})
        assert main(["experiment", "--config", cfg,
                     "--out", str(out)]) == code
    assert sorted(p.name for p in out.iterdir()) == [
        "fbf_trace.csv", "frb_trace.csv", "summary.csv"]
    summary = (out / "summary.csv").read_text().strip().splitlines()
    rows = [row.split(",") for row in summary[1:]]
    assert [(row[1], int(row[5])) for row in rows] == [("frb", 70),
                                                       ("fbf", 22)]
    for row in rows:
        trace = (out / f"{row[1]}_trace.csv").read_text().strip()
        assert len(trace.splitlines()) - 1 == int(row[5])


def test_experiment_name_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "exp2.json",
                       {"problem": "example2", "m": 25, "seed": 1,
                        "solvers": ["frb"]})
    out = tmp_path / "exp2"
    assert main(["experiment", "example1", "--config", cfg,
                 "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[1].startswith("example1,frb,")


def test_default_out_dir_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["rate-table", "--deterministic"]) == 0
    assert (tmp_path / "results" / "rate-table" / "rate_table.csv").exists()


@pytest.mark.parametrize("name", sorted(
    path.stem for path in (REPO_ROOT / "configs").glob("*.json")))
def test_shipped_configs_validate(name, capsys):
    path = REPO_ROOT / "configs" / f"{name}.json"
    assert path.exists()
    assert main(["validate-config", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("b, iters", [(0, 151), (0.5, 191), (1, 237)])
def test_experiment_runs_shipped_composite_config(tmp_path, capsys, b,
                                                  iters):
    with open(REPO_ROOT / "configs" / "composite.json") as fh:
        payload = json.load(fh)
    cfg = write_config(tmp_path, "composite.json", dict(payload, delta=b))
    out = tmp_path / "composite"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["epdtr_trace.csv",
                                                      "summary.csv"]
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[1].startswith(f"composite,epdtr,30,40,0,{iters},")
    trace = (out / "epdtr_trace.csv").read_text().strip().splitlines()
    assert len(trace) == 1 + iters
    (line,) = [line for line in stdout.splitlines()
               if line.startswith("epdtr: terminal residuals")]
    primal, dual = re.findall(r"primal (\S+), dual (\S+)$", line)[0]
    assert 0.0 <= float(primal) <= 1e-7 and 0.0 <= float(dual) <= 1e-7


def test_composite_experiment_estimates_norm_k_once(tmp_path, monkeypatch,
                                                    capsys):
    calls = []
    estimate = primal_dual.power_norm

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(primal_dual, "power_norm", counted)
    cfg = str(REPO_ROOT / "configs" / "composite.json")
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "composite")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("payload, field", [
    # Of the removed keys, the file's first, 'tau', is named.
    ({"problem": "example1", "m": 20, "tau": 0.1, "sigma": 50.0,
      "b_reflect": 3}, "'tau'"),
    # lam is removed: each fixed-step solver derives its own step.
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "delta": 0.3, "lam": 0.5}, "'lam'"),
    ({"problem": "example1", "m": 20, "reg_lambda": 0.5, "solvers": ["frb"]},
     "'reg_lambda'"),
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "k": 7}, "'k'"),
    # b_reflect is removed: delta is epdtr's reflection weight.
    ({"problem": "example1", "m": 20, "b_reflect": 3}, "'b_reflect'"),
    # Only gfrb_adaptive reads lambda0, and only the delta readers delta.
    ({"problem": "example1", "m": 20, "solvers": ["frb"], "lambda0": 0.5},
     "'lambda0'"),
    ({"problem": "example1", "m": 20, "solvers": ["frb"], "delta": 0.3},
     "'delta'"),
])
def test_validate_config_rejects_fields_the_solvers_never_read(
        tmp_path, capsys, payload, field):
    cfg = write_config(tmp_path, "unread.json", payload)
    assert main(["validate-config", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


@pytest.mark.parametrize("solvers, deltas, written", [
    (["gfrb_fixed", "gfrb_adaptive"],
     {"gfrb_adaptive": -0.4, "gfrb_fixed": -0.1}, "-0.10000000000000001"),
    (["frb", "gfrb_adaptive"], {"gfrb_adaptive": -0.4}, ""),
])
def test_solve_keeps_the_per_solver_delta_of_the_first_solver(
        tmp_path, capsys, solvers, deltas, written):
    # solve runs the first solver only, so the other entries, which would
    # name an unlisted solver, are dropped.
    cfg = write_config(tmp_path, "per.json", {
        "problem": "lasso", "m": 32, "n": 64, "k": 4, "solvers": solvers,
        "delta": deltas})
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    (row,) = (out / "summary.csv").read_text().splitlines()[1:]
    assert row.split(",")[1] == solvers[0]
    assert row.split(",")[8] == written


def test_validate_config_names_a_bad_per_solver_delta(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "problem": "example1", "m": 20,
        "delta": {"gfrb_adaptive": -0.4, "frb": 0.1}})
    assert main(["validate-config", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'delta.frb'")


def test_summary_final_err_is_accurate(tmp_path, capsys):
    cfg = write_config(tmp_path, "acc.json",
                       {"problem": "example1", "m": 30, "seed": 0,
                        "solvers": ["gfrb_fixed"], "tol": 1e-10})
    out = tmp_path / "acc"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    final_err = float(summary[1].split(",")[6])
    assert 0.0 <= final_err <= 1e-10
    trace = out / "gfrb_fixed_trace.csv"
    last = trace.read_text().strip().splitlines()[-1]
    assert float(last.split(",")[1]) == final_err


@pytest.mark.parametrize("flags, field", [(["--m", "0"], "'m'"),
                                          (["--m", "-3"], "'m'"),
                                          (["--seed", "-1"], "'seed'")])
@pytest.mark.parametrize("command", ["experiment", "solve",
                                     "validate-config"])
def test_bad_override_names_field(tmp_path, capsys, command, flags, field):
    cfg = write_config(tmp_path, "ok.json", {"problem": "example1", "m": 20})
    out = tmp_path / "never"
    argv = [command, "--config", cfg] + flags
    if command != "validate-config":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not out.exists()


def test_problem_override_is_checked_like_the_file(tmp_path, capsys):
    with open(REPO_ROOT / "configs" / "example1.json") as fh:
        payload = json.load(fh)
    cfg = write_config(tmp_path, "k.json", dict(payload, k=5000))
    out = tmp_path / "never"
    assert main(["experiment", "lasso", "--config", cfg,
                 "--out", str(out)]) == 2
    assert "'k'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate-config", "--config", cfg]) == 2
    assert "'k'" in capsys.readouterr().err


def test_good_override_reaches_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, "ov.json",
                       {"problem": "example1", "m": 20, "seed": 0,
                        "solvers": ["frb"]})
    out = tmp_path / "ov"
    assert main(["experiment", "--config", cfg, "--m", "30", "--seed", "4",
                 "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[1].startswith("example1,frb,30,30,4,")
    capsys.readouterr()
    assert main(["validate-config", "--config", cfg, "--m", "30",
                 "--seed", "4"]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("payload, phrase", [
    ({"problem": "example1", "m": 30}, "distance to oracle"),
    ({"problem": "lasso", "m": 32, "n": 64, "k": 4}, "terminal SNR"),
])
def test_experiment_prints_known_answer_lines(tmp_path, capsys, payload,
                                              phrase):
    solvers = ["gfrb_adaptive", "frb", "fbf"]
    cfg = write_config(tmp_path, "ka.json", dict(payload, solvers=solvers))
    out = tmp_path / "ka"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if phrase in line]
    assert [line.partition(":")[0] for line in lines] == solvers
    # The known answers leave summary.csv as the bare solver runs give it,
    # up to elapsed_s, its eighth column.
    config = load_config(cfg)
    instance = generate(config)
    bare = [summary_header()] + [
        summary_row(run_solver(instance, solver, config))
        for solver in solvers]
    written = (out / "summary.csv").read_text().splitlines()

    def untimed(line):
        cells = line.split(",")
        return cells[:7] + cells[8:]
    assert [untimed(line) for line in written] == \
        [untimed(line) for line in bare]


def _readme_sh_lines():
    text = (REPO_ROOT / "README.md").read_text()
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            line = line.partition("#")[0].strip()
            if line:
                yield line


def test_readme_commands_exist_and_parse():
    parser = build_parser()
    commands = 0
    for line in _readme_sh_lines():
        # A monosplit command may open the line or follow `do`/`;`, as in
        # a shell loop; a loop variable stands in for one number.
        for cmd in re.findall(r"(?:^|;|\bdo)\s*monosplit\s+([^;]*)", line):
            try:
                parser.parse_args(shlex.split(re.sub(r"\$\w+", "1", cmd)))
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
            commands += 1
        for script in re.findall(r"python3\s+(scripts/\S+\.py)", line):
            assert (REPO_ROOT / script).is_file(), script
    assert commands > 0


def _counted(monkeypatch, module, name):
    """Wrap ``module.name`` so each call is recorded; return the record."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command, reflected, solver_runs", [
    ("experiment", True, 1),
    ("solve", True, 1),
    ("experiment", False, 1),
    ("validate-config", True, 0),
])
def test_composite_run_builds_and_estimates_norm_k_once(
        tmp_path, monkeypatch, capsys, command, reflected, solver_runs):
    # ||K|| is estimated by the solve that derives the step pair, at any
    # delta, and validate-config runs no solve.
    cfg = str(REPO_ROOT / "configs" / "composite.json")
    if reflected:
        with open(cfg) as fh:
            payload = json.load(fh)
        cfg = write_config(tmp_path, "reflected.json",
                           dict(payload, delta=0.5))
    builds = _counted(monkeypatch, experiments, "generate")
    runs = _counted(monkeypatch, experiments, "run_solver")
    estimates = _counted(monkeypatch, primal_dual, "power_norm")
    argv = [command, "--config", cfg]
    if command != "validate-config":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert (len(builds), len(estimates), len(runs)) == \
        (1, solver_runs, solver_runs)


@pytest.mark.parametrize("command", ["experiment", "solve"])
@pytest.mark.parametrize("payload, field", [
    ({"problem": "example1", "m": 20, "c1": 0.4, "c2": 0.3}, "'c1'"),
    # A removed key.
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "seed": 0, "tau": 0.5, "sigma": 2.0}, "'tau'"),
    ({"problem": "example1", "m": 20, "solvers": ["frb", "frb"]},
     "'solvers'"),
    # Another removed key, at the value that used to overflow.
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "seed": 0, "b_reflect": 1e308}, "'b_reflect'"),
    # 2*(1+|b|) overflows: default_stepsizes would give (0, inf).
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "seed": 0, "delta": 1e308}, "'delta'"),
])
def test_rejected_config_creates_no_out_dir(tmp_path, monkeypatch, capsys,
                                            command, payload, field):
    runs = _counted(monkeypatch, experiments, "run_solver")
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "never"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not out.exists()
    assert runs == []


# The (gfrb_adaptive, gfrb_fixed) delta column of each shipped config.
SHIPPED_DELTAS = {
    "example1": ["0.10000000000000001", "0.10000000000000001"],
    "example2": ["-0.20000000000000001", "0.10000000000000001"],
    "lasso": ["-0.40000000000000002", "-0.10000000000000001"],
}


@pytest.mark.parametrize("name, iters", [
    ("example1", [45, 47, 45, 146, 51]),
    ("example2", [44, 78, 72, 50, 84]),
    ("lasso", [467, 2873, 2634, 1400, 3127]),
])
def test_experiment_runs_shipped_example_config(tmp_path, capsys, name,
                                                iters):
    cfg = str(REPO_ROOT / "configs" / f"{name}.json")
    out = tmp_path / name
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    rows = [row.split(",") for row in
            (out / "summary.csv").read_text().strip().splitlines()[1:]]
    assert [row[1] for row in rows] == ["gfrb_adaptive", "gfrb_fixed",
                                        "frb", "fbf", "rfb"]
    assert [int(row[5]) for row in rows] == iters
    # The delta each solver ran at; frb, fbf and rfb read none.
    assert [row[8] for row in rows] == SHIPPED_DELTAS[name] + ["", "", ""]
