import numpy as np
import pytest

from monosplit.experiments import (ExperimentConfig, config_from_dict,
                                   gen_composite, gen_example1, gen_example2,
                                   gen_lasso, generate, resolve,
                                   run_benchmark, run_solver, snr,
                                   summary_header)
from monosplit.operators import ForwardOperator, power_norm
from monosplit.primal_dual import EPDTRConfig, default_stepsizes, epdtr_solve
from monosplit.splitting import StopRule


def test_gen_example1_oracle_satisfies_optimality():
    inst = gen_example1(100, seed=4)
    b = inst.data["b"]
    x = inst.x_star
    grad = -(2.0 * x + b)  # must lie in the l1 subdifferential at x
    on = x != 0.0
    np.testing.assert_allclose(grad[on], np.sign(x[on]), atol=1e-12)
    assert np.all(np.abs(grad[~on]) <= 1.0 + 1e-12)
    assert inst.forward_b.lipschitz_hint == 2.0
    assert inst.dim == 100


def test_gen_example1_deterministic_and_seed_sensitive():
    a = gen_example1(50, seed=1).data["b"]
    b = gen_example1(50, seed=1).data["b"]
    c = gen_example1(50, seed=2).data["b"]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_example2_structure():
    inst = gen_example2(40, seed=10)
    E, M = inst.data["E"], inst.data["M"]
    np.testing.assert_allclose(E, E.T)
    sym_M = 0.5 * (M + M.T)
    assert np.min(np.linalg.eigvalsh(sym_M)) >= 0.1 - 1e-10
    assert inst.data["beta"] == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(E))))
    # Resolvent equals the dense solve.
    gen = np.random.default_rng(0)
    z = gen.standard_normal(40)
    lam = 0.37
    expected = np.linalg.solve(
        np.eye(40) + lam * (E + inst.data["beta"] * np.eye(40)), z)
    np.testing.assert_allclose(inst.resolvent_a(z, lam), expected,
                               rtol=1e-11, atol=1e-11)
    # Attached solution solves the single-valued inclusion.
    total = E + inst.data["beta"] * np.eye(40) + M
    np.testing.assert_allclose(total @ inst.x_star, -inst.data["b"],
                               atol=1e-8)
    assert inst.forward_b.lipschitz_hint == pytest.approx(
        np.linalg.norm(M, 2))


def test_gen_example2_beta_and_resolvent_from_one_decomposition():
    inst = gen_example2(30, seed=7)
    E, beta = inst.data["E"], inst.data["beta"]
    ref = np.max(np.abs(np.linalg.eigvalsh(E)))
    assert abs(beta - ref) <= 1e-12 * ref
    z = np.random.default_rng(4).standard_normal(30)
    for lam in (0.05, 1.3):
        expected = np.linalg.solve(np.eye(30) + lam * (E + beta * np.eye(30)),
                                   z)
        np.testing.assert_allclose(inst.resolvent_a(z, lam),
                                   expected, rtol=1e-11, atol=1e-11)


def test_gen_lasso_structure():
    inst = gen_lasso(m=60, n=200, k=10, seed=5)
    A, y, x_true = inst.data["A"], inst.data["y"], inst.data["x_true"]
    assert A.shape == (60, 200)
    assert np.count_nonzero(x_true) == 10
    assert inst.data["support"].shape == (10,)
    # Observation is signal plus small noise.
    assert np.linalg.norm(y - A @ x_true) <= 0.01 * np.sqrt(60) * 6.0
    # Column scale ~ 1/sqrt(m).
    assert abs(np.std(A) - 1.0 / np.sqrt(60)) <= 0.1 / np.sqrt(60)
    assert inst.x_star is None


def test_gen_lasso_bitwise_deterministic():
    a = gen_lasso(m=30, n=50, k=5, seed=9)
    b = gen_lasso(m=30, n=50, k=5, seed=9)
    np.testing.assert_array_equal(a.data["A"], b.data["A"])
    np.testing.assert_array_equal(a.data["y"], b.data["y"])
    np.testing.assert_array_equal(a.data["x_true"], b.data["x_true"])


def test_gen_composite_parts():
    problem, data = gen_composite(n=12, m_rows=8, seed=3)
    K, p = data["K"], data["p"]
    assert K.shape == (8, 12)
    x = np.ones(12)
    np.testing.assert_allclose(problem.forward_b(x), x - p)
    np.testing.assert_allclose(problem.linmap_k.apply(x), K @ x)
    assert problem.forward_b.lipschitz_hint == 1.0


def test_snr_values_and_errors():
    x_star = np.array([3.0, 4.0])
    assert snr(x_star, x_star + np.array([0.05, 0.0])) == pytest.approx(40.0)
    assert snr(x_star, x_star) == np.inf
    with pytest.raises(ValueError):
        snr(np.zeros(2), np.ones(2))


def test_config_from_dict_defaults_and_errors():
    cfg = config_from_dict({"problem": "example1", "m": 50})
    assert cfg.m == 50
    assert cfg.solvers == ("gfrb_adaptive", "gfrb_fixed", "frb", "fbf", "rfb")
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": "5"})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": -2})
    with pytest.raises(ValueError, match="problem"):
        config_from_dict({"problem": "nope"})
    with pytest.raises(ValueError, match="solvers"):
        config_from_dict({"solvers": ["nope"]})
    with pytest.raises(ValueError, match="x0_kind"):
        config_from_dict({"x0_kind": "spiral"})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": True})
    for key, value in (("tol", float("nan")), ("tol", float("inf")),
                       ("lambda0", float("inf")), ("lam", float("nan")),
                       ("lam", -1.0), ("noise_sigma", -0.1),
                       ("reg_lambda", -0.01), ("gamma_ratio", 2.0),
                       ("gamma_scale", -1.0), ("delta", float("nan")),
                       ("seed", -1), ("b_reflect", float("nan")),
                       ("b_reflect", float("inf"))):
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_dict({key: value})
    with pytest.raises(ValueError, match="'k'"):
        config_from_dict({"problem": "lasso", "k": 30, "n": 10})


def test_validate_config_boxes():
    cfg = config_from_dict({"problem": "example1"})
    resolve(cfg)
    bad = config_from_dict({"c1": 0.4, "c2": 0.3})
    with pytest.raises(ValueError, match="c1"):
        resolve(bad)
    with pytest.raises(ValueError, match="tau"):
        resolve(config_from_dict({"tau": 0.1}))
    # L = 1 and ||K||^2 = 4.27 on this instance: slack -4.27, then +0.59.
    composite = {"problem": "composite", "solvers": ["epdtr"], "n": 40,
                 "m": 30, "seed": 0}
    inadmissible = config_from_dict(dict(composite, tau=0.5, sigma=2.0))
    with pytest.raises(ValueError, match="tau"):
        resolve(inadmissible)
    fine = config_from_dict(dict(composite, tau=0.1, sigma=0.5))
    resolve(fine)


@pytest.mark.parametrize("payload, field", [
    ({"problem": "example1", "solvers": ["epdtr"]}, "'solvers'"),
    ({"problem": "composite", "solvers": ["epdtr", "frb"]}, "'solvers'"),
    ({"problem": "composite"}, "'solvers'"),
    ({"tau": 0.0, "sigma": 0.5}, "'tau'"),
    ({"tau": -0.1, "sigma": 0.5}, "'tau'"),
    ({"tau": float("inf"), "sigma": 0.5}, "'tau'"),
    ({"tau": 0.1, "sigma": float("nan")}, "'sigma'"),
    ({"tau": 0.1, "sigma": -1.0}, "'sigma'"),
    ({"tau": 0.1}, "'tau'"),
    ({"sigma": 0.1}, "'sigma'"),
])
def test_config_from_dict_rejects_bad_epdtr_fields(payload, field):
    with pytest.raises(ValueError, match=field):
        config_from_dict(payload)


def test_composite_runs_epdtr_with_its_default_steps():
    cfg = config_from_dict({"problem": "composite", "solvers": ["epdtr"],
                            "n": 12, "m": 8, "seed": 3, "b_reflect": 0.5,
                            "tol": 1e-9, "max_iter": 20000,
                            "x0_kind": "zeros"})
    inst = generate(cfg)
    problem, data = gen_composite(n=12, m_rows=8, seed=3)
    np.testing.assert_array_equal(inst.data["K"], data["K"])
    assert (inst.name, inst.dim) == ("composite", 12)
    result = run_solver(inst, "epdtr", cfg)
    L, norm_k = 1.0, 1.01 * power_norm(data["K"])
    tau, sigma = default_stepsizes(0.5, L, norm_k)
    x, _y, trace = epdtr_solve(problem, EPDTRConfig(tau, sigma, 0.5),
                               StopRule(tol=1e-9, max_iter=20000))
    assert result.converged and result.iterations == len(trace)
    np.testing.assert_array_equal(result.x, x)
    assert result.trace.errs == trace.errs
    assert result.trace.lambdas == trace.lambdas
    assert result.trace.primal_residual == trace.primal_residual


@pytest.mark.parametrize("solver, L, delta, bound", [
    ("frb", 2.0, 0.0, 1.0 / (2.0 * 2.0)),
    ("fbf", 2.0, 0.0, 1.0 / 2.0),
    ("gfrb_fixed", 2.0, 0.5, 1.0 / (2.0 * 2.0 * 1.5)),
    ("rfb", 1.0, 0.0, (np.sqrt(2.0) - 1.0) / 1.0),
    ("frb", None, 0.0, None),
], ids=["frb", "fbf", "gfrb_fixed", "rfb", "no-hint"])
def test_run_solver_fills_the_default_fixed_step(solver, L, delta, bound):
    inst = gen_example1(10, seed=0)
    inst.forward_b = ForwardOperator(inst.forward_b, lipschitz_hint=L)
    cfg = ExperimentConfig(problem="example1", m=10, solvers=(solver,),
                           delta=delta, max_iter=1)
    if bound is None:
        with pytest.raises(ValueError, match="frb needs an explicit step"):
            run_solver(inst, solver, cfg)
        return
    assert cfg.lam is None
    assert run_solver(inst, solver, cfg).trace.lambdas[0] == 0.9 * bound


@pytest.mark.parametrize("solver", ["gfrb_adaptive", "gfrb_fixed", "frb",
                                    "fbf", "rfb"])
def test_run_solver_example1_converges(solver):
    cfg = ExperimentConfig(problem="example1", m=50, seed=3, tol=1e-8)
    inst = generate(cfg)
    result = run_solver(inst, solver, cfg)
    assert result.converged
    assert np.linalg.norm(result.x - inst.x_star) <= 1e-6
    assert result.problem == "example1"
    assert result.n == 50


def test_run_solver_rejects_unknown():
    cfg = ExperimentConfig(m=10)
    inst = generate(cfg)
    with pytest.raises(ValueError):
        run_solver(inst, "newton", cfg)


def test_run_benchmark_writes_outputs(tmp_path):
    cfg = ExperimentConfig(problem="example1", m=30, seed=2,
                           solvers=("frb", "fbf"))
    results = run_benchmark(cfg, out_dir=str(tmp_path))
    assert len(results) == 2
    summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == summary_header()
    assert len(summary) == 3
    assert summary[1].startswith("example1,frb,30,30,2,")
    for solver in ("frb", "fbf"):
        assert (tmp_path / f"{solver}_trace.csv").exists()


@pytest.mark.filterwarnings("ignore::monosplit.splitting.StepSizeWarning")
def test_run_benchmark_keeps_running_past_a_divergence(tmp_path):
    # fb with lam = 1 diverges on this instance; gfrb_adaptive converges.
    cfg = config_from_dict({"problem": "example2", "m": 30, "seed": 10,
                            "solvers": ["fb", "gfrb_adaptive"], "lam": 1.0})
    fb, adaptive = run_benchmark(cfg, out_dir=str(tmp_path))
    assert (fb.solver, adaptive.solver) == ("fb", "gfrb_adaptive")
    assert fb.diverged and not fb.converged and fb.x is None
    assert fb.known_answer.startswith("fb diverged")
    assert fb.trace.errs[-1] > 1e12
    assert adaptive.converged and not adaptive.diverged
    summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == summary_header()
    assert [row.split(",")[1] for row in summary[1:]] == ["fb",
                                                          "gfrb_adaptive"]
    for solver in ("fb", "gfrb_adaptive"):
        assert (tmp_path / f"{solver}_trace.csv").exists()


def test_run_benchmark_deterministic_iterates():
    cfg = ExperimentConfig(problem="example1", m=25, seed=8,
                           solvers=("gfrb_adaptive",))
    r1 = run_benchmark(cfg)[0]
    r2 = run_benchmark(cfg)[0]
    np.testing.assert_array_equal(r1.x, r2.x)
    assert r1.trace.errs == r2.trace.errs
    assert r1.trace.lambdas == r2.trace.lambdas


@pytest.mark.parametrize("payload, match", [
    ({"problem": "example1", "m": 20, "c1": 0.4, "c2": 0.3},
     "config fields 'c1'/'c2'"),
    # L = 1 and ||K||^2 = 4.27 on this instance: slack -4.27.
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "seed": 0, "tau": 0.5, "sigma": 2.0}, "'tau'"),
])
def test_run_benchmark_checks_like_the_cli(monkeypatch, payload, match):
    calls = []
    monkeypatch.setattr("monosplit.experiments.run_solver",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=match):
        run_benchmark(config_from_dict(payload))
    assert calls == []


@pytest.mark.parametrize("cfg, field", [
    (ExperimentConfig(tol=float("nan"), m=10), "'tol'"),
    (ExperimentConfig(x0_kind="spiral", m=10), "'x0_kind'"),
    # The default solvers do not solve composite.
    (ExperimentConfig(problem="composite", m=5, n=4), "'solvers'"),
    (ExperimentConfig(m=-5), "'m'"),
], ids=["tol", "x0_kind", "solvers", "m"])
def test_run_benchmark_checks_a_hand_built_config(monkeypatch, cfg, field):
    calls = []
    for name in ("generate", "run_solver"):
        monkeypatch.setattr(f"monosplit.experiments.{name}",
                            lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=field):
        run_benchmark(cfg)
    assert calls == []
