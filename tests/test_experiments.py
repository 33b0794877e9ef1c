import json
import pathlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from monosplit import experiments, rng
from monosplit.experiments import (ExperimentConfig, config_from_dict,
                                   gen_composite, gen_example1, gen_example2,
                                   gen_lasso, generate, load_config, resolve,
                                   run_benchmark, run_solver, snr,
                                   summary_header)
from monosplit.operators import (ForwardOperator, make_affine_forward,
                                 power_norm, symmetric_affine_resolvent)
from monosplit.primal_dual import EPDTRConfig, default_stepsizes, epdtr_solve
from monosplit.splitting import StopRule

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
# stepsize.reflection_scale's reason for a delta it rejects, as a pattern.
_SCALE_REASON = r"must keep 2\*\(1\+\|delta\|\) finite"
EXAMPLE2_CONFIG = CONFIGS / "example2.json"


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
    E, M, P = inst.data["E"], inst.data["M"], inst.basis
    np.testing.assert_allclose(E, E.T)
    np.testing.assert_allclose(P.T @ P, np.eye(40), atol=1e-12)
    sym_M = 0.5 * (M + M.T)
    assert np.min(np.linalg.eigvalsh(sym_M)) >= 0.1 - 1e-10
    assert inst.data["beta"] == pytest.approx(
        np.max(np.abs(np.linalg.eigvalsh(E))))
    # Resolvent equals the dense solve, mapped through the basis.
    gen = np.random.default_rng(0)
    z = gen.standard_normal(40)
    lam = 0.37
    expected = np.linalg.solve(
        np.eye(40) + lam * (E + inst.data["beta"] * np.eye(40)), z)
    np.testing.assert_allclose(P @ inst.resolvent_a(P.T @ z, lam), expected,
                               rtol=1e-11, atol=1e-11)
    # So does the forward operator.
    x = gen.standard_normal(40)
    np.testing.assert_allclose(P @ inst.forward_b(P.T @ x),
                               M @ x + inst.data["b"], rtol=1e-11, atol=1e-11)
    # Attached solution solves the single-valued inclusion.
    total = E + inst.data["beta"] * np.eye(40) + M
    np.testing.assert_allclose(total @ (P @ inst.x_star), -inst.data["b"],
                               atol=1e-8)
    assert inst.forward_b.lipschitz_hint == pytest.approx(
        np.linalg.norm(M, 2))


def test_gen_example2_beta_and_resolvent_from_one_decomposition():
    inst = gen_example2(30, seed=7)
    E, beta = inst.data["E"], inst.data["beta"]
    ref = np.max(np.abs(np.linalg.eigvalsh(E)))
    assert abs(beta - ref) <= 1e-12 * ref
    z = np.random.default_rng(4).standard_normal(30)
    P = inst.basis
    for lam in (0.05, 1.3):
        expected = np.linalg.solve(np.eye(30) + lam * (E + beta * np.eye(30)),
                                   z)
        np.testing.assert_allclose(P @ inst.resolvent_a(P.T @ z, lam),
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


def test_gen_lasso_scales_its_normals_in_place_bitwise():
    # gen_lasso divides its draw by sqrt(m) in place, saving one m x n
    # array per build; the quotient is the out-of-place one bit for bit.
    A = gen_lasso(m=30, n=50, k=5, seed=9).data["A"]
    ref = rng.standard_normal(rng.substream(9, 0), (30, 50)) / np.sqrt(30)
    assert A.tobytes() == ref.tobytes()


def test_gen_lasso_bitwise_deterministic():
    a = gen_lasso(m=30, n=50, k=5, seed=9)
    b = gen_lasso(m=30, n=50, k=5, seed=9)
    np.testing.assert_array_equal(a.data["A"], b.data["A"])
    np.testing.assert_array_equal(a.data["y"], b.data["y"])
    np.testing.assert_array_equal(a.data["x_true"], b.data["x_true"])


@pytest.mark.parametrize("k", [7, 0, -1])
def test_gen_lasso_rejects_a_support_size_outside_1_to_n(k):
    # k = 7 > n = 5 used to build a 5-sparse signal, and k = -1 one with
    # n - 1 nonzeros (argsort's [:k]), without an error.
    with pytest.raises(ValueError, match=r"^k must satisfy 0 < k <= n = 5, "
                                         f"got {k}$"):
        gen_lasso(m=10, n=5, k=k)


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
    with pytest.raises(ValueError, match="^config root must be a JSON "
                                         "object$"):
        config_from_dict([1])
    with pytest.raises(ValueError, match="^config field 'solvers': must not "
                                         "be empty$"):
        config_from_dict({"solvers": []})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": "5"})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": -2})
    with pytest.raises(ValueError, match="problem"):
        config_from_dict({"problem": "nope"})
    with pytest.raises(ValueError, match="solvers"):
        config_from_dict({"solvers": ["nope"]})
    with pytest.raises(ValueError, match="'m'"):
        config_from_dict({"m": True})
    for key, value in (("tol", float("nan")), ("tol", float("inf")),
                       ("lambda0", float("inf")), ("lam", float("nan")),
                       ("lam", -1.0), ("noise_sigma", -0.1),
                       ("reg_lambda", -0.01), ("gamma_ratio", 2.0),
                       ("gamma_scale", -1.0), ("delta", float("nan")),
                       ("seed", -1), ("b_reflect", float("nan")),
                       ("b_reflect", float("inf")), ("epsilon", 2.0)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_dict({key: value})
    # Every step rule at delta scales by 2(1 + |delta|), which overflows.
    with pytest.raises(ValueError, match="^config field 'delta': delta "
                                         f"{_SCALE_REASON}"):
        config_from_dict({"delta": 1e308})
    with pytest.raises(ValueError, match="'k'"):
        config_from_dict({"problem": "lasso", "k": 30, "n": 10})


def test_config_path_keeps_its_step_messages():
    # _check rejects these before make_stepsize_state sees them.
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^config field 'lambda0': "
                                             "must be positive and finite$"):
            config_from_dict({"lambda0": value})


@pytest.mark.parametrize("name", ["example1", "example2", "lasso"])
def test_config_with_lambda_minus1_is_rejected(name):
    # A config that still carries a removed key fails naming the key.
    for key, value in (("lambda_minus1", 0.1), ("epsilon", 1e-4),
                       ("c1", 0.4049595), ("c2", 0.44995499999999994),
                       ("gamma_kind", "geometric"), ("gamma_ratio", 0.5),
                       ("gamma_scale", 1.0), ("tau", 0.1), ("sigma", 0.5),
                       ("x0_kind", "ones"), ("lam", 0.5)):
        d = json.loads((CONFIGS / f"{name}.json").read_text())
        d[key] = value
        with pytest.raises(ValueError, match=f"^config field '{key}': "
                                             "unknown field$"):
            config_from_dict(d)


@pytest.mark.parametrize("name, iters", [
    ("example1", [45, 44, 47, 50, 53]),
    ("example2", [53, 48, 45, 44, 45]),
    ("lasso", [969, 856, 791, 711, 594]),
])
def test_shipped_configs_sweep_delta(name, iters):
    # The c-box derives from delta, so each shipped config loads at any
    # delta; these are ROADMAP's gfrb_adaptive counts at delta = 0.1, 0,
    # -0.1, -0.2 and -0.3.
    base = json.loads((CONFIGS / f"{name}.json").read_text())
    counts = []
    for delta in (0.1, 0.0, -0.1, -0.2, -0.3):
        cfg = config_from_dict(dict(base, delta=delta,
                                    solvers=["gfrb_adaptive"]))
        (result,) = run_benchmark(cfg)
        assert result.converged
        counts.append(result.iterations)
    assert counts == iters


def _adaptive_counts(name, deltas, seeds):
    """{delta: gfrb_adaptive's counts on seeds} from the shipped config."""
    base = json.loads((CONFIGS / f"{name}.json").read_text())
    counts = {}
    for delta in deltas:
        counts[delta] = []
        for seed in seeds:
            cfg = config_from_dict(dict(base, seed=seed, delta=delta,
                                        solvers=["gfrb_adaptive"]))
            (result,) = run_benchmark(cfg)
            assert result.converged
            counts[delta].append(result.iterations)
    return counts


def test_lasso_negative_delta_gain_holds_beyond_seed_zero():
    # Lasso's delta = -0.1 against the old 0.1 on seeds 1-6: the cubic's
    # stable edge is larger on lasso's symmetric spectrum, so
    # gfrb_adaptive takes at least 15 % fewer iterations on every seed
    # (16.5-23.4 % measured).  Since the step keeps growing toward its
    # local estimate, the edge is no longer the whole effect.
    counts = _adaptive_counts("lasso", (0.1, -0.1, -0.4), range(1, 7))
    assert counts[0.1] == [1159, 943, 1476, 1030, 904, 884]
    assert counts[-0.1] == [947, 773, 1130, 821, 718, 738]
    for old, new in zip(counts[0.1], counts[-0.1]):
        assert new <= 0.85 * old
    # Against the geometric growth 1 + 0.5**k, which froze the step after
    # its first shrinks, delta = -0.1 takes at most 56 % of the iterations
    # (44.6-48.0 % measured).
    frozen = [1974, 1613, 2490, 1809, 1531, 1653]
    for old, new in zip(frozen, counts[-0.1]):
        assert new <= 0.56 * old
    # The shipped gfrb_adaptive delta = -0.4 takes at most 70 % of
    # -0.1's iterations on every seed (56.4-66.0 % measured).
    assert counts[-0.4] == [562, 498, 746, 516, 471, 416]
    for old, new in zip(counts[-0.1], counts[-0.4]):
        assert new <= 0.70 * old


def test_example2_negative_delta_gain_holds_on_every_seed():
    # example2's B is not symmetric, yet the shipped gfrb_adaptive
    # delta = -0.2 takes at most 87 % of delta = 0.1's iterations on
    # every seed 0-6 (81.8-85.5 % measured).
    counts = _adaptive_counts("example2", (0.1, -0.2), range(7))
    assert counts[0.1] == [56, 53, 55, 58, 55, 57, 55]
    assert counts[-0.2] == [46, 44, 47, 48, 46, 48, 45]
    for old, new in zip(counts[0.1], counts[-0.2]):
        assert new <= 0.87 * old


def _same_run(a, b):
    """Whether two RunResults hold the same iterates, bit for bit."""
    return (a.iterations == b.iterations and a.x.tobytes() == b.x.tobytes()
            and a.trace.errs == b.trace.errs
            and a.trace.lambdas == b.trace.lambdas)


def test_per_solver_delta_with_equal_entries_matches_the_scalar():
    solvers = ["gfrb_adaptive", "gfrb_fixed", "frb", "fbf", "rfb"]
    base = {"problem": "example2", "m": 30, "seed": 3, "solvers": solvers}
    scalar = run_benchmark(config_from_dict(dict(base, delta=-0.2)))
    per_solver = run_benchmark(config_from_dict(dict(
        base, delta={"gfrb_adaptive": -0.2, "gfrb_fixed": -0.2})))
    for a, b in zip(scalar, per_solver):
        assert a.converged and _same_run(a, b), a.solver
        assert a.delta == b.delta == (-0.2 if a.solver.startswith("gfrb")
                                      else None)


def test_lasso_per_solver_delta_leaves_the_other_solvers_unmoved():
    # The shipped lasso config gives gfrb_adaptive its own delta; every
    # other solver runs as under the scalar -0.1 it replaced.
    new = load_config(CONFIGS / "lasso.json")
    assert new.delta == {"gfrb_adaptive": -0.4, "gfrb_fixed": -0.1}
    solvers = ("gfrb_fixed", "frb", "fbf", "rfb")
    for seed in range(7):
        cfg = replace(new, seed=seed)
        inst = generate(cfg)
        for solver in solvers:
            old = run_solver(inst, solver, replace(cfg, delta=-0.1))
            assert old.converged
            assert _same_run(old, run_solver(inst, solver, cfg)), \
                (seed, solver)


_BOTH = ["gfrb_adaptive", "gfrb_fixed"]


@pytest.mark.parametrize("payload, name, reason", [
    *[({"solvers": _BOTH + [s],
        "delta": {"gfrb_adaptive": 0.1, "gfrb_fixed": 0.1, s: 0.1}},
       f"delta.{s}", "does not read delta")
      for s in ("frb", "fbf", "rfb", "fb")],
    # epdtr reads delta, but does not solve example1, so it is not listed.
    ({"solvers": _BOTH,
      "delta": {"gfrb_adaptive": 0.1, "gfrb_fixed": 0.1, "epdtr": 0.1}},
     "delta.epdtr", "is not listed in 'solvers'"),
    ({"solvers": ["gfrb_adaptive"],
      "delta": {"gfrb_adaptive": 0.1, "gfrb_fixed": 0.1}},
     "delta.gfrb_fixed", "is not listed in 'solvers'"),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": 0.1}},
     "delta.gfrb_fixed", "missing"),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": float("nan"),
                                  "gfrb_fixed": 0.1}},
     "delta.gfrb_adaptive", _SCALE_REASON),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": 0.1,
                                  "gfrb_fixed": float("-inf")}},
     "delta.gfrb_fixed", _SCALE_REASON),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": 0.1, "gfrb_fixed": 1e308}},
     "delta.gfrb_fixed", _SCALE_REASON),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": True, "gfrb_fixed": 0.1}},
     "delta.gfrb_adaptive", "bad type bool"),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": "-0.4",
                                  "gfrb_fixed": 0.1}},
     "delta.gfrb_adaptive", "bad type str"),
    # composite lists only epdtr, so an entry for a GFRB solver names a
    # solver that is not listed.
    ({"problem": "composite", "solvers": ["epdtr"], "n": 40, "m": 30,
      "delta": {"gfrb_adaptive": -0.4}},
     "delta.gfrb_adaptive", "is not listed in 'solvers'"),
])
def test_per_solver_delta_rejects_a_bad_entry_by_name(payload, name, reason):
    with pytest.raises(ValueError,
                       match=f"^config field '{name}': .*{reason}"):
        config_from_dict(dict({"problem": "example1", "m": 20}, **payload))


_HUGE = 10 ** 400


@pytest.mark.parametrize("payload, name", [
    ({"delta": _HUGE}, "delta"),
    ({"delta": -_HUGE}, "delta"),
    ({"lambda0": _HUGE}, "lambda0"),
    ({"tol": _HUGE}, "tol"),
    ({"problem": "lasso", "noise_sigma": _HUGE}, "noise_sigma"),
    ({"problem": "lasso", "reg_lambda": _HUGE}, "reg_lambda"),
    ({"solvers": _BOTH, "delta": {"gfrb_adaptive": 0.1, "gfrb_fixed": _HUGE}},
     "delta.gfrb_fixed"),
], ids=["delta", "delta-negative", "lambda0", "tol", "noise_sigma",
        "reg_lambda", "delta.gfrb_fixed"])
def test_an_integer_too_large_for_a_float_is_named(payload, name):
    # JSON reads a long digit string as an int, and math.isfinite raises
    # OverflowError on one past the float range; it is a bad value.
    with pytest.raises(ValueError, match=f"^config field '{name}': "):
        config_from_dict(dict({"problem": "example1", "m": 20}, **payload))


def test_per_solver_delta_is_checked_on_a_hand_built_config():
    cfg = ExperimentConfig(solvers=("gfrb_adaptive", "frb"),
                           delta={"gfrb_adaptive": 1e308})
    with pytest.raises(ValueError, match="^config field 'delta.gfrb_adaptive'"
                                         f": delta {_SCALE_REASON}"):
        run_benchmark(cfg)


def test_validate_config_boxes():
    cfg = config_from_dict({"problem": "example1"})
    resolve(cfg)
    with pytest.raises(ValueError, match="^config field 'delta': delta "
                                         f"{_SCALE_REASON}"):
        resolve(config_from_dict({"delta": 1e308}))


@pytest.mark.parametrize("payload, field", [
    ({"problem": "example1", "solvers": ["epdtr"]}, "'solvers'"),
    ({"problem": "composite", "solvers": ["epdtr", "frb"]}, "'solvers'"),
    ({"problem": "composite"}, "'solvers'"),
    # The removed step pair fails as an unknown field, whatever its value.
    ({"tau": 0.0}, "'tau'"),
    ({"tau": -0.1}, "'tau'"),
    ({"tau": float("inf")}, "'tau'"),
    ({"sigma": float("nan")}, "'sigma'"),
    ({"sigma": -1.0}, "'sigma'"),
    ({"tau": 0.1, "sigma": 0.5}, "'tau'"),
    ({"sigma": 0.1}, "'sigma'"),
    # So does the removed reflection weight; delta is epdtr's b.
    ({"problem": "composite", "solvers": ["epdtr"], "b_reflect": 1e308},
     "'b_reflect'"),
])
def test_config_from_dict_rejects_bad_epdtr_fields(payload, field):
    with pytest.raises(ValueError, match=f"^config field {field}: "):
        config_from_dict(payload)


def test_composite_runs_epdtr_with_its_default_steps():
    cfg = config_from_dict({"problem": "composite", "solvers": ["epdtr"],
                            "n": 12, "m": 8, "seed": 3, "delta": 0.5,
                            "tol": 1e-9, "max_iter": 20000})
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


_COMPOSITE = {"problem": "composite", "solvers": ["epdtr"], "n": 12, "m": 8,
              "seed": 3}


def _shipped_composite(**changes):
    """configs/composite.json as a dict, with ``changes`` applied."""
    return dict(json.loads((CONFIGS / "composite.json").read_text()),
                **changes)


@pytest.mark.parametrize("payload, b", [
    ({"delta": 0.5}, 0.5),
    ({"delta": {"epdtr": 0.5}}, 0.5),
    # A composite config without delta runs at the shared default.
    ({}, 0.1),
])
def test_composite_delta_reaches_epdtr_as_its_b(monkeypatch, payload, b):
    configs = []
    solve = experiments.epdtr_solve

    def spy(problem, cfg, stop):
        configs.append(cfg)
        return solve(problem, cfg, stop)

    monkeypatch.setattr(experiments, "epdtr_solve", spy)
    (result,) = run_benchmark(config_from_dict(dict(_COMPOSITE, **payload)))
    assert [cfg.b for cfg in configs] == [b]
    assert result.converged and result.delta == b


@pytest.mark.parametrize("delta, cell", [(0, "0"), ({"epdtr": 0.5}, "0.5")])
def test_epdtr_summary_row_ends_in_its_delta(tmp_path, delta, cell):
    run_benchmark(config_from_dict(dict(_COMPOSITE, delta=delta)), tmp_path)
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("composite,epdtr,8,12,3,")
    assert rows[1].split(",")[-1] == cell


@pytest.mark.parametrize("value", [0, 0.5, 1e308])
def test_composite_config_with_b_reflect_is_rejected(value):
    # delta is epdtr's reflection weight; the old key fails by name.
    with pytest.raises(ValueError, match="^config field 'b_reflect': "
                                         "unknown field$"):
        config_from_dict(_shipped_composite(b_reflect=value))


@pytest.mark.parametrize("key, value", [("lambda0", 0.1)])
def test_composite_rejects_the_step_fields_epdtr_never_reads(key, value):
    with pytest.raises(ValueError, match=f"^config field '{key}': epdtr, "
                                         "the solver of 'composite', does "
                                         "not read it$"):
        config_from_dict(_shipped_composite(**{key: value}))


@pytest.mark.parametrize("delta, name", [
    # 2*(1+|b|) overflows, so default_stepsizes would return (0, inf).
    (1e308, "delta"),
    ({"epdtr": -1e308}, "delta.epdtr"),
    (float("inf"), "delta"),
])
def test_composite_delta_out_of_range_is_named(delta, name):
    with pytest.raises(ValueError, match=f"^config field '{name}': delta "
                                         f"{_SCALE_REASON}"):
        config_from_dict(_shipped_composite(delta=delta))


@pytest.mark.parametrize("solver, L, delta, bound", [
    ("frb", 2.0, 0.0, 1.0 / (2.0 * 2.0)),
    ("fbf", 2.0, 0.0, 1.0 / 2.0),
    ("gfrb_fixed", 2.0, 0.5, 1.0 / (2.0 * 2.0 * 1.5)),
    ("rfb", 1.0, 0.0, (np.sqrt(2.0) - 1.0) / 1.0),
    ("frb", None, 0.0, None),
    ("frb", 0.0, 0.0, None),
], ids=["frb", "fbf", "gfrb_fixed", "rfb", "no-hint", "zero-hint"])
def test_run_solver_fills_the_default_fixed_step(solver, L, delta, bound):
    inst = gen_example1(10, seed=0)
    inst.forward_b = ForwardOperator(inst.forward_b, lipschitz_hint=L)
    cfg = ExperimentConfig(problem="example1", m=10, solvers=(solver,),
                           delta=delta, max_iter=1)
    if bound is None:
        with pytest.raises(ValueError, match="frb needs an explicit step"):
            run_solver(inst, solver, cfg)
        return
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


@pytest.mark.parametrize("m", [30, 200])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_example2_eigenbasis_run_matches_the_dense_run(m, seed):
    # The shipped instance is posed in u = P^T x.  The same problem posed
    # densely in x, from the same x0 = ones, must take the same number of
    # iterations and end at the same point, mapped back through the basis.
    cfg = load_config(EXAMPLE2_CONFIG, m=m, seed=seed)
    inst = generate(cfg)
    E, M, b, beta = (inst.data[k] for k in ("E", "M", "b", "beta"))
    dense = replace(inst, resolvent_a=symmetric_affine_resolvent(E, beta),
                    forward_b=make_affine_forward(M, b), x0=np.ones(m),
                    x_star=inst.basis @ inst.x_star, basis=None)
    for solver in cfg.solvers:
        in_u = run_solver(inst, solver, cfg)
        in_x = run_solver(dense, solver, cfg)
        assert in_u.converged and in_x.converged, solver
        assert in_u.iterations == in_x.iterations, solver
        gap = np.linalg.norm(inst.basis @ in_u.x - in_x.x)
        assert gap <= 1e-12 * max(1.0, np.linalg.norm(in_x.x)), solver


@pytest.mark.parametrize("problem, start", [
    ("example1", np.ones), ("example2", np.ones), ("lasso", np.zeros),
    ("composite", np.zeros)], ids=["example1", "example2", "lasso",
                                   "composite"])
def test_run_solver_starts_from_the_instance_x0(monkeypatch, problem,
                                                start):
    # The first point run_solver hands on, to B or (on composite) to
    # epdtr_solve, is the x0 the generator attached, bit for bit; the
    # start is ones or zeros in the problem's own coordinates.
    solver = "epdtr" if problem == "composite" else "gfrb_adaptive"
    cfg = ExperimentConfig(problem=problem, solvers=(solver,), m=20, n=30,
                           k=3, max_iter=1)
    inst = generate(cfg)
    assert inst.x0.shape == (inst.dim,)
    points = []
    if problem == "composite":
        solve = epdtr_solve

        def recording(composite, *args):
            points.append(np.array(composite.x0))
            return solve(composite, *args)
        monkeypatch.setattr("monosplit.experiments.epdtr_solve", recording)
    else:
        B = inst.forward_b

        def recording(u):
            points.append(np.array(u))
            return B(u)
        inst.forward_b = ForwardOperator(recording, B.lipschitz_hint)
    # gfrb_adaptive first evaluates B at x0, to build its probe seed.
    run_solver(inst, solver, cfg)
    assert points[0].tobytes() == inst.x0.tobytes()
    ones_or_zeros = start(inst.dim)
    if inst.basis is not None:
        ones_or_zeros = inst.basis.T @ ones_or_zeros
    assert points[0].tobytes() == ones_or_zeros.tobytes()


@pytest.mark.parametrize("name, iters", [("example1", 45), ("example2", 44)])
def test_probe_start_needs_no_lambda0_guess(name, iters):
    # From its probe seed gfrb_adaptive shrinks a too-large lambda0 on the
    # first update, so the shipped configs take the same count from any
    # lambda0 in [0.1, 100].
    cfg = load_config(CONFIGS / f"{name}.json")
    inst = generate(cfg)
    for lam0 in (0.1, 1.0, 10.0, 100.0):
        res = run_solver(inst, "gfrb_adaptive",
                         replace(cfg, lambda0=lam0))
        assert res.converged and res.iterations == iters, lam0
        assert np.linalg.norm(res.x - inst.x_star) <= 1e-5, lam0


@pytest.mark.parametrize("name, iters", [
    ("lasso", [1904, 579, 462]),
    ("example1", [362, 123, 53]),
    ("example2", [119, 49, 44])])
def test_small_lambda0_recovers_without_a_lipschitz_guess(name, iters):
    # The harmonic growth can raise the step up to GROWTH_HORIZON + 1
    # fold, so a lambda0 far below the local estimate recovers.  Under the
    # geometric 1 + 0.5**k, lasso converged from none of these, example1
    # only from 1e-2 and example2 only from 1e-3 and 1e-2; example2 from
    # 1e-4 and example1 from 1e-3 stopped far from x*.  The natural
    # residual ||x - J(x - B(x)/L, 1/L)|| * L is the benchmark's oracle.
    # Each count is at its config's gfrb_adaptive delta.
    cfg = load_config(CONFIGS / f"{name}.json")
    inst = generate(cfg)
    B, J = inst.forward_b, inst.resolvent_a
    counts = []
    for lam0 in (1e-4, 1e-3, 1e-2):
        res = run_solver(inst, "gfrb_adaptive", replace(cfg, lambda0=lam0))
        assert res.converged, lam0
        L = B.lipschitz_hint
        residual = np.linalg.norm(res.x - J(res.x - B(res.x) / L, 1.0 / L))
        assert residual * L <= 1e-3, lam0
        if inst.x_star is not None:
            assert np.linalg.norm(res.x - inst.x_star) <= 1e-4, lam0
        counts.append(res.iterations)
    assert counts == iters


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(problem="example1", m=30, seed=1),
    ExperimentConfig(problem="example2", m=30, seed=1),
    ExperimentConfig(problem="lasso", m=32, n=64, k=4, seed=1)],
    ids=["example1", "example2", "lasso"])
def test_run_solver_adaptive_evaluates_B_iterations_plus_one(cfg):
    # B(x0) once for the probe and the first pass, B(probe) once, then
    # one evaluation per later pass.
    inst = generate(cfg)
    calls = []

    def counting(x, B=inst.forward_b):
        calls.append(1)
        return B(x)
    inst.forward_b = ForwardOperator(counting, inst.forward_b.lipschitz_hint)
    result = run_solver(inst, "gfrb_adaptive", cfg)
    assert result.converged
    assert len(calls) == result.iterations + 1


def test_run_solver_rejects_unknown():
    cfg = ExperimentConfig(m=10)
    inst = generate(cfg)
    with pytest.raises(ValueError):
        run_solver(inst, "newton", cfg)
    # generate does not run _check, so it names a bad problem itself.
    with pytest.raises(ValueError, match="^unknown problem 'nope'$"):
        generate(replace(cfg, problem="nope"))


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


def test_run_benchmark_keeps_running_past_a_divergence(tmp_path,
                                                      understated_example2):
    # frb diverges on this instance at 4 times its bound; gfrb_adaptive,
    # which reads no hint, converges.
    cfg = config_from_dict({"problem": "example2", "m": 30, "seed": 10,
                            "solvers": ["frb", "gfrb_adaptive"]})
    frb, adaptive = run_benchmark(cfg, out_dir=str(tmp_path))
    assert (frb.solver, adaptive.solver) == ("frb", "gfrb_adaptive")
    assert frb.diverged and not frb.converged and frb.x is None
    assert frb.known_answer.startswith("frb diverged")
    assert frb.trace.errs[-1] > 1e12
    assert adaptive.converged and not adaptive.diverged
    summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == summary_header()
    assert [row.split(",")[1] for row in summary[1:]] == ["frb",
                                                          "gfrb_adaptive"]
    for solver in ("frb", "gfrb_adaptive"):
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
    ({"problem": "example1", "m": 20, "delta": 1e308},
     "config field 'delta'"),
    # A removed key.
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
    # The default solvers do not solve composite.
    (ExperimentConfig(problem="composite", m=5, n=4), "'solvers'"),
    (ExperimentConfig(m=-5), "'m'"),
    (ExperimentConfig(m="5"), "'m'"),
    (ExperimentConfig(tol="1e-6"), "'tol'"),
    (ExperimentConfig(solvers="frb"), "'solvers'"),
    (ExperimentConfig(seed=1.5), "'seed'"),
    (ExperimentConfig(m=True), "'m'"),
], ids=["tol", "solvers", "m", "m-str", "tol-str", "solvers-str",
        "seed-float", "m-bool"])
def test_run_benchmark_checks_a_hand_built_config(monkeypatch, cfg, field):
    calls = []
    for name in ("generate", "run_solver"):
        monkeypatch.setattr(f"monosplit.experiments.{name}",
                            lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=field):
        run_benchmark(cfg)
    assert calls == []


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_check_names_a_field_of_the_wrong_type(monkeypatch, name):
    calls = []
    monkeypatch.setattr("monosplit.experiments.generate",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"config field '{name}': bad type"):
        resolve(ExperimentConfig(**{name: object()}))
    assert calls == []


def test_run_benchmark_runs_a_config_of_numpy_scalars():
    cfg = ExperimentConfig(m=np.int64(20), seed=np.int64(1),
                           max_iter=np.int64(300), tol=np.float64(1e-6),
                           solvers=("frb",))
    (result,) = run_benchmark(cfg)
    assert result.converged and not result.diverged
    assert result.known_answer.startswith("distance to oracle")


def test_readme_config_table_names_every_field():
    # README's config-field table lists each ExperimentConfig field once
    # and nothing else, so a config change cannot leave it stale.
    readme = (CONFIGS.parent / "README.md").read_text()
    table = readme.split("| field | meaning | default |\n|---|---|---|\n")
    assert len(table) == 2
    named = []
    for row in table[1].splitlines():
        if not row.startswith("|"):
            break
        named += re.findall(r"`(\w+)`", row.split("|")[1])
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))


def test_every_config_field_is_set_by_a_shipped_config():
    # A field no file in configs/ sets runs at one value everywhere, so it
    # should be a constant, not a knob.
    keys = set()
    for path in CONFIGS.glob("*.json"):
        keys.update(json.loads(path.read_text()))
    assert sorted({f.name for f in fields(ExperimentConfig)} - keys) == []
