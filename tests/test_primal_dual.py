import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import CallCounter, counting_forward, delta_reason
from oracles import (coupling_matrix, expanded_epdtr_drive, gfrb_in_metric,
                     linear_composite_instance, metric_matrix,
                     run_epdtr_steps)

from monosplit import primal_dual
from monosplit.experiments import gen_composite
from monosplit.operators import (ForwardOperator, LinearMap, l1_resolvent,
                                 zero_resolvent)
from monosplit.primal_dual import (CompositeProblem, EPDTRConfig,
                                   PrimalDualState, check_stepsizes,
                                   default_stepsizes, epdtr_solve, epdtr_step,
                                   region_grid, resolvent_of_inverse)
from monosplit.splitting import StepSizeWarning, StopRule


def test_check_stepsizes_formula_and_strictness():
    ok, slack = check_stepsizes(0.1, 0.2, 0.5, 1.0, 1.0)
    assert slack == pytest.approx(1.0 - (2 * 0.1 * 1.5 + 0.1 * 0.2))
    assert ok
    # Exactly zero slack is inadmissible.
    ok, slack = check_stepsizes(0.25, 2.0, 0.0, 1.0, 1.0)
    assert slack == pytest.approx(0.0)
    assert not ok
    with pytest.raises(ValueError):
        check_stepsizes(0.0, 0.1, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("b, L, norm_k", [(0.5, 1.0, 1.0), (0.3, 1.7, 2.3)])
def test_check_stepsizes_slack_is_region_grids_bitwise(b, L, norm_k):
    taus, sigmas, slack = region_grid(b, L, norm_k, n=400)
    regrouped = 0
    for i in range(0, 400, 7):
        for j in range(0, 400, 7):
            tau, sigma = taus[i], sigmas[j]
            assert check_stepsizes(tau, sigma, b, L, norm_k)[1] == slack[i, j]
            regrouped += 1.0 - (2.0 * tau * (1.0 + abs(b)) * L
                                + tau * sigma * norm_k ** 2) != slack[i, j]
    # The other grouping differs in the last bits somewhere on the grid.
    assert regrouped > 0


def test_default_stepsizes_balance_and_budget():
    for b, L, nk in [(0.0, 1.0, 1.0), (0.5, 2.0, 3.0), (2.0, 0.3, 0.4)]:
        tau, sigma = default_stepsizes(b, L, nk)
        fwd_term = 2.0 * tau * (1.0 + abs(b)) * L
        coupling = tau * sigma * nk ** 2
        assert fwd_term == pytest.approx(coupling, rel=1e-12)
        assert fwd_term + coupling == pytest.approx(0.95, rel=1e-12)
        ok, _ = check_stepsizes(tau, sigma, b, L, nk)
        assert ok


def test_default_stepsizes_degenerate_cases():
    tau, sigma = default_stepsizes(0.0, 0.0, 2.0)
    assert tau == sigma == pytest.approx(np.sqrt(0.95) / 2.0)
    tau, sigma = default_stepsizes(1.0, 3.0, 0.0)
    assert tau == pytest.approx(0.95 / 12.0)
    assert default_stepsizes(0.0, 0.0, 0.0) == (1.0, 1.0)


def test_default_stepsizes_take_a_term_that_underflows_as_zero():
    # 1e-200 ** 2 is 0.0, which used to divide sigma by zero, and 1e-320
    # alone gave (inf, inf).
    assert default_stepsizes(0.0, 1.0, 1e-200) == \
        default_stepsizes(0.0, 1.0, 0.0)
    assert default_stepsizes(0.0, 0.0, 1e-320) == (1.0, 1.0)


def test_resolvent_of_inverse_identity_operator():
    gen = np.random.default_rng(1)
    identity_res = lambda z, lam: z / (1.0 + lam)
    for _ in range(5):
        y = gen.standard_normal(6)
        sigma = float(gen.uniform(0.1, 3.0))
        out = resolvent_of_inverse(identity_res, sigma, y)
        np.testing.assert_allclose(out, y / (1.0 + sigma), rtol=1e-12)


def test_resolvent_of_inverse_l1_gives_box_projection():
    y = np.array([2.0, -0.5, -3.0])
    for sigma in (0.3, 1.0, 4.0):
        out = resolvent_of_inverse(l1_resolvent(), sigma, y)
        np.testing.assert_allclose(out, [1.0, -0.5, -1.0], atol=1e-12)


def test_epdtr_step_matches_metric_recursion():
    for seed in range(3):
        parts = linear_composite_instance(seed)
        A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = parts
        n, m = x0.size, y0.size
        cfg = EPDTRConfig(tau=0.11, sigma=0.17, b=0.7)
        traj = run_epdtr_steps(parts, cfg, 50)
        M = metric_matrix(cfg.tau, cfg.sigma, K)
        G = coupling_matrix(A_mat, Cinv_mat, K)
        F_mat = np.zeros((n + m, n + m))
        F_mat[:n, :n] = B_mat
        f_vec = np.concatenate([b_vec, np.zeros(m)])
        z0 = np.concatenate([x0, y0])
        ref = gfrb_in_metric(M, G, F_mat, f_vec, z0, z0, z0, cfg.b, 50)
        assert np.max(np.abs(traj - ref)) <= 1e-10


def test_epdtr_b_zero_matches_two_term_recursion():
    parts = linear_composite_instance(21)
    A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = parts
    n, m = x0.size, y0.size
    cfg = EPDTRConfig(tau=0.12, sigma=0.15, b=0.0)
    traj = run_epdtr_steps(parts, cfg, 50)
    # Plain two-term reflected primal-dual recursion, written directly.
    x, x_prev, y = x0.copy(), x0.copy(), y0.copy()
    Bx, Bx_prev = B_mat @ x + b_vec, B_mat @ x + b_vec
    Kx = K @ x
    ref = []
    for _ in range(50):
        drive = x - cfg.tau * (K.T @ y) - cfg.tau * (2.0 * Bx - Bx_prev)
        x_new = np.linalg.solve(np.eye(n) + cfg.tau * A_mat, drive)
        Kx_new = K @ x_new
        y_new = np.linalg.solve(
            np.eye(m) + cfg.sigma * Cinv_mat,
            y + cfg.sigma * (2.0 * Kx_new - Kx))
        x_prev, x = x, x_new
        Bx_prev, Bx = Bx, B_mat @ x_new + b_vec
        y, Kx = y_new, Kx_new
        ref.append(np.concatenate([x, y]))
    assert np.max(np.abs(traj - np.array(ref))) <= 1e-14


def _epdtr_step_expanded(state, cfg, resolvent_a, forward_b, linmap_k,
                         resolvent_c_inv):
    """epdtr_step with the oracle's hand-expanded primal drive."""
    drive = expanded_epdtr_drive(state.x, linmap_k.apply_adjoint(state.y),
                                 state.Bx, state.Bx_prev, state.Bx_prev2,
                                 cfg.tau, cfg.b)
    x_new = np.asarray(resolvent_a(drive, cfg.tau), dtype=float)
    Kx_new = np.asarray(linmap_k.apply(x_new), dtype=float)
    y_new = np.asarray(resolvent_c_inv(
        state.y + cfg.sigma * (2.0 * Kx_new - state.Kx), cfg.sigma),
        dtype=float)
    return PrimalDualState(x=x_new, x_prev=state.x, x_prev2=state.x_prev,
                           y=y_new, Bx=np.asarray(forward_b(x_new)),
                           Bx_prev=state.Bx, Bx_prev2=state.Bx_prev,
                           Kx=Kx_new)


@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_shared_kernel_drive_matches_the_expanded_drive(monkeypatch, seed,
                                                        b):
    # The primal drive formed with splitting's reflected kernel differs
    # from the hand-expanded coefficients (b+2, -(2b+1), b) only by
    # rounding: the same iteration count, the returned x within 1e-15
    # (at most 6.7e-16 on these 18 runs) and every iterate, dual
    # included, within 4e-15 (at most 2.2e-15; |x|, |y| <= 2.3).
    paths, xs = [], []
    for step in (epdtr_step, _epdtr_step_expanded):
        path = []

        def recording(*args, step=step, path=path):
            new = step(*args)
            path.append(np.concatenate([new.x, new.y]))
            return new

        monkeypatch.setattr(primal_dual, "epdtr_step", recording)
        problem, _ = gen_composite(40, 30, seed)
        x, _, _ = epdtr_solve(problem, EPDTRConfig(b=b),
                              StopRule(tol=1e-8, max_iter=20000))
        paths.append(np.array(path))
        xs.append(x)
    shared, expanded = paths
    assert shared.shape == expanded.shape
    assert np.max(np.abs(xs[0] - xs[1])) <= 1e-15
    assert np.max(np.abs(shared - expanded)) <= 4e-15


def test_metric_matrix_positive_definite_inside_region():
    gen = np.random.default_rng(8)
    K = gen.standard_normal((3, 5)) / 3.0
    nk = np.linalg.norm(K, 2)
    tau = 0.5
    sigma = 0.9 / (tau * nk ** 2)
    assert tau * sigma * nk ** 2 < 1.0
    M = metric_matrix(tau, sigma, K)
    np.testing.assert_allclose(M, M.T)
    assert np.min(np.linalg.eigvalsh(M)) > 0.0


def test_epdtr_solve_composite_residuals_and_unique_solution():
    gen = np.random.default_rng(33)
    n, m = 20, 12
    K = gen.standard_normal((m, n)) / np.sqrt(m)
    p = gen.standard_normal(n)
    from monosplit.operators import ForwardOperator
    problem = CompositeProblem(
        resolvent_a=zero_resolvent(),
        forward_b=ForwardOperator(lambda x: x - p, lipschitz_hint=1.0),
        linmap_k=LinearMap.from_matrix(K),
        resolvent_c=l1_resolvent(),
        x0=np.zeros(n), y0=np.zeros(m))
    tol = 1e-9
    xs = {}
    for b in (0.0, 1.0):
        tau, sigma = default_stepsizes(b, 1.0, np.linalg.norm(K, 2))
        x, y, trace = epdtr_solve(problem, EPDTRConfig(tau, sigma, b),
                                  StopRule(tol=tol, max_iter=20000))
        assert trace.converged
        assert trace.primal_residual <= 10.0 * tol
        assert trace.dual_residual <= 10.0 * tol
        xs[b] = x
    # Strongly monotone B makes the solution unique across b.
    assert np.linalg.norm(xs[0.0] - xs[1.0]) <= 1e-6

    # Dual box-projection oracle: x* = p - K^T y* with y* solving the
    # box-constrained quadratic by projected gradient.
    y = np.zeros(m)
    step = 1.0 / (np.linalg.norm(K, 2) ** 2)
    for _ in range(200000):
        y = np.clip(y + step * (K @ p - K @ (K.T @ y)), -1.0, 1.0)
    x_ref = p - K.T @ y
    assert np.linalg.norm(xs[0.0] - x_ref) <= 1e-6


def test_epdtr_solve_warns_outside_region():
    gen = np.random.default_rng(4)
    n, m = 6, 4
    K = gen.standard_normal((m, n))
    p = gen.standard_normal(n)
    from monosplit.operators import ForwardOperator
    problem = CompositeProblem(
        resolvent_a=zero_resolvent(),
        forward_b=ForwardOperator(lambda x: x - p, lipschitz_hint=1.0),
        linmap_k=LinearMap.from_matrix(K),
        resolvent_c=l1_resolvent())
    with pytest.warns(StepSizeWarning):
        epdtr_solve(problem, EPDTRConfig(tau=5.0, sigma=5.0, b=0.0),
                    StopRule(tol=1e-3, max_iter=3))


def test_epdtr_solve_rejects_forward_value_of_wrong_shape():
    # epdtr_step writes into multiples of B(x) in place, so B(x) must have
    # x's shape; a column vector is rejected, not broadcast.
    K = np.random.default_rng(5).standard_normal((4, 6))
    from monosplit.operators import ForwardOperator
    problem = CompositeProblem(
        resolvent_a=zero_resolvent(),
        forward_b=ForwardOperator(lambda x: x[:, None], lipschitz_hint=1.0),
        linmap_k=LinearMap.from_matrix(K),
        resolvent_c=l1_resolvent())
    with pytest.raises(ValueError, match=r"shape \(6, 1\)"):
        epdtr_solve(problem, EPDTRConfig(tau=0.1, sigma=0.1, b=0.0),
                    StopRule(tol=1e-3, max_iter=3))


@pytest.mark.parametrize("cfg", [EPDTRConfig(0.3, 0.5, 0.0), EPDTRConfig()])
def test_epdtr_solve_without_lipschitz_hint_never_estimates_norm_k(
        monkeypatch, cfg):
    # Both uses of ||K||, the default steps and the admissibility check,
    # need L; without a hint the steps must be given, and ||K|| is unused.
    calls = []
    estimate = primal_dual.power_norm

    def counted(K):
        calls.append(K)
        return estimate(K)

    monkeypatch.setattr(primal_dual, "power_norm", counted)
    problem, _ = gen_composite(40, 30, 0)
    problem = replace(problem, forward_b=ForwardOperator(problem.forward_b))
    stop = StopRule(tol=1e-6, max_iter=20)
    if cfg.tau is None:
        with pytest.raises(ValueError,
                           match="default step sizes need a lipschitz_hint"):
            epdtr_solve(problem, cfg, stop)
    else:
        epdtr_solve(problem, cfg, stop)
    assert calls == []


def counted_composite():
    """gen_composite(40, 30, 0) with B, K and K* counted, and the same
    problem without a Lipschitz hint; the counters are shared."""
    problem, _ = gen_composite(40, 30, 0)
    forward, b_calls = counting_forward(problem.forward_b,
                                        problem.forward_b.lipschitz_hint)
    K = problem.linmap_k
    apply, adjoint = CallCounter(K.apply), CallCounter(K.apply_adjoint)
    problem = replace(problem, forward_b=forward,
                      linmap_k=LinearMap(apply, adjoint, K.shape))
    hintless = replace(problem, forward_b=ForwardOperator(forward))
    return (problem, hintless), (b_calls, apply, adjoint)


@pytest.mark.parametrize("steps, unset", [({"tau": 1.0}, "sigma"),
                                          ({"sigma": 0.5}, "tau")])
def test_half_set_step_pair_is_rejected_by_name(steps, unset):
    # A default for the missing step is sized for the default partner:
    # tau = 1.0 with it runs outside the region and diverges.  One step
    # alone fails before B or K is evaluated, with or without a hint.
    problems, counters = counted_composite()
    for problem in problems:
        with pytest.raises(ValueError, match=f"^step {unset} is unset"):
            epdtr_solve(problem, EPDTRConfig(**steps), StopRule(max_iter=5))
    assert [c.count for c in counters] == [0, 0, 0]


@pytest.mark.parametrize("b", [float("inf"), float("nan"), 1e308])
@pytest.mark.parametrize("steps", [{}, {"tau": 0.1, "sigma": 0.5}],
                         ids=["default-pair", "explicit-pair"])
def test_bad_reflection_weight_is_rejected_by_name(b, steps):
    # 2*(1+|b|) overflows: the default pair would be (0, inf) and an
    # explicit pair's slack -inf.  Either fails before B or K is
    # evaluated, by the GFRB delta rule b is, with or without a hint.
    problems, counters = counted_composite()
    for problem in problems:
        with pytest.raises(ValueError, match=f"^delta {delta_reason(b)}"):
            epdtr_solve(problem, EPDTRConfig(b=b, **steps),
                        StopRule(max_iter=5))
    assert [c.count for c in counters] == [0, 0, 0]


@pytest.mark.parametrize("name, bad", [
    ("x0", np.zeros(7)), ("x0", np.zeros((40, 1))), ("x0", 0.0),
    ("y0", np.zeros(40)), ("y0", np.zeros((1, 30)))],
    ids=["x0-short", "x0-column", "x0-scalar", "y0-long", "y0-row"])
def test_misshapen_seed_is_rejected_by_name(monkeypatch, name, bad):
    # K is 30x40, so x0 must be (40,) and y0 (30,); anything else fails,
    # naming the seed, before step_pair, B, K, K* or a resolvent runs.
    monkeypatch.setattr(primal_dual, "step_pair", None)
    (problem, _), counters = counted_composite()
    res_a, res_c = (CallCounter(problem.resolvent_a),
                    CallCounter(problem.resolvent_c))
    problem = replace(problem, resolvent_a=res_a, resolvent_c=res_c,
                      **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} has shape "
                                         f"{re.escape(str(np.shape(bad)))}"):
        epdtr_solve(problem, EPDTRConfig(tau=0.1, sigma=0.5),
                    StopRule(max_iter=5))
    assert [c.count for c in (*counters, res_a, res_c)] == [0] * 5


def test_epdtr_solve_reads_terminal_residuals_off_its_last_step():
    # The residuals take B x and K x from the last state: B runs once
    # per iteration plus once at the seed, and K or K* twice per
    # iteration plus the seed's K x and the residual's K* y.
    problem, data = gen_composite(40, 30, 0)
    forward, b_calls = counting_forward(problem.forward_b, 1.0)
    K = problem.linmap_k
    apply, adjoint = CallCounter(K.apply), CallCounter(K.apply_adjoint)
    linmap = LinearMap(apply, adjoint, K.shape)
    linmap.norm_hint = 1.01 * np.linalg.norm(data["K"], 2)
    problem = replace(problem, forward_b=forward, linmap_k=linmap)
    cfg = EPDTRConfig(tau=0.1, sigma=0.5)
    x, y, trace = epdtr_solve(problem, cfg, StopRule(tol=1e-8))
    assert trace.converged
    assert b_calls.count == len(trace) + 1
    assert apply.count + adjoint.count == 2 * len(trace) + 2
    # Fresh evaluations at the final iterate give the same bits.
    px = problem.resolvent_a(
        x - cfg.tau * (problem.forward_b(x) + K.apply_adjoint(y)), cfg.tau)
    py = resolvent_of_inverse(problem.resolvent_c, cfg.sigma,
                              y + cfg.sigma * K.apply(x))
    assert trace.primal_residual == float(np.linalg.norm(x - px))
    assert trace.dual_residual == float(np.linalg.norm(y - py))


def test_epdtr_solve_estimates_norm_k_once_per_map(monkeypatch):
    estimates = CallCounter(primal_dual.power_norm)
    monkeypatch.setattr(primal_dual, "power_norm", estimates)
    problem, _ = gen_composite(40, 30, 0)
    stop = StopRule(tol=1e-8)
    _, _, first = epdtr_solve(problem, stop=stop)
    _, _, second = epdtr_solve(problem, stop=stop)
    assert estimates.count == 1
    assert first.errs == second.errs


def test_region_grid_matches_formula_and_monotonicity():
    taus, sigmas, slack = region_grid(0.5, 1.0, 1.0, n=40)
    assert slack.shape == (40, 40)
    i, j = 7, 23
    expected = 1.0 - 2.0 * taus[i] * 1.5 - taus[i] * sigmas[j]
    assert slack[i, j] == pytest.approx(expected)
    _, _, slack_big = region_grid(2.0, 1.0, 1.0, n=40)
    assert np.all(slack_big <= slack + 1e-15)


@pytest.mark.parametrize("b", [1e308, -1e308, float("inf"), float("nan")])
def test_region_grid_rejects_a_reflection_that_overflows(b):
    # The same rule as epdtr_solve and the config check: 2*(1+|b|) must be
    # finite, else every slack would be -inf.
    with pytest.raises(ValueError, match=r"^region argument 'b' \(--b\): "
                                         f"delta {delta_reason(b)}"):
        region_grid(b, 1.0, 1.0, n=3)


@pytest.mark.parametrize("b, L, norm_k, name", [
    # norm_k ** 2 used to raise OverflowError out of _slack.
    (0.0, 1.0, 1e200, r"'norm_k' \(--normK\): must keep norm_k\*norm_k"),
    # 2*(1+|b|)*L overflows: every slack would be -inf.
    (0.0, 1e308, 1.0, r"'L' \(--L\): must keep 2\*\(1\+\|b\|\)\*L"),
    (100.0, 1e307, 1.0, r"'L' \(--L\)"),
    # Each coefficient is finite, their sum is not.
    (0.0, 8e307, 1e154, r"'L' \(--L\) and 'norm_k' \(--normK\)"),
])
def test_region_grid_rejects_slack_coefficients_that_overflow(b, L, norm_k,
                                                              name):
    with pytest.raises(ValueError, match=rf"^region arguments? {name}"):
        region_grid(b, L, norm_k, n=3)


def test_gfrb_in_metric_shapes():
    A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = linear_composite_instance(2)
    n, m = x0.size, y0.size
    M = metric_matrix(0.1, 0.1, K)
    G = coupling_matrix(A_mat, Cinv_mat, K)
    F_mat = np.zeros((n + m, n + m))
    F_mat[:n, :n] = B_mat
    f_vec = np.concatenate([b_vec, np.zeros(m)])
    z0 = np.concatenate([x0, y0])
    out = gfrb_in_metric(M, G, F_mat, f_vec, z0, z0, z0, 0.3, 7)
    assert out.shape == (7, n + m)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_a_converged_composite_solve_nearly_solves_the_inclusion():
    # At b = 1e300 the default tau is about 1e-301, so x barely moves
    # while y settles, and the displacement stop calls the run converged
    # after 695 passes at a primal residual of 3.63.  Once converged
    # certifies a solution, the natural residual at unit steps, primal
    # ||x - J_A(x - Bx - K*y)|| and dual ||y - J_{C^-1}(y + Kx)||, must
    # be small.
    problem, _ = gen_composite(40, 30, 0)
    x, y, trace = epdtr_solve(problem, EPDTRConfig(b=1e300))
    K = problem.linmap_k
    primal = x - problem.resolvent_a(
        x - problem.forward_b(x) - K.apply_adjoint(y), 1.0)
    dual = y - resolvent_of_inverse(problem.resolvent_c, 1.0, y + K.apply(x))
    residual = np.hypot(np.linalg.norm(primal), np.linalg.norm(dual))
    assert not trace.converged or residual <= 1e-3
