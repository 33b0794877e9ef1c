import numpy as np
import pytest

from monosplit.operators import (ForwardOperator, LinearMap,
                                 ResolventOperator, l1_resolvent,
                                 zero_resolvent)
from monosplit.primal_dual import CompositeProblem, EPDTRConfig, epdtr_solve
from monosplit.splitting import (DivergenceError, IterationTrace,
                                 StepSizeWarning, StopRule, fb, fbf, frb,
                                 gfrb_adaptive, gfrb_fixed, rfb)
from monosplit.stepsize import GammaSpec, make_stepsize_state

from conftest import RecordingResolvent, counting_forward, \
    random_monotone_affine


def shifted_identity(shift):
    return ForwardOperator(lambda x: x + shift, lipschitz_hint=1.0)


def test_stop_rule_defaults():
    rule = StopRule()
    assert rule.tol == 1e-6
    assert rule.max_iter == 5000


def test_trace_csv_roundtrip(tmp_path):
    trace = IterationTrace()
    trace.append(0, 1.0 / 3.0, 0.1, 0.01)
    trace.append(1, 1e-7, 0.15, 0.02)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,err,lambda,elapsed_s"
    assert len(lines) == 3
    k, err, lam, el = lines[1].split(",")
    assert int(k) == 0
    assert float(err) == 1.0 / 3.0
    assert float(lam) == 0.1


def test_fb_converges_on_cocoercive_problem():
    shift = np.array([2.0, -1.0])
    x, trace = fb(zero_resolvent(), shifted_identity(shift),
                  np.zeros(2), 0.5, StopRule(tol=1e-12, max_iter=200))
    np.testing.assert_allclose(x, -shift, atol=1e-10)
    assert trace.converged


@pytest.mark.parametrize("solver", ["gfrb_fixed", "frb", "fbf", "rfb"])
def test_reflected_solvers_reach_l1_solution(solver):
    gen = np.random.default_rng(7)
    b = gen.standard_normal(30)
    B = ForwardOperator(lambda x: 2.0 * x + b, lipschitz_hint=2.0)
    A = l1_resolvent()
    from monosplit.operators import soft_threshold
    x_star = -soft_threshold(b, 1.0) / 2.0
    x0 = np.ones(30)
    stop = StopRule(tol=1e-10, max_iter=3000)
    if solver == "gfrb_fixed":
        x, trace = gfrb_fixed(A, B, x0, x0, x0, 0.2, 0.1, stop)
    elif solver == "frb":
        x, trace = frb(A, B, x0, x0, 0.2, stop)
    elif solver == "fbf":
        x, trace = fbf(A, B, x0, 0.4, stop)
    else:
        x, trace = rfb(A, B, x0, x0, 0.2, stop)
    assert trace.converged
    np.testing.assert_allclose(x, x_star, atol=1e-8)


def test_gfrb_fixed_delta_zero_is_frb_bitwise():
    gen = np.random.default_rng(3)
    B, _, _ = random_monotone_affine(gen, 12)
    A = l1_resolvent()
    x0 = gen.standard_normal(12)
    xm1 = gen.standard_normal(12)
    lam = 0.3 / B.lipschitz_hint
    stop = StopRule(tol=0.0, max_iter=100)
    rec_fixed = RecordingResolvent(A)
    gfrb_fixed(rec_fixed, B, x0, xm1, xm1, lam, 0.0, stop)
    rec_frb = RecordingResolvent(A)
    frb(rec_frb, B, x0, xm1, lam, stop)
    assert len(rec_fixed.outputs) == len(rec_frb.outputs) == 100
    for a, b in zip(rec_fixed.outputs, rec_frb.outputs):
        np.testing.assert_array_equal(a, b)


def test_gfrb_adaptive_with_frozen_step_is_gfrb_fixed_bitwise():
    gen = np.random.default_rng(4)
    B, _, _ = random_monotone_affine(gen, 10)
    L = B.lipschitz_hint
    A = zero_resolvent()
    delta = 0.3
    state = make_stepsize_state(delta, 0.1, gamma_spec=GammaSpec(kind="zero"))
    # lambda0 * L < c2 keeps the shrink branch silent forever, and zero
    # gamma freezes the step, so the run must equal the fixed-step one.
    lam0 = 0.9 * state.c2 / L
    state.lambda_curr = state.lambda_prev = lam0
    x0 = gen.standard_normal(10)
    xm1 = gen.standard_normal(10)
    stop = StopRule(tol=0.0, max_iter=80)
    rec_a = RecordingResolvent(A)
    gfrb_adaptive(rec_a, B, x0, xm1, delta, state, stop)
    rec_f = RecordingResolvent(A)
    gfrb_fixed(rec_f, B, x0, xm1, xm1, lam0, delta, stop)
    for a, b in zip(rec_a.outputs, rec_f.outputs):
        np.testing.assert_array_equal(a, b)


def test_eval_counts_per_iteration():
    gen = np.random.default_rng(5)
    x0 = gen.standard_normal(6)
    xm1 = gen.standard_normal(6)
    T = 17
    stop = StopRule(tol=0.0, max_iter=T)
    A = zero_resolvent()

    def fresh():
        return counting_forward(lambda x: 0.5 * x + 1.0, lipschitz_hint=0.5)

    B, c = fresh()
    fb(A, B, x0, 0.9, stop)
    assert c.count == T

    B, c = fresh()
    fbf(A, B, x0, 0.9, stop)
    assert c.count == 2 * T

    B, c = fresh()
    rfb(A, B, x0, xm1, 0.4, stop)
    assert c.count == T

    B, c = fresh()
    frb(A, B, x0, xm1, 0.9, stop)
    assert c.count == T + 1

    B, c = fresh()
    gfrb_fixed(A, B, x0, xm1, xm1, 0.6, 0.2, stop)
    assert c.count == T + 2

    B, c = fresh()
    state = make_stepsize_state(0.2, 0.1)
    gfrb_adaptive(A, B, x0, xm1, 0.2, state, stop)
    assert c.count == T + 1


def _run_from_ones(solver, A, B):
    x0 = np.ones(3)
    stop = StopRule(tol=1e-12, max_iter=200)
    if solver == "gfrb_adaptive":
        return gfrb_adaptive(A, B, x0, x0, 0.2, make_stepsize_state(0.2, 0.1),
                             stop)
    if solver == "gfrb_fixed":
        return gfrb_fixed(A, B, x0, x0, x0, 1.0, 0.5, stop)
    if solver == "frb":
        return frb(A, B, x0, x0, 1.0, stop)
    if solver == "fbf":
        return fbf(A, B, x0, 1.0, stop)
    if solver == "rfb":
        return rfb(A, B, x0, x0, 1.0, stop)
    if solver == "fb":
        return fb(A, B, x0, 1.0, stop)
    problem = CompositeProblem(resolvent_a=A, forward_b=B,
                               linmap_k=LinearMap.from_matrix(np.eye(3)),
                               resolvent_c=zero_resolvent(), x0=x0)
    return epdtr_solve(problem, EPDTRConfig(tau=1.0, sigma=1.0), stop)


@pytest.mark.parametrize("solver", ["fb", "fbf", "rfb", "frb", "gfrb_fixed",
                                    "gfrb_adaptive", "epdtr_solve"])
def test_divergence_raises_with_trace(solver):
    # An expansive B blows past the limit; a resolvent returning NaN
    # gives a non-finite iterate on the first pass, and so does a B
    # returning NaN.
    expansive = ForwardOperator(lambda x: -2.0 * x)
    nan_resolvent = ResolventOperator(lambda z, lam: np.full_like(z, np.nan))
    nan_forward = ForwardOperator(lambda x: np.full_like(x, np.nan))
    for A, B in ((zero_resolvent(), expansive),
                 (nan_resolvent, ForwardOperator(lambda x: x)),
                 (zero_resolvent(), nan_forward)):
        with pytest.raises(DivergenceError, match=f"^{solver} diverged") \
                as info:
            _run_from_ones(solver, A, B)
        trace = info.value.trace
        assert len(trace) > 0
        assert trace.errs[-1] > 1e12 or not np.isfinite(trace.errs[-1])


def test_step_bound_warnings():
    B = shifted_identity(np.zeros(2))  # L = 1
    x0 = np.zeros(2)
    with pytest.warns(StepSizeWarning, match="^frb: step 0.5 "):
        frb(zero_resolvent(), B, x0, x0, 0.5, StopRule(max_iter=1))
    with pytest.warns(StepSizeWarning):
        fbf(zero_resolvent(), B, x0, 1.0, StopRule(max_iter=1))
    with pytest.warns(StepSizeWarning):
        rfb(zero_resolvent(), B, x0, x0, 0.5, StopRule(max_iter=1))
    with pytest.warns(StepSizeWarning):
        gfrb_fixed(zero_resolvent(), B, x0, x0, x0, 0.5, 0.0,
                   StopRule(max_iter=1))


def test_steps_below_bound_do_not_warn(recwarn):
    B = shifted_identity(np.zeros(2))
    x0 = np.zeros(2)
    frb(zero_resolvent(), B, x0, x0, 0.45, StopRule(max_iter=1))
    fbf(zero_resolvent(), B, x0, 0.9, StopRule(max_iter=1))
    assert not any(isinstance(w.message, StepSizeWarning) for w in recwarn)


def test_nonpositive_step_rejected():
    B = shifted_identity(np.zeros(2))
    with pytest.raises(ValueError):
        fb(zero_resolvent(), B, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        frb(zero_resolvent(), B, np.zeros(2), np.zeros(2), -0.1)


def test_adaptive_rejects_bad_coefficient_box():
    state = make_stepsize_state(0.0, 0.1)
    # The box that is fine for delta = 0 is too wide for delta = 5.
    with pytest.raises(ValueError, match="c1"):
        gfrb_adaptive(zero_resolvent(), shifted_identity(np.zeros(2)),
                      np.zeros(2), np.zeros(2), 5.0, state)


def test_adaptive_first_step_grows_from_equal_seeds():
    state = make_stepsize_state(0.1, 0.1)
    x0 = np.ones(4)
    _, trace = gfrb_adaptive(zero_resolvent(), shifted_identity(np.ones(4)),
                             x0, x0, 0.1, state, StopRule(max_iter=3))
    # Equal seeds give dx = dB = 0, so the first step grows by 1 + 0.5.
    assert trace.lambdas[0] == pytest.approx(0.15)


def test_max_iter_respected_and_converged_flag():
    B = shifted_identity(np.array([5.0, 5.0]))
    _, trace = fb(zero_resolvent(), B, np.zeros(2), 0.5,
                  StopRule(tol=1e-30, max_iter=7))
    assert len(trace) == 7
    assert not trace.converged
