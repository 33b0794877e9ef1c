import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosplit import stepsize
from monosplit.experiments import gen_example1, gen_example2, gen_lasso
from monosplit.operators import (ForwardOperator, LinearMap, l1_resolvent,
                                 zero_resolvent)
from monosplit.primal_dual import CompositeProblem, EPDTRConfig, epdtr_solve
from monosplit.splitting import (PROBE_STEP, DivergenceError,
                                 IterationTrace, StepSizeWarning, StopRule,
                                 _norm, fb, fbf, frb, gfrb_adaptive,
                                 gfrb_fixed, rfb)
from monosplit.stepsize import GROWTH_HORIZON, make_stepsize_state

from conftest import RecordingResolvent, counting_forward, \
    random_monotone_affine
from oracles import planted_instance


def shifted_identity(shift):
    return ForwardOperator(lambda x: x + shift, lipschitz_hint=1.0)


def test_stop_rule_defaults():
    rule = StopRule()
    assert rule.tol == 1e-6
    assert rule.max_iter == 5000


@pytest.mark.parametrize("kwargs, name", [
    ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"),
    ({"tol": -1.0}, "tol"), ({"tol": "1e-6"}, "tol"),
    ({"max_iter": -3}, "max_iter"), ({"max_iter": 0}, "max_iter"),
    ({"max_iter": 2.5}, "max_iter"), ({"max_iter": True}, "max_iter")])
def test_stop_rule_rejects_bad_input(kwargs, name):
    # Caught when the rule is built, not as a silent run to max_iter, an
    # empty trace or a TypeError inside range.
    with pytest.raises(ValueError, match=f"^{name} must be"):
        StopRule(**kwargs)


@given(st.integers(0, 2048), st.floats(-150.0, 150.0),
       st.integers(0, 2**32 - 1))
def test_norm_is_numpys_norm_bitwise(size, exponent, seed):
    # The step kernels' err and dB must keep np.linalg.norm's bits.
    v = np.random.default_rng(seed).standard_normal(size) * 10.0 ** exponent
    assert _norm(v).hex() == float(np.linalg.norm(v)).hex()


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


def test_gfrb_adaptive_with_frozen_step_is_gfrb_fixed_bitwise(monkeypatch):
    gen = np.random.default_rng(4)
    B, _, _ = random_monotone_affine(gen, 10)
    L = B.lipschitz_hint
    A = zero_resolvent()
    delta = 0.3
    # lambda0 * L < c2 keeps the shrink branch silent forever, and a zero
    # growth horizon makes every growth-branch update hold the step, so
    # the run must equal the fixed-step one.
    monkeypatch.setattr(stepsize, "GROWTH_HORIZON", 0)
    lam0 = 0.9 * make_stepsize_state(delta, 1.0).c2 / L
    x0 = gen.standard_normal(10)
    xm1 = gen.standard_normal(10)
    stop = StopRule(tol=0.0, max_iter=80)
    rec_a = RecordingResolvent(A)
    _, adaptive = gfrb_adaptive(rec_a, B, x0, xm1, delta, lam0, stop)
    rec_f = RecordingResolvent(A)
    _, fixed = gfrb_fixed(rec_f, B, x0, xm1, xm1, lam0, delta, stop)
    assert len(rec_a.outputs) == len(rec_f.outputs) == 80
    for a, b in zip(rec_a.outputs, rec_f.outputs):
        np.testing.assert_array_equal(a, b)
    assert adaptive.errs == fixed.errs
    assert adaptive.lambdas == fixed.lambdas


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
    gfrb_adaptive(A, B, x0, xm1, 0.2, 0.1, stop)
    assert c.count == T + 1


def test_eval_counts_from_seeds_at_x0():
    # A seed that is the same point as x0 -- x0 itself, or a copy with
    # its bits -- takes B(x0) instead of a second evaluation.  -0.0 is
    # not the same point as 0.0: B may tell them apart.
    x0 = np.random.default_rng(5).standard_normal(6)
    T = 17
    stop = StopRule(tol=0.0, max_iter=T)
    A = zero_resolvent()

    def fresh():
        return counting_forward(lambda x: 0.5 * x + 1.0, lipschitz_hint=0.5)

    for seed in (x0, x0.copy()):
        B, c = fresh()
        frb(A, B, x0, seed, 0.9, stop)
        assert c.count == T

        B, c = fresh()
        gfrb_fixed(A, B, x0, seed, seed, 0.6, 0.2, stop)
        assert c.count == T

        B, c = fresh()
        gfrb_adaptive(A, B, x0, seed, 0.2, 0.1, stop)
        assert c.count == T

    B, c = fresh()
    frb(A, B, np.zeros(6), -np.zeros(6), 0.9, stop)
    assert c.count == T + 1

    B, c = fresh()
    gfrb_adaptive(A, B, x0, None, 0.2, 0.1, stop)
    assert c.count == T + 1


def _run_from(solver, A, B, x0):
    """``solver`` from x0, with every history seed at x0."""
    stop = StopRule(tol=1e-12, max_iter=200)
    if solver == "gfrb_adaptive":
        return gfrb_adaptive(A, B, x0, x0, 0.2, 0.1, stop)
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
    nan_resolvent = lambda z, lam: np.full_like(z, np.nan)
    nan_forward = ForwardOperator(lambda x: np.full_like(x, np.nan))
    for A, B in ((zero_resolvent(), expansive),
                 (nan_resolvent, ForwardOperator(lambda x: x)),
                 (zero_resolvent(), nan_forward)):
        with pytest.raises(DivergenceError, match=f"^{solver} diverged") \
                as info:
            _run_from(solver, A, B, np.ones(3))
        assert info.value.method == solver
        trace = info.value.trace
        assert len(trace) > 0
        assert trace.errs[-1] > 1e12 or not np.isfinite(trace.errs[-1])


def _run_scalar_seed(solver, B):
    A = l1_resolvent()
    stop = StopRule(tol=1e-10, max_iter=500)
    runs = {"fb": lambda: fb(A, B, 3.0, 0.5, stop),
            "fbf": lambda: fbf(A, B, 3.0, 0.5, stop),
            "rfb": lambda: rfb(A, B, 3.0, 3.0, 0.3, stop),
            "frb": lambda: frb(A, B, 3.0, 3.0, 0.3, stop),
            "gfrb_fixed": lambda: gfrb_fixed(A, B, 3.0, 3.0, 3.0, 0.3, 0.1,
                                             stop),
            "gfrb_adaptive": lambda: gfrb_adaptive(A, B, 3.0, 3.0, 0.1, 0.1,
                                                   stop)}
    return runs[solver]()


@pytest.mark.parametrize("solver", ["fb", "fbf", "rfb", "frb", "gfrb_fixed",
                                    "gfrb_adaptive"])
def test_scalar_seed_runs_as_length_one_vector(solver):
    # The in-place step kernels need array iterates; a scalar seed is
    # taken as shape (1,).  0 in d|x| + x - 2 has the solution x = 1.
    B = ForwardOperator(lambda x: x - 2.0, lipschitz_hint=1.0)
    x, trace = _run_scalar_seed(solver, B)
    assert x.shape == (1,)
    assert trace.converged
    np.testing.assert_allclose(x, [1.0], atol=1e-8)


@pytest.mark.parametrize("solver", ["fb", "fbf", "rfb", "frb", "gfrb_fixed",
                                    "gfrb_adaptive"])
def test_forward_value_must_have_iterate_shape(solver):
    # B(x) is written into in place, so a value that would only broadcast
    # against x -- here a Python float for a length-1 iterate -- is
    # rejected with a ValueError naming both shapes.
    B = ForwardOperator(lambda x: float(x[0]) - 2.0, lipschitz_hint=1.0)
    with pytest.raises(ValueError, match=r"shape \(\); .* shape \(1,\)"):
        _run_scalar_seed(solver, B)


@pytest.mark.parametrize("build, name", [
    (lambda: ForwardOperator(lambda x: x, lipschitz_hint=True),
     "lipschitz_hint"),
    (lambda: l1_resolvent(True), "weight"),
    (lambda: make_stepsize_state(True, 0.1), "delta"),
    (lambda: make_stepsize_state(0.1, True), "lambda0"),
    (lambda: gfrb_fixed(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                        np.ones(2), np.ones(2), None, True), "delta"),
    (lambda: gfrb_fixed(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                        np.ones(2), np.ones(2), True, 0.1), "lam"),
    (lambda: frb(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                 np.ones(2), "0.1"), "lam"),
    (lambda: gfrb_fixed(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                        np.ones(2), np.ones(2), None, "0.1"), "delta"),
    (lambda: gfrb_fixed(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                        np.ones(2), np.ones(2), None, None), "delta"),
    (lambda: make_stepsize_state("0.1", 0.1), "delta"),
    (lambda: gfrb_adaptive(l1_resolvent(), shifted_identity(0.0),
                           np.ones(2), None, 0.1, None), "lambda0"),
    (lambda: fbf(l1_resolvent(), shifted_identity(0.0), np.ones(2),
                 0.1 + 0j), "lam"),
], ids=["ForwardOperator-lipschitz_hint", "l1_resolvent-weight",
        "make_stepsize_state-delta", "make_stepsize_state-lambda0",
        "gfrb_fixed-delta", "gfrb_fixed-lam", "frb-lam-str",
        "gfrb_fixed-delta-str", "gfrb_fixed-delta-None",
        "make_stepsize_state-delta-str", "gfrb_adaptive-lambda0-None",
        "fbf-lam-complex"])
def test_bool_is_not_taken_as_the_number_one(build, name):
    # A bool is a numbers.Real, so without its own test True would run as
    # 1; each input fails by name instead, as StopRule's do.  So does any
    # other value that is not a real number, which failed deep inside
    # (a TypeError from isfinite, abs or float) before.
    with pytest.raises(ValueError, match=f"\\b{name} must be"):
        build()


_HISTORY_SEEDS = {
    ("gfrb_fixed", "x_minus1"):
        lambda A, B, x0, bad: gfrb_fixed(A, B, x0, bad, x0, 0.1, 0.1),
    ("gfrb_fixed", "x_minus2"):
        lambda A, B, x0, bad: gfrb_fixed(A, B, x0, x0, bad, 0.1, 0.1),
    ("frb", "x_minus1"): lambda A, B, x0, bad: frb(A, B, x0, bad, 0.1),
    ("rfb", "x_minus1"): lambda A, B, x0, bad: rfb(A, B, x0, bad, 0.1),
    ("gfrb_adaptive", "x_minus1"):
        lambda A, B, x0, bad: gfrb_adaptive(A, B, x0, bad, 0.1, 0.1)}


@pytest.mark.parametrize("solver, name", sorted(_HISTORY_SEEDS))
@pytest.mark.parametrize("bad", [np.ones(4), np.ones((5, 1))],
                         ids=["short", "column"])
def test_misshapen_history_seed_is_rejected_by_name(solver, name, bad):
    # A history seed must have x0's shape; one that does not would only
    # broadcast-fail inside the first step (rfb) or at the first seed
    # difference.  It is named before B is evaluated once.
    B, calls = counting_forward(lambda x: 2.0 * x, lipschitz_hint=2.0)
    with pytest.raises(ValueError, match=f"^{name} "):
        _HISTORY_SEEDS[solver, name](zero_resolvent(), B, np.ones(5), bad)
    assert calls.count == 0


@pytest.mark.parametrize("solver", ["fb", "fbf", "rfb", "frb", "gfrb_fixed",
                                    "gfrb_adaptive"])
def test_two_dimensional_x0_is_rejected_by_name(solver):
    # A 2-d x0 used to die in the first norm with "only 0-dimensional
    # arrays can be converted to Python scalars".
    B, calls = counting_forward(lambda x: 2.0 * x)
    with pytest.raises(ValueError,
                       match=r"^x0 must be 0-d or 1-d, got shape \(2, 3\)"):
        _run_from(solver, zero_resolvent(), B, np.ones((2, 3)))
    assert calls.count == 0


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


@pytest.mark.parametrize("delta", [1e308, float("nan"), float("inf"),
                                   float("-inf")])
def test_fixed_step_rejects_delta_without_a_usable_step(delta):
    # At 1e308 the default 1/(2L(1+|delta|)) overflows to a zero step,
    # which stopped after one pass as if converged, 4.52 from x*, and a
    # given step diverged at iteration 1; a non-finite delta would only
    # surface as divergence at iteration 0.  One rule rejects them all.
    inst = gen_example1(20, 0)
    x0 = np.ones(20)
    for lam in (None, 0.1):
        with pytest.raises(ValueError, match=r"^delta must keep "
                                             r"2\*\(1\+\|delta\|\) finite"):
            gfrb_fixed(inst.resolvent_a, inst.forward_b, x0, x0, x0, lam,
                       delta)


@pytest.mark.parametrize("delta, lambda0, name", [
    (1e308, 0.1, "delta"), (float("nan"), 0.1, "delta"),
    (float("inf"), 0.1, "delta"), (0.1, 0.0, "lambda0"),
    (0.1, -1.0, "lambda0"), (0.1, float("nan"), "lambda0"),
    (0.1, float("inf"), "lambda0")])
@pytest.mark.parametrize("x_minus1", [None, "x0"])
def test_adaptive_rejects_bad_settings_before_evaluating(delta, lambda0,
                                                         name, x_minus1):
    # gfrb_adaptive builds its controller from delta and lambda0 and
    # fails on either, naming it, before B is evaluated once.
    B, calls = counting_forward(lambda x: 2.0 * x, lipschitz_hint=2.0)
    x0 = np.ones(3)
    with pytest.raises(ValueError, match=name):
        gfrb_adaptive(zero_resolvent(), B, x0,
                      x0 if x_minus1 == "x0" else None, delta, lambda0)
    assert calls.count == 0


def test_adaptive_first_step_grows_from_equal_seeds():
    x0 = np.ones(4)
    _, trace = gfrb_adaptive(zero_resolvent(), shifted_identity(np.ones(4)),
                             x0, x0, 0.1, 0.1, StopRule(max_iter=3))
    # Equal seeds give dx = dB = 0, so the first step grows by 1 + 1/1.
    assert trace.lambdas[0] == pytest.approx(0.2)


def test_max_iter_respected_and_converged_flag():
    B = shifted_identity(np.array([5.0, 5.0]))
    _, trace = fb(zero_resolvent(), B, np.zeros(2), 0.5,
                  StopRule(tol=1e-30, max_iter=7))
    assert len(trace) == 7
    assert not trace.converged


# Reference loops for the hot-path test: each solver written out as its
# plain formula, with np.linalg.norm, sign-based shrinkage and a resolvent
# coefficient built fresh on every call.

def _ref_resolvent(instance):
    if instance.name == "example2":
        # Posed in the eigenbasis of E, where A is diagonal.
        beta = instance.data["beta"]
        eigs, _ = np.linalg.eigh(instance.data["E"])

        def resolve(z, lam):
            return 1.0 / (1.0 + lam * (eigs + beta)) * z
        return resolve
    weight = instance.data.get("reg_lambda", 1.0)

    def shrink(z, lam):
        t = lam * weight
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    return shrink


def _ref_reflected(J, B, x, x_m1, x_m2, delta, stop, lam=None, state=None):
    # x_m2=None seeds B(x_{-2}) = B(x_{-1}) from one evaluation.
    B_pp = B(x_m1 if x_m2 is None else x_m2)
    B_p = B_pp if x_m2 is None else B(x_m1)
    if state is None:
        lam_p = lam_pp = lam
    else:
        lam_p = lam_pp = state.lambda_curr
        c1, c2 = state.c1, state.c2
    dx = float(np.linalg.norm(x_m1 - x))
    errs, lams = [], []
    for k in range(1, stop.max_iter + 1):
        Bx = B(x)
        lam_k = lam
        if state is not None:
            dB = float(np.linalg.norm(B_p - Bx))
            if lam_p * dB > c2 * dx:
                lam_k = c1 * dx / dB
            elif k <= GROWTH_HORIZON:
                lam_k = (1.0 + 1.0 / k) * lam_p
            else:
                lam_k = lam_p
        x_new = J(x - lam_k * Bx - lam_p * (1.0 + delta) * (Bx - B_p)
                  + lam_pp * delta * (B_p - B_pp), lam_k)
        dx = float(np.linalg.norm(x_new - x))
        errs.append(dx)
        lams.append(lam_k)
        x, B_p, B_pp, lam_p, lam_pp = x_new, Bx, B_p, lam_k, lam_p
        if dx <= stop.tol:
            break
    return x, errs, lams


# Each fixed-step solver's convergence bound as a plain formula; the
# reference runs 90% of it, which pins the bits of the package's default.
_REF_BOUNDS = {"gfrb_fixed": lambda L, d: 1.0 / (2.0 * L * (1.0 + abs(d))),
               "frb": lambda L, d: 1.0 / (2.0 * L),
               "fbf": lambda L, d: 1.0 / L,
               "rfb": lambda L, d: (np.sqrt(2.0) - 1.0) / L,
               "fb": lambda L, d: 1.0 / L}


def _ref_one_step(J, B, x, x_m1, solver, lam, stop):
    errs = []
    for _ in range(stop.max_iter):
        if solver == "fb":
            x_new = J(x - lam * B(x), lam)
        elif solver == "fbf":
            Bx = B(x)
            y = J(x - lam * Bx, lam)
            x_new = y - lam * B(y) + lam * Bx
        else:
            x_new = J(x - lam * B(2.0 * x - x_m1), lam)
            x_m1 = x
        errs.append(float(np.linalg.norm(x_new - x)))
        x = x_new
        if errs[-1] <= stop.tol:
            break
    return x, errs, [lam] * len(errs)


def _hot_path_runs(solver, J, B, L, dim, reference):
    """One solver from fixed seeds, through the package or the reference."""
    delta = 0.1
    x0, x_m1, x_m2 = np.ones(dim), np.full(dim, 0.5), np.zeros(dim)
    stop = StopRule(tol=1e-9, max_iter=400)
    if solver == "gfrb_adaptive":
        if reference:
            return _ref_reflected(J, B, x0, x_m1, None, delta, stop,
                                  state=make_stepsize_state(delta, 0.1))
        x, trace = gfrb_adaptive(J, B, x0, x_m1, delta, 0.1, stop)
    elif reference:
        lam = 0.9 * _REF_BOUNDS[solver](L, delta)
        if solver in ("gfrb_fixed", "frb"):
            d, x_m2 = (delta, x_m2) if solver == "gfrb_fixed" else (0.0, None)
            return _ref_reflected(J, B, x0, x_m1, x_m2, d, stop, lam=lam)
        return _ref_one_step(J, B, x0, x_m1, solver, lam, stop)
    else:
        # A null step: each solver fills its own default.
        runs = {"gfrb_fixed": lambda: gfrb_fixed(J, B, x0, x_m1, x_m2, None,
                                                 delta, stop),
                "frb": lambda: frb(J, B, x0, x_m1, None, stop),
                "fbf": lambda: fbf(J, B, x0, None, stop),
                "rfb": lambda: rfb(J, B, x0, x_m1, None, stop),
                "fb": lambda: fb(J, B, x0, None, stop)}
        x, trace = runs[solver]()
    return x, trace.errs, trace.lambdas


@pytest.mark.parametrize("solver", ["gfrb_adaptive", "gfrb_fixed", "frb",
                                    "fbf", "rfb", "fb"])
def test_hot_path_matches_reference_loops(solver):
    # The step kernels are rewritten for speed; they must still give the
    # plain formulas' bits: every point B is evaluated at (so every
    # iterate), the final iterate, and every err and lambda.
    instances = [gen_example1(30, 2), gen_example2(30, 12),
                 gen_lasso(32, 64, 4, seed=5)]
    for instance in instances:
        B = instance.forward_b
        results = []
        for reference in (False, True):
            points = []

            def recording(x, points=points):
                points.append(np.array(x))
                return B(x)
            J = _ref_resolvent(instance) if reference else \
                instance.resolvent_a
            x, errs, lams = _hot_path_runs(
                solver, J, ForwardOperator(recording, B.lipschitz_hint),
                B.lipschitz_hint, instance.dim, reference)
            results.append((x, errs, lams, points))
        (x, errs, lams, points), (rx, rerrs, rlams, rpoints) = results
        assert len(errs) > 5 and np.all(np.isfinite(errs)), instance.name
        assert errs == rerrs and lams == rlams, instance.name
        assert len(points) == len(rpoints)
        for p, rp in zip(points, rpoints):
            assert np.all(p == rp)
        assert np.all(x == rx)


@pytest.mark.parametrize("solver", ["gfrb_adaptive", "gfrb_fixed", "frb"])
def test_seeds_at_x0_match_reference_loops(solver):
    # With every seed at x0 the reflected solvers evaluate B(x0) once;
    # the reference evaluates it at each seed, and the bits must agree.
    delta = 0.1
    stop = StopRule(tol=1e-9, max_iter=400)
    for instance in (gen_example1(30, 2), gen_example2(30, 12),
                     gen_lasso(32, 64, 4, seed=5)):
        B, L = instance.forward_b, instance.forward_b.lipschitz_hint
        J = instance.resolvent_a
        x0 = np.ones(instance.dim)
        if solver == "gfrb_adaptive":
            x, trace = gfrb_adaptive(J, B, x0, x0, delta, 0.1, stop)
            ref = _ref_reflected(J, B, x0, x0, None, delta, stop,
                                 state=make_stepsize_state(delta, 0.1))
        else:
            d = delta if solver == "gfrb_fixed" else 0.0
            lam = 0.9 * _REF_BOUNDS[solver](L, d)
            if solver == "gfrb_fixed":
                x, trace = gfrb_fixed(J, B, x0, x0, x0, lam, d, stop)
            else:
                x, trace = frb(J, B, x0, x0, lam, stop)
            ref = _ref_reflected(J, B, x0, x0, x0, d, stop, lam=lam)
        rx, rerrs, rlams = ref
        assert trace.errs == rerrs and trace.lambdas == rlams, instance.name
        assert x.tobytes() == rx.tobytes(), instance.name


def test_adaptive_matches_reference_loop_across_the_growth_horizon():
    # tol = 0 runs past the last growth update at k = GROWTH_HORIZON; the
    # package and the plain loop must still agree bit for bit there.
    instance = gen_lasso(32, 64, 4, seed=5)
    B, J = instance.forward_b, _ref_resolvent(instance)
    x0, x_m1 = np.ones(instance.dim), np.full(instance.dim, 0.5)
    stop = StopRule(tol=0.0, max_iter=GROWTH_HORIZON + 200)
    x, trace = gfrb_adaptive(J, B, x0, x_m1, 0.1, 0.1, stop)
    rx, rerrs, rlams = _ref_reflected(J, B, x0, x_m1, None, 0.1, stop,
                                      state=make_stepsize_state(0.1, 0.1))
    assert len(trace) == GROWTH_HORIZON + 200
    assert trace.errs == rerrs and trace.lambdas == rlams
    assert x.tobytes() == rx.tobytes()


def test_probe_seed_is_a_short_step_against_B():
    # x_minus1=None: B is evaluated at x0, then at the probe point
    # x0 - PROBE_STEP * B(x0) / ||B(x0)||, then once per later pass.
    inst = gen_example1(30, 2)
    points = []

    def recording(x, B=inst.forward_b):
        points.append(np.array(x))
        return B(x)
    B = ForwardOperator(recording, inst.forward_b.lipschitz_hint)
    x0 = np.ones(30)
    T = 9
    gfrb_adaptive(inst.resolvent_a, B, x0, None, 0.1, 0.1,
                  StopRule(tol=0.0, max_iter=T))
    assert len(points) == T + 1
    assert points[0].tobytes() == x0.tobytes()
    Bx0 = inst.forward_b(x0)
    step = x0 - points[1]
    assert np.linalg.norm(step) == pytest.approx(PROBE_STEP, rel=1e-9)
    cosine = step @ Bx0 / (np.linalg.norm(step) * np.linalg.norm(Bx0))
    assert cosine == pytest.approx(1.0, abs=1e-9)


def test_probe_length_ignores_the_forward_value_layout():
    # A forward value that is a strided view gets the probe length of
    # np.linalg.norm, which copies first; a dot product on the view
    # differs in the last bits here (n = 20).
    b = np.random.default_rng(20).standard_normal(20)
    points = []

    def strided(x):
        points.append(np.array(x))
        return np.repeat(2.0 * x + b, 3)[::3]
    x0 = np.zeros(20)
    gfrb_adaptive(zero_resolvent(), strided, x0, None, 0.1, 0.1,
                  StopRule(tol=0.0, max_iter=1))
    Bx0 = strided(x0)
    probe = x0 - (PROBE_STEP / np.linalg.norm(Bx0)) * Bx0
    assert points[1].tobytes() == probe.tobytes()


def test_probe_shrinks_a_large_first_step():
    # From the probe the first update sees dB/dx = 2 on B = 2x + b and
    # takes the shrink branch c1 * dx / dB; from x_{-1} = x0 it runs
    # (1 + gamma_1) * lambda0 = 2 * lambda0 as given.
    b = np.random.default_rng(3).standard_normal(8)
    B = ForwardOperator(lambda x: 2.0 * x + b)
    x0 = np.ones(8)
    stop = StopRule(tol=0.0, max_iter=1)
    _x, probed = gfrb_adaptive(zero_resolvent(), B, x0, None, 0.1, 100.0,
                               stop)
    c1 = make_stepsize_state(0.1, 100.0).c1
    assert probed.lambdas[0] == pytest.approx(c1 / 2.0, rel=1e-6)
    _x, plain = gfrb_adaptive(zero_resolvent(), B, x0, x0, 0.1, 100.0, stop)
    assert plain.lambdas[0] == 200.0


def test_probe_guard_zero_forward_at_x0():
    # B(x0) = 0: the probe has no direction, so x_{-1} = x0, B is not
    # evaluated again, and the first update grows the step.  Here x0
    # solves 0 in B(x) (A = 0), so the run stops after one pass.
    c = np.array([1.0, -2.0, 0.5])
    B, calls = counting_forward(lambda x: x - c, lipschitz_hint=1.0)
    x, trace = gfrb_adaptive(zero_resolvent(), B, c, None, 0.1, 0.1,
                             StopRule(tol=1e-12, max_iter=50))
    assert trace.converged and len(trace) == 1
    assert trace.errs[0] == 0.0 and trace.lambdas[0] == 2.0 * 0.1
    assert calls.count == 1
    np.testing.assert_array_equal(x, c)


def test_probe_guard_probe_rounds_back_to_x0():
    # At |x0| = 1e12 a step of PROBE_STEP is below half an ulp, so the
    # probe is x0 again: dx = dB = 0 and the step grows, as from x0.
    x0 = np.full(3, 1e12)
    B, calls = counting_forward(lambda x: x - (1e12 - 1.0))
    _x, trace = gfrb_adaptive(zero_resolvent(), B, x0, None, 0.1, 0.1,
                              StopRule(tol=0.0, max_iter=1))
    assert trace.lambdas[0] == 2.0 * 0.1
    assert calls.count == 1


def test_probe_guard_constant_forward():
    # A constant B gives dB = 0 < dx on the first update: the growth
    # branch, never an OperatorConsistencyError.  0 in d|x| + c with
    # |c| < 1 has the solution x = 0.
    c = np.array([0.5, -0.25, 0.0, 0.75])
    B = ForwardOperator(lambda x: c, lipschitz_hint=0.0)
    x, trace = gfrb_adaptive(l1_resolvent(), B, np.ones(4), None, 0.1, 0.1,
                             StopRule(tol=1e-12, max_iter=500))
    assert trace.converged
    assert trace.lambdas[0] == 2.0 * 0.1
    np.testing.assert_array_equal(x, np.zeros(4))


# Planted instances (oracles.planted_instance): each splitting solver
# runs from zeros at tol 1e-8 and must stop converged near the planted
# x*.  The stop rule bounds the displacement, not the error: a run that
# contracts by about 1 - lam*mu a step (mu the strong-monotonicity
# modulus) stops up to about 1/(lam*mu) times farther from x* than its
# last displacement.  At their default steps, over 5000 random draws
# from these ranges the fixed-step solvers stayed within 58 tol, so the
# bound is PLANTED_MULTIPLE * tol.  gfrb_adaptive went past it on about
# one draw in 600, where one displacement of an oscillating run dipped
# below tol.  A fixed, derandomized example budget keeps the tests' cost
# and outcome the same on every run.
PLANTED_TOL = 1e-8
PLANTED_MULTIPLE = 100
planted_settings = settings(max_examples=40, deadline=None,
                            derandomize=True, database=None)
planted_args = dict(n=st.integers(1, 30), w=st.floats(0.01, 3.0),
                    seed=st.integers(0, 2**32 - 1))


def _planted_error(run, n, s, w, seed):
    """(||x - x*||, the last step, mu) of ``run`` on a planted instance;
    the run must stop converged."""
    A, B, x_star = planted_instance(n, s, w, seed)
    x, trace = run(A, B, np.zeros(n),
                   StopRule(tol=PLANTED_TOL, max_iter=20000))
    assert trace.converged, len(trace)
    mu = np.linalg.eigvalsh(0.5 * (B.M + B.M.T))[0]
    return np.linalg.norm(x - x_star), trace.lambdas[-1], mu


@planted_settings
@given(s=st.floats(0.0, 3.0), **planted_args)
def test_splitting_solvers_find_the_planted_solution(n, s, w, seed):
    for run in (
            lambda A, B, x0, stop: gfrb_adaptive(A, B, x0, None, 0.1, 0.1,
                                                 stop),
            lambda A, B, x0, stop: gfrb_fixed(A, B, x0, x0, x0, None, 0.1,
                                              stop),
            lambda A, B, x0, stop: frb(A, B, x0, x0, None, stop),
            lambda A, B, x0, stop: fbf(A, B, x0, None, stop),
            lambda A, B, x0, stop: rfb(A, B, x0, x0, None, stop)):
        error, _lam, _mu = _planted_error(run, n, s, w, seed)
        assert error <= PLANTED_MULTIPLE * PLANTED_TOL


@pytest.mark.parametrize("lambda0", [1e-4, 1e2])
@planted_settings
@given(s=st.floats(0.0, 3.0), **planted_args)
def test_adaptive_finds_the_planted_solution_from_a_far_lambda0(
        lambda0, n, s, w, seed):
    # From 1e-4 the step grows at most 1001-fold (stepsize.GROWTH_HORIZON)
    # and can end far below 1/mu, so the bound widens by 1/(lam*mu).
    error, lam, mu = _planted_error(
        lambda A, B, x0, stop: gfrb_adaptive(A, B, x0, None, 0.1, lambda0,
                                             stop), n, s, w, seed)
    assert error <= PLANTED_MULTIPLE * PLANTED_TOL / min(1.0, lam * mu)


@planted_settings
@given(**planted_args)
def test_fb_finds_the_planted_solution_of_a_symmetric_instance(n, w, seed):
    # At s = 0, B is the gradient of a convex quadratic, so cocoercive.
    error, _lam, _mu = _planted_error(
        lambda A, B, x0, stop: fb(A, B, x0, None, stop), n, 0.0, w, seed)
    assert error <= PLANTED_MULTIPLE * PLANTED_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_a_converged_adaptive_run_nearly_solves_the_inclusion():
    # From lambda0 = 1e-9 the first step is tiny, so the displacement
    # falls below tol at once and the run stops after 1 iteration at a
    # natural residual ||x - J_A(x - Bx)|| of 21.8.  Once converged
    # certifies a solution, that residual must be small.
    inst = gen_example1(200, 0)
    A, B = inst.resolvent_a, inst.forward_b
    x, trace = gfrb_adaptive(A, B, inst.x0, None, 0.1, 1e-9, StopRule())
    residual = np.linalg.norm(x - A(x - B(x), 1.0))
    assert not trace.converged or residual <= 1e-3
