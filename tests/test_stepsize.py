import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import CallCounter, counting_forward, delta_reason
from hypothesis import given
from hypothesis import strategies as st

from monosplit.experiments import config_from_dict, gen_composite, gen_lasso
from monosplit.operators import (ForwardOperator, LinearMap, l1_resolvent,
                                 zero_resolvent)
from monosplit.primal_dual import (EPDTRConfig, check_stepsizes,
                                   default_stepsizes, epdtr_solve,
                                   region_grid)
from monosplit.rate_analysis import design_rate
from monosplit.splitting import (StopRule, fb, fbf, frb, gfrb_adaptive,
                                 gfrb_fixed)
from monosplit.stepsize import (EPSILON, GROWTH_HORIZON,
                                OperatorConsistencyError, StepSizeState,
                                _shown, coefficient_bound, int_arg,
                                make_stepsize_state, next_step, real_arg,
                                reflection_scale)

# Every kind of delta at which 2(1 + |delta|) is not a finite float.
_UNSCALED = [1e308, -1e308, float("inf"), float("-inf"), float("nan"),
             10 ** 400]
_UNSCALED_IDS = ["1e308", "-1e308", "inf", "-inf", "nan", "10**400"]


def fresh_state(lam=0.1, c1=0.2, c2=0.4, k=0):
    return StepSizeState(lambda_curr=lam, c1=c1, c2=c2, k=k)


def test_growth_branch_matches_worked_example():
    # dB = 0 takes the growth branch: 0.1 -> (1 + 1/1) * 0.1 = 0.2, then
    # (1 + 1/2) * 0.2 = 0.3 and (1 + 1/3) * 0.3 = 0.4.
    state = fresh_state(lam=0.1)
    assert next_step(state, dx=1.0, dB=0.0) == pytest.approx(0.2)
    assert state.k == 1
    assert next_step(state, dx=1.0, dB=0.0) == pytest.approx(0.3)
    assert next_step(state, dx=1.0, dB=0.0) == pytest.approx(0.4)


def test_shrink_branch_returns_exact_ratio():
    state = fresh_state(lam=0.5, c1=0.2, c2=0.25)
    dx, dB = 1.0, 2.0
    # 0.5 * 2.0 > 0.25 * 1.0 fires the shrink branch.
    lam = next_step(state, dx, dB)
    assert lam == state.c1 * dx / dB


def test_tie_takes_growth_branch():
    state = fresh_state(lam=0.5, c1=0.2, c2=0.25)
    # lambda * dB == c2 * dx exactly: 0.5 * 0.5 == 0.25.  Growth gives
    # (1 + 1/1) * 0.5; the shrink branch would give 0.2 * 1 / 0.5 = 0.4.
    lam = next_step(state, dx=1.0, dB=0.5)
    assert lam == 1.0


@given(st.floats(0.01, 10), st.floats(0.0, 10), st.floats(0.0, 10),
       st.integers(0, GROWTH_HORIZON + 5))
def test_branch_law(lam, dx, dB, k0):
    if dx == 0.0 and dB > 0.0:
        return
    state = StepSizeState(lambda_curr=lam, c1=0.2, c2=0.4, k=k0)
    out = next_step(state, dx, dB)
    if lam * dB > 0.4 * dx:
        assert out == 0.2 * dx / dB
    elif k0 + 1 <= GROWTH_HORIZON:
        assert out == (1.0 + 1.0 / (k0 + 1)) * lam
    else:
        assert out == lam
    assert state.k == k0 + 1


def test_inconsistent_displacements_raise():
    with pytest.raises(OperatorConsistencyError):
        next_step(fresh_state(), dx=0.0, dB=1.0)


def test_zero_zero_takes_growth():
    state = fresh_state(lam=0.2)
    assert next_step(state, 0.0, 0.0) == 2.0 * 0.2


@pytest.mark.parametrize("dx,dB", [(-1.0, 0.0), (0.0, -1.0),
                                   (np.nan, 1.0), (1.0, np.inf)])
def test_bad_displacements_raise(dx, dB):
    with pytest.raises(ValueError):
        next_step(fresh_state(), dx, dB)


def test_gamma_sequence_is_summable():
    # gamma_k = 1/k up to the horizon and 0 after it: the sum is the
    # harmonic number H_1000 < 7.49, finite as the proof needs.
    assert GROWTH_HORIZON == 1000
    assert sum(1.0 / k for k in range(1, GROWTH_HORIZON + 1)) < 7.49


def test_growth_product_telescopes_to_horizon_plus_one():
    # prod_{k <= K} (1 + 1/k) = K + 1: a growth-only run multiplies its
    # step by GROWTH_HORIZON + 1 in all, to rounding.
    state = fresh_state(lam=1.0)
    for _ in range(GROWTH_HORIZON + 50):
        next_step(state, 1.0, 0.0)
    assert state.lambda_curr == pytest.approx(GROWTH_HORIZON + 1.0,
                                              rel=1e-12)


def test_growth_stops_after_the_horizon():
    # The last growth is at k = GROWTH_HORIZON; from there the step never
    # grows: a growth-branch update holds it bit for bit, and after a
    # shrink it holds the shrunk value.
    state = fresh_state(lam=0.2, k=GROWTH_HORIZON - 1)
    assert next_step(state, 1.0, 0.0) == (1.0 + 1.0 / GROWTH_HORIZON) * 0.2
    held = state.lambda_curr
    for _ in range(20):
        assert next_step(state, 1.0, 0.0) == held
    shrunk = next_step(state, 1.0, 10.0)
    assert shrunk == state.c1 * 1.0 / 10.0 < held
    for _ in range(20):
        assert next_step(state, 1.0, 0.0) == shrunk
    assert state.k == GROWTH_HORIZON + 41


def test_make_stepsize_state_defaults():
    delta, eps = 0.1, 1e-4
    state = make_stepsize_state(delta, 0.1)
    bound = (1.0 - eps) / (2.0 * abs(delta) + 2.0)
    assert state.c2 == pytest.approx(0.99 * bound)
    assert state.c1 == pytest.approx(0.9 * state.c2)
    assert state.lambda_curr == 0.1
    assert coefficient_bound(delta) == pytest.approx(bound)
    # Bit for bit the box configs pinned at delta = 0.1, so they run
    # unchanged without the keys.
    assert (state.c1, state.c2) == (0.4049595, 0.44995499999999994)
    for delta in (0.3, 0.0, -0.2, -0.3, -7.5):
        state = make_stepsize_state(delta, 0.1)
        assert 0.0 < state.c1 < state.c2 < coefficient_bound(delta)


def test_make_stepsize_state_rejects_bad_box():
    # The derived box is empty only when delta is not finite or
    # 2|delta| + 2 overflows, which reflection_scale rejects.
    for delta in (1e308, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^delta {delta_reason(delta)}"):
            make_stepsize_state(delta, 0.1)
    with pytest.raises(ValueError):
        make_stepsize_state(0.1, -0.5)


def test_make_stepsize_state_takes_one_step_positionally():
    # A third positional argument, once lambda_{-1}, must not bind to
    # c1.
    with pytest.raises(TypeError):
        make_stepsize_state(0.1, 0.1, 0.1)


def test_make_stepsize_state_takes_no_epsilon():
    # The c-box margin is the constant EPSILON, not a keyword.
    with pytest.raises(TypeError):
        make_stepsize_state(0.1, 0.1, epsilon=1e-4)


@pytest.mark.parametrize("key, value", [
    ("c1", 0.4), ("c2", 0.45), ("gamma_spec", None)])
def test_make_stepsize_state_takes_no_box_or_growth(key, value):
    # The box derives from delta and the growth sequence is the constant
    # harmonic law up to GROWTH_HORIZON; neither is a keyword.
    with pytest.raises(TypeError):
        make_stepsize_state(0.1, 0.1, **{key: value})


def test_lower_bound_on_affine_problem():
    # Rotation-block map scaled to L = 2 exactly, so dB = 2 dx always.
    L = 2.0
    gen = np.random.default_rng(0)
    blocks = [np.array([[0.0, -1.0], [1.0, 0.0]])] * 10
    M = L * np.kron(np.eye(10), blocks[0])
    b = gen.standard_normal(20)
    state = make_stepsize_state(0.1, 0.3)
    floor = min(state.c1 / L, 0.3)
    x_prev = gen.standard_normal(20)
    x = gen.standard_normal(20)
    lams = []
    for _ in range(2000):
        dx = float(np.linalg.norm(x_prev - x))
        dB = float(np.linalg.norm(M @ x_prev - M @ x))
        lams.append(next_step(state, dx, dB))
        x_prev, x = x, gen.standard_normal(20)
    lams = np.array(lams)
    assert np.all(lams >= floor - 1e-12)
    # The sequence settles: eventually nondecreasing.
    tail = lams[len(lams) // 2:]
    assert np.all(np.diff(tail) >= -1e-15)


@pytest.mark.parametrize("delta, scale", [
    (0.0, 2.0), (-0.0, 2.0), (0.1, 2.2), (-0.4, 2.8), (3, 8.0),
    (np.float64(-0.5), 3.0), (8e307, 2.0 * (1.0 + 8e307))])
def test_reflection_scale_is_twice_one_plus_abs_delta(delta, scale):
    assert reflection_scale(delta) == scale
    assert type(reflection_scale(delta)) is float


@given(st.floats(1e-6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
def test_the_shared_factor_keeps_every_regrouped_product_bitwise(L, delta,
                                                                 tau):
    # Doubling is exact, so reading 2(1 + |delta|) from one place moves
    # no bit of the step bound, the c-box or the primal-dual slack.
    scale = reflection_scale(delta)
    assert 1.0 / (L * scale) == 1.0 / (2.0 * L * (1.0 + abs(delta)))
    assert coefficient_bound(delta) == \
        (1.0 - EPSILON) / (2.0 * abs(delta) + 2.0)
    assert tau * scale * L == 2.0 * tau * (1.0 + abs(delta)) * L


@pytest.mark.parametrize("delta", _UNSCALED, ids=_UNSCALED_IDS)
def test_every_step_rule_rejects_delta_by_one_reason(delta):
    # gfrb_fixed with or without a step, gfrb_adaptive, epdtr_solve (as
    # its b), region --b and the config check all apply reflection_scale,
    # each before B is evaluated.  10**400 is an int that no float holds.
    B, calls = counting_forward(lambda x: 2.0 * x, lipschitz_hint=2.0)
    x0 = np.ones(3)
    problem, _ = gen_composite(6, 4, 0)
    problem.forward_b = B
    runs = [
        lambda: reflection_scale(delta),
        lambda: gfrb_fixed(zero_resolvent(), B, x0, x0, x0, None, delta),
        lambda: gfrb_fixed(zero_resolvent(), B, x0, x0, x0, 0.1, delta),
        lambda: gfrb_adaptive(zero_resolvent(), B, x0, None, delta, 0.1),
        lambda: epdtr_solve(problem, EPDTRConfig(b=delta)),
        lambda: region_grid(delta, 1.0, 1.0, n=3),
        lambda: config_from_dict({"delta": delta})]
    for run in runs:
        with pytest.raises(ValueError, match=f"delta {delta_reason(delta)}, "):
            run()
    assert calls.count == 0


# What no real_arg (or int_arg) accepts: a bool, a string and, as a real,
# a float that is not finite or an integer that no float holds.
_NOT_REAL = [True, "1", float("nan"), float("inf"), float("-inf"),
             10 ** 400]
_NOT_INT = [True, "1", float("nan"), float("inf"), 2.5]


def _counted_parts():
    """A counted forward B and resolvent A, the composite problem built on
    them with K, K* and C's resolvent counted too, the same problem
    without a Lipschitz hint, and every counter."""
    B, b_calls = counting_forward(lambda x: 2.0 * x, lipschitz_hint=2.0)
    A = CallCounter(zero_resolvent())
    problem, _ = gen_composite(6, 4, 0)
    K = problem.linmap_k
    apply, adjoint = CallCounter(K.apply), CallCounter(K.apply_adjoint)
    C = CallCounter(problem.resolvent_c)
    problem = replace(problem, resolvent_a=A, forward_b=B, resolvent_c=C,
                      linmap_k=LinearMap(apply, adjoint, K.shape))
    hintless = replace(problem, forward_b=ForwardOperator(B))
    return (A, B, problem, hintless), (b_calls, A, apply, adjoint, C)


def _config(**fields):
    # lasso reads every instance field, so only _check can reject one.
    return config_from_dict(dict({"problem": "lasso", "m": 8}, **fields))


def _hinted(problem, L, norm_k):
    """problem with Lipschitz hint L on its forward and norm hint norm_k
    on K; with norm_k None, step_pair would estimate ||K|| by applying
    K, so a rejection there must come before the power iteration."""
    problem = replace(problem, forward_b=ForwardOperator(
        problem.forward_b, lipschitz_hint=L))
    problem.linmap_k.norm_hint = norm_k
    return problem


_X0 = np.ones(3)
# Each scalar entry point: (call(value, A, B, problem, hintless), the
# start of its message, the values it must reject).  Each list ends with
# values past the argument's bound, or for delta and r, past the finite
# factor or cube each needs, or for L and norm_k, past a finite step
# budget.  An integer of 5001 digits is one repr refuses to print.
_SCALAR_ENTRY_POINTS = {
    "ForwardOperator-lipschitz_hint":
        (lambda v, A, B, p, h: ForwardOperator(B, lipschitz_hint=v),
         "lipschitz_hint must ", _NOT_REAL + ["1.0", -1.0]),
    "l1_resolvent-weight": (lambda v, *_: l1_resolvent(v), "weight must ",
                            _NOT_REAL + [-1.0, 10 ** 5000]),
    "StopRule-tol": (lambda v, *_: StopRule(tol=v), "tol must ",
                     _NOT_REAL + ["1e-6", -1e-6, -1.0]),
    "StopRule-max_iter": (lambda v, *_: StopRule(max_iter=v),
                          "max_iter must ",
                          _NOT_INT + [0, -3, -10 ** 5000, 10 ** 400]),
    "fb-lam": (lambda v, A, B, p, h: fb(A, B, _X0, v), "lam must ", [0.0]),
    "fbf-lam": (lambda v, A, B, p, h: fbf(A, B, _X0, v), "lam must ",
                [0.1 + 0j]),
    "frb-lam": (lambda v, A, B, p, h: frb(A, B, _X0, _X0, v), "lam must ",
                _NOT_REAL + ["0.1", 0.1 + 0j, 0.0, -0.1]),
    "gfrb_fixed-lam":
        (lambda v, A, B, p, h: gfrb_fixed(A, B, _X0, _X0, _X0, v, 0.1),
         "lam must ", _NOT_REAL + [0.0]),
    "gfrb_fixed-delta":
        (lambda v, A, B, p, h: gfrb_fixed(A, B, _X0, _X0, _X0, None, v),
         "delta must ", _NOT_REAL + ["0.1", None, 1e308]),
    "make_stepsize_state-delta":
        (lambda v, *_: make_stepsize_state(v, 0.1), "delta must ",
         _NOT_REAL + ["0.1", 1e308]),
    "make_stepsize_state-lambda0":
        (lambda v, *_: make_stepsize_state(0.1, v), "lambda0 must ",
         _NOT_REAL + [0.0, -0.5]),
    "gfrb_adaptive-lambda0":
        (lambda v, A, B, p, h: gfrb_adaptive(A, B, _X0, None, 0.1, v),
         "lambda0 must ", _NOT_REAL + [None, 0.0]),
    # delta has no bound; its factor 2(1 + |delta|) must stay finite.
    "reflection_scale-delta": (lambda v, *_: reflection_scale(v),
                               "delta must ", _NOT_REAL + [None, 1e308]),
    "check_stepsizes-tau":
        (lambda v, *_: check_stepsizes(v, 1.0, 0.0, 1.0, 1.0), "tau must ",
         _NOT_REAL + [0.0]),
    "check_stepsizes-sigma":
        (lambda v, *_: check_stepsizes(1.0, v, 0.0, 1.0, 1.0),
         "sigma must ", _NOT_REAL + [0.0]),
    "check_stepsizes-L": (lambda v, *_: check_stepsizes(1.0, 1.0, 0.0, v, 1.0),
                          "L must ", _NOT_REAL + [-1.0, 1e308]),
    "check_stepsizes-norm_k":
        (lambda v, *_: check_stepsizes(1.0, 1.0, 0.0, 1.0, v),
         "norm_k must ", _NOT_REAL + [-1.0, 1e200]),
    "default_stepsizes-L": (lambda v, *_: default_stepsizes(0.0, v, 1.0),
                            "L must ", _NOT_REAL + [-1.0, 1e308]),
    "default_stepsizes-norm_k":
        (lambda v, *_: default_stepsizes(0.0, 1.0, v), "norm_k must ",
         _NOT_REAL + [-1.0, 1e200]),
    # 0.95 / (2 L) overflows, so the default pair would be infinite; with
    # norm_k = 1e150 sigma underflows to 0.
    "default_stepsizes-L-alone":
        (lambda v, *_: default_stepsizes(0.0, v, 0.0), "L must ",
         [1e-320]),
    "default_stepsizes-L-and-norm_k":
        (lambda v, *_: default_stepsizes(0.0, v, 1e150), "L and norm_k must ",
         [1e-300]),
    "epdtr_solve-lipschitz_hint":
        (lambda v, A, B, p, h: epdtr_solve(_hinted(p, v, None)), "L must ",
         [1e308]),
    "epdtr_solve-norm_hint":
        (lambda v, A, B, p, h: epdtr_solve(_hinted(p, 2.0, v)),
         "norm_k must ", [1e200]),
    "epdtr_solve-tau":
        (lambda v, A, B, p, h: epdtr_solve(p, EPDTRConfig(tau=v, sigma=0.5)),
         "tau must ", _NOT_REAL + [0.0]),
    "epdtr_solve-sigma":
        (lambda v, A, B, p, h: epdtr_solve(p, EPDTRConfig(tau=0.1, sigma=v)),
         "sigma must ", _NOT_REAL + [0.0]),
    "epdtr_solve-hintless-tau":
        (lambda v, A, B, p, h: epdtr_solve(h, EPDTRConfig(tau=v, sigma=0.5)),
         "tau must ", _NOT_REAL + [0.0]),
    "epdtr_solve-hintless-sigma":
        (lambda v, A, B, p, h: epdtr_solve(h, EPDTRConfig(tau=0.1, sigma=v)),
         "sigma must ", _NOT_REAL + [0.0]),
    "region_grid-n": (lambda v, *_: region_grid(0.0, 1.0, 1.0, n=v),
                      "region argument 'n' (--grid): ",
                      _NOT_INT + [0, 10 ** 400]),
    "region_grid-L": (lambda v, *_: region_grid(0.0, v, 1.0, n=3),
                      "region argument 'L' (--L): ", _NOT_REAL + [-1.0]),
    "region_grid-norm_k": (lambda v, *_: region_grid(0.0, 1.0, v, n=3),
                           "region argument 'norm_k' (--normK): ",
                           _NOT_REAL + [-1.0]),
    # r has no bound; its cube must stay finite.
    "design_rate-r": (lambda v, *_: design_rate(v),
                      "design-rate argument 'r': ",
                      _NOT_REAL + ["2.5", 1e103, -1e103]),
    "gen_lasso-k": (lambda v, *_: gen_lasso(8, 10, v), "k must ",
                    _NOT_INT + [0, -1, 11, 10 ** 400]),
    **{f"config-{key}": (lambda v, *_, key=key: _config(**{key: v}),
                         f"config field '{key}': ", values)
       for key, values in (
           ("lambda0", _NOT_REAL + [0.0]), ("tol", _NOT_REAL + [0.0]),
           ("noise_sigma", _NOT_REAL + [-0.1]),
           ("reg_lambda", _NOT_REAL + [-0.01]),
           ("m", _NOT_INT + [0, 10 ** 400]), ("n", _NOT_INT + [0]),
           ("k", _NOT_INT + [0]), ("max_iter", _NOT_INT + [0]),
           ("seed", _NOT_INT + [-1, -10 ** 5000]),
           ("delta", _NOT_REAL + [-10 ** 400]))},
    "config-delta.gfrb_fixed":
        (lambda v, *_: _config(solvers=["gfrb_adaptive", "gfrb_fixed"],
                               delta={"gfrb_adaptive": 0.1,
                                      "gfrb_fixed": v}),
         "config field 'delta.gfrb_fixed': ", _NOT_REAL + [1e308]),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value,
                 id=f"{entry}-{_shown(value):.12}".replace(" ", "-"))
    for entry, (_, _, values) in _SCALAR_ENTRY_POINTS.items()
    for value in values])
def test_scalar_argument_is_rejected_by_name(entry, value):
    # One rule, stepsize.real_arg or int_arg, names each bad scalar where
    # it is passed: a constructor (ForwardOperator, l1_resolvent,
    # StopRule) fails where it is built, not at its first use inside a
    # solve, and a solver before B, a resolvent or K is evaluated.  None
    # of these raises OverflowError or TypeError on 10**400 or a string,
    # nor fails to print a value of 5001 digits.
    call, start, _ = _SCALAR_ENTRY_POINTS[entry]
    parts, counters = _counted_parts()
    with pytest.raises(ValueError, match=f"^{re.escape(start)}"):
        call(value, *parts)
    assert [c.count for c in counters] == [0] * len(counters)


@pytest.mark.parametrize("value, bound, expected", [
    (0, ">= 0", 0.0), (np.float64(2.5), "> 0", 2.5), (-3, None, -3.0),
    (1.7976931348623157e308, None, 1.7976931348623157e308)])
def test_real_arg_returns_an_accepted_value_as_a_float(value, bound,
                                                       expected):
    assert real_arg(value, "x", bound) == expected
    assert type(real_arg(value, "x", bound)) is float


def test_int_arg_returns_an_accepted_value_as_an_int():
    assert int_arg(np.int64(3), "n", 1) == 3
    assert type(int_arg(np.int64(3), "n", 1)) is int
    assert int_arg(sys.maxsize, "max_iter", 1) == sys.maxsize
