import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monosplit.stepsize import (GROWTH_HORIZON, OperatorConsistencyError,
                                StepSizeState, coefficient_bound,
                                make_stepsize_state, next_step)


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
    # 2|delta| + 2 overflows.
    for delta in (1e308, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^need 0 < c1 < c2 < .* for "
                                             "delta="):
            make_stepsize_state(delta, 0.1)
    with pytest.raises(ValueError):
        make_stepsize_state(0.1, -0.5)


@pytest.mark.parametrize("args, name", [
    ((float("nan"),), "lambda0"), ((float("inf"),), "lambda0"),
    ((0.0,), "lambda0")])
def test_make_stepsize_state_rejects_bad_steps(args, name):
    # A NaN or infinite step fails when the state is built, naming the
    # argument, not later as a divergence inside the run.
    with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                         "finite"):
        make_stepsize_state(0.1, *args)


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
