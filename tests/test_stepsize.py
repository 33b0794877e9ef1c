import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monosplit.stepsize import (GammaSpec, OperatorConsistencyError,
                                StepSizeState, coefficient_bound,
                                make_stepsize_state, next_step,
                                validate_coefficients)


def fresh_state(lam=0.1, c1=0.2, c2=0.4, gamma=None):
    return StepSizeState(lambda_curr=lam, c1=c1, c2=c2,
                         gamma_spec=gamma or GammaSpec())


def test_growth_branch_matches_worked_example():
    # dB = 0 takes the growth branch: 0.1 -> (1 + 0.5) * 0.1 = 0.15.
    state = fresh_state(lam=0.1)
    assert next_step(state, dx=1.0, dB=0.0) == pytest.approx(0.15)
    assert state.k == 1


def test_shrink_branch_returns_exact_ratio():
    state = fresh_state(lam=0.5, c1=0.2, c2=0.25)
    dx, dB = 1.0, 2.0
    # 0.5 * 2.0 > 0.25 * 1.0 fires the shrink branch.
    lam = next_step(state, dx, dB)
    assert lam == state.c1 * dx / dB


def test_tie_takes_growth_branch():
    state = fresh_state(lam=0.5, c1=0.2, c2=0.25, gamma=GammaSpec(kind="zero"))
    # lambda * dB == c2 * dx exactly: 0.5 * 0.5 == 0.25.
    lam = next_step(state, dx=1.0, dB=0.5)
    assert lam == 0.5


@given(st.floats(0.01, 10), st.floats(0.0, 10), st.floats(0.0, 10),
       st.integers(0, 5))
def test_branch_law(lam, dx, dB, k0):
    if dx == 0.0 and dB > 0.0:
        return
    state = StepSizeState(lambda_curr=lam, c1=0.2, c2=0.4, k=k0)
    out = next_step(state, dx, dB)
    if lam * dB > 0.4 * dx:
        assert out == 0.2 * dx / dB
    else:
        assert out == (1.0 + state.gamma_spec.value(k0 + 1)) * lam
    assert state.k == k0 + 1


def test_inconsistent_displacements_raise():
    with pytest.raises(OperatorConsistencyError):
        next_step(fresh_state(), dx=0.0, dB=1.0)


def test_zero_zero_takes_growth():
    state = fresh_state(lam=0.2, gamma=GammaSpec(kind="zero"))
    assert next_step(state, 0.0, 0.0) == 0.2


@pytest.mark.parametrize("dx,dB", [(-1.0, 0.0), (0.0, -1.0),
                                   (np.nan, 1.0), (1.0, np.inf)])
def test_bad_displacements_raise(dx, dB):
    with pytest.raises(ValueError):
        next_step(fresh_state(), dx, dB)


def test_gamma_kinds():
    assert GammaSpec("geometric", ratio=0.5, scale=1.0).value(2) == 0.25
    assert GammaSpec("inverse_square", scale=2.0).value(2) == 0.5
    assert GammaSpec("zero").value(100) == 0.0


def test_gamma_validation():
    with pytest.raises(ValueError):
        GammaSpec("nope")
    with pytest.raises(ValueError):
        GammaSpec("geometric", ratio=1.5)
    with pytest.raises(ValueError):
        GammaSpec("geometric", scale=-1.0)


def test_gamma_sequence_is_summable():
    for spec in [GammaSpec(), GammaSpec("inverse_square")]:
        total = sum(spec.value(k) for k in range(1, 10000))
        assert total < 3.0


def test_make_stepsize_state_defaults():
    delta, eps = 0.1, 1e-4
    state = make_stepsize_state(delta, 0.1)
    bound = (1.0 - eps) / (2.0 * abs(delta) + 2.0)
    assert state.c2 == pytest.approx(0.99 * bound)
    assert state.c1 == pytest.approx(0.9 * state.c2)
    assert state.lambda_curr == 0.1
    assert coefficient_bound(delta) == pytest.approx(bound)


def test_make_stepsize_state_rejects_bad_box():
    with pytest.raises(ValueError, match="c1"):
        make_stepsize_state(0.1, 0.1, c1=0.4, c2=0.3)
    with pytest.raises(ValueError):
        make_stepsize_state(0.1, 0.1, c2=10.0)
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


def test_validate_coefficients_names_c1():
    with pytest.raises(ValueError, match="c1"):
        validate_coefficients(0.5, 0.4, 0.0)


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
