import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from monosplit.operators import (ForwardOperator, LinearMap,
                                 l1_resolvent, make_affine_forward,
                                 make_lasso_forward, power_norm,
                                 soft_threshold, symmetric_affine_resolvent,
                                 zero_resolvent)

finite_vectors = hnp.arrays(np.float64, st.integers(1, 12),
                            elements=st.floats(-10, 10))


def test_soft_threshold_examples():
    np.testing.assert_allclose(soft_threshold([2.0, -0.5, -3.0], 1.0),
                               [1.0, 0.0, -2.0])
    np.testing.assert_allclose(soft_threshold([0.3], 0.5), [0.0])


@given(finite_vectors, st.floats(0, 5))
def test_soft_threshold_shrinks_magnitudes(z, lam):
    out = soft_threshold(z, lam)
    np.testing.assert_allclose(np.abs(out),
                               np.maximum(np.abs(z) - lam, 0.0), atol=1e-12)
    assert np.all(out * z >= 0.0)


@given(finite_vectors, finite_vectors, st.floats(0, 5))
def test_soft_threshold_nonexpansive(a, b, lam):
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    assert np.all(np.abs(soft_threshold(a, lam) - soft_threshold(b, lam))
                  <= np.abs(a - b) + 1e-12)


@given(finite_vectors, st.floats(0.01, 5), st.floats(0.1, 3))
def test_l1_resolvent_satisfies_optimality(z, lam, weight):
    x = l1_resolvent(weight).resolve(z, lam)
    grad = z - x
    on = x != 0.0
    np.testing.assert_allclose(grad[on], lam * weight * np.sign(x[on]),
                               atol=1e-10)
    assert np.all(np.abs(grad[~on]) <= lam * weight + 1e-12)


def test_soft_threshold_matches_sign_form_bitwise():
    t = 0.75
    z = np.concatenate([
        [2.0, -2.0, t, -t, 0.5, -0.5, 0.0, np.inf, -np.inf, np.nan,
         5e-324, -1e300],
        np.random.default_rng(8).standard_normal(200)])
    before = z.copy()
    out = soft_threshold(z, t)
    ref = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    np.testing.assert_array_equal(out, ref)
    finite = ~np.isnan(ref)
    assert out[finite].tobytes() == ref[finite].tobytes()
    assert z.tobytes() == before.tobytes()
    # Exact ties |z| = t land on a zero carrying z's sign.
    assert out[2] == 0.0 and not np.signbit(out[2])
    assert out[3] == 0.0 and np.signbit(out[3])


def test_soft_threshold_signed_zero_list_and_scalar_inputs():
    # The one bit that differs from the sign form: -0.0 keeps its sign.
    out = soft_threshold([-0.0, 0.0, -3.0], 1.0)
    assert isinstance(out, np.ndarray)
    assert out.tobytes() == np.array([-0.0, 0.0, -2.0]).tobytes()
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.25, 1.0) == 0.0


def test_symmetric_affine_resolvent_bitwise_as_step_changes():
    # lambda in the order (l1, l2, l1): every call must use its own
    # lambda's coefficient, so a stale cached coefficient would show.
    gen = np.random.default_rng(21)
    m = 9
    R = gen.standard_normal((m, m))
    E = 0.5 * (R + R.T)
    beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
    eigs, P = np.linalg.eigh(E)
    res = symmetric_affine_resolvent(E, beta)
    z = gen.standard_normal(m)
    outs = []
    for lam in (0.3, 1.7, 0.3):
        expected = P @ (1.0 / (1.0 + lam * (eigs + beta)) * (P.T @ z))
        out = res.resolve(z, lam)
        assert out.tobytes() == expected.tobytes()
        outs.append(out)
    assert not np.array_equal(outs[0], outs[1])


def test_zero_resolvent_is_identity():
    z = np.array([1.5, -2.0, 0.0])
    np.testing.assert_array_equal(zero_resolvent().resolve(z, 3.7), z)


def test_symmetric_affine_resolvent_matches_dense_solve():
    gen = np.random.default_rng(5)
    for _ in range(5):
        m = 8
        R = gen.standard_normal((m, m))
        E = 0.5 * (R + R.T)
        beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
        res = symmetric_affine_resolvent(E, beta)
        z = gen.standard_normal(m)
        lam = float(gen.uniform(0.05, 2.0))
        expected = np.linalg.solve(np.eye(m) + lam * (E + beta * np.eye(m)), z)
        np.testing.assert_allclose(res.resolve(z, lam), expected,
                                   rtol=1e-12, atol=1e-12)


def test_resolvent_symmetric_affine_explicit_basis():
    E = np.diag([1.0, 3.0])
    z = np.array([2.0, 4.0])
    out = symmetric_affine_resolvent(E, 1.0).resolve(z, 0.5)
    np.testing.assert_allclose(out, [2.0 / 2.0, 4.0 / 3.0])


def test_symmetric_affine_resolvent_firmly_nonexpansive():
    gen = np.random.default_rng(11)
    m = 6
    R = gen.standard_normal((m, m))
    E = 0.5 * (R + R.T)
    beta = float(np.max(np.abs(np.linalg.eigvalsh(E))))
    res = symmetric_affine_resolvent(E, beta)
    for _ in range(20):
        x, y = gen.standard_normal(m), gen.standard_normal(m)
        lam = float(gen.uniform(0.1, 2.0))
        jx, jy = res.resolve(x, lam), res.resolve(y, lam)
        lhs = np.dot(jx - jy, jx - jy)
        rhs = np.dot(jx - jy, x - y)
        assert lhs <= rhs + 1e-10


def test_power_norm_matches_svd_and_never_exceeds():
    gen = np.random.default_rng(3)
    for shape in [(5, 8), (8, 5), (10, 10)]:
        K = gen.standard_normal(shape)
        true = np.linalg.norm(K, 2)
        est = power_norm(K)
        assert est <= true * (1.0 + 1e-12)
        assert abs(est - true) <= 1e-6 * true


def test_power_norm_zero_map():
    assert power_norm(np.zeros((4, 3))) == 0.0


def test_power_norm_deterministic():
    K = np.random.default_rng(9).standard_normal((7, 6))
    assert power_norm(K) == power_norm(K)


def test_make_affine_forward_example():
    op = make_affine_forward(2.0 * np.eye(2), np.zeros(2))
    np.testing.assert_allclose(op.evaluate(np.array([1.0, 1.0])), [2.0, 2.0])
    assert op.lipschitz_hint == pytest.approx(2.0)


def test_make_lasso_forward_matches_normal_equations():
    gen = np.random.default_rng(1)
    A = gen.standard_normal((6, 9))
    y = gen.standard_normal(6)
    op = make_lasso_forward(A, y)
    x = gen.standard_normal(9)
    np.testing.assert_allclose(op.evaluate(x), A.T @ (A @ x - y), rtol=1e-13)
    assert op.lipschitz_hint == pytest.approx(np.linalg.norm(A, 2) ** 2)


def test_linear_map_adjoint_consistency():
    gen = np.random.default_rng(2)
    K = gen.standard_normal((5, 7))
    lin = LinearMap.from_matrix(K)
    assert lin.shape == (5, 7)
    for _ in range(10):
        x, y = gen.standard_normal(7), gen.standard_normal(5)
        assert np.dot(lin.apply(x), y) == pytest.approx(
            np.dot(x, lin.apply_adjoint(y)), rel=1e-12)


def test_forward_operator_wraps_callable():
    op = ForwardOperator(lambda x: 3.0 * x, lipschitz_hint=3.0)
    np.testing.assert_allclose(op(np.array([1.0, -2.0])), [3.0, -6.0])
    assert op.lipschitz_hint == 3.0
