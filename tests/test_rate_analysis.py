import numpy as np
import pytest
from oracles import build_matrix, spectral_radius
from test_acceptance import reference_entries

from monosplit.experiments import gen_example2
from monosplit.operators import zero_resolvent
from monosplit.rate_analysis import (EXCLUDED_RATES, ROTATION, STEP_RULES,
                                     TABLE_DELTAS,
                                     characteristic_coefficients,
                                     characteristic_roots, cubic_roots,
                                     design_rate, rate_table)
from monosplit.splitting import StopRule, gfrb_fixed

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_build_matrix_top_left_block():
    M = build_matrix(ROTATION, 0.5, 0.0)
    np.testing.assert_allclose(M[:2, :2], [[1.0, 1.0], [-1.0, 1.0]])
    assert M.shape == (6, 6)
    # History rows are plain shifts.
    np.testing.assert_allclose(M[2:4, :2], np.eye(2))
    np.testing.assert_allclose(M[4:6, 2:4], np.eye(2))


def test_zero_forward_gives_shift_matrix():
    M = build_matrix(np.zeros((2, 2)), 0.3, 0.7)
    assert spectral_radius(M) == pytest.approx(1.0)


def test_spectral_radius_of_rotation_at_half_step():
    rho = spectral_radius(build_matrix(ROTATION, 0.5, 0.0))
    assert rho == pytest.approx(INV_SQRT2, abs=1e-6)


def test_cubic_roots_match_matrix_oracle():
    # The rotation's spectrum is the cubic's roots at mu = i and mu = -i;
    # away from the delta = 0 cusp both routes agree to rounding.
    gen = np.random.default_rng(2024)
    deltas = gen.uniform(-2.0, 2.0, 500)
    deltas = deltas[np.abs(deltas) >= 1e-3]
    lams = gen.uniform(0.05, 0.6, deltas.shape)
    roots = cubic_roots(np.array([1j, -1j]), lams[:, None], deltas[:, None])
    assert roots.shape == (len(deltas), 2, 3)
    for delta, lam, z in zip(deltas, lams, roots):
        M = build_matrix(ROTATION, lam, delta)
        rho_mat = spectral_radius(M)
        assert abs(np.max(np.abs(z)) - rho_mat) <= 1e-10
        # The whole spectrum, not just its radius: each of the six
        # eigenvalues of M is one of the cubic's roots, and each root
        # is an eigenvalue.
        gaps = np.abs(np.linalg.eigvals(M)[:, None] - z.ravel())
        assert np.max(np.min(gaps, axis=1)) <= 1e-10
        assert np.max(np.min(gaps, axis=0)) <= 1e-10
    # At delta = 0, lam = 1/2 the double root (1 -+ i)/2 limits the
    # accuracy to about sqrt(eps).
    assert abs(np.max(np.abs(cubic_roots(1j, 0.5, 0.0))) - INV_SQRT2) <= 1e-8
    assert abs(rate_table([0.0])[0][3] - INV_SQRT2) <= 1e-8
    # Real arguments give a real companion, hence real roots.
    assert cubic_roots(1.0, 0.25, 0.5).dtype == np.float64


def test_characteristic_polynomial_matches_determinant():
    # det(zI - M) of the companion-block matrix is the polynomial: the
    # same coefficients, the same values and the same largest root.
    gen = np.random.default_rng(12)
    for _ in range(10):
        delta = float(gen.uniform(-2.0, 2.0))
        lam = float(gen.uniform(0.05, 0.6))
        coeffs = characteristic_coefficients(delta, lam)
        M = build_matrix(ROTATION, lam, delta)
        np.testing.assert_allclose(coeffs, np.poly(M), rtol=0.0, atol=1e-12)
        rho_poly = np.max(np.abs(characteristic_roots(delta, lam)))
        assert abs(rho_poly - spectral_radius(M)) <= 1e-12
        for _ in range(3):
            z = complex(gen.uniform(-2, 2), gen.uniform(-2, 2))
            det = np.linalg.det(z * np.eye(6) - M)
            poly = np.polyval(coeffs, z)
            assert abs(det - poly) <= 1e-9 * max(1.0, abs(det))


def test_polynomial_and_matrix_routes_agree():
    gen = np.random.default_rng(77)
    for _ in range(50):
        delta = float(gen.uniform(-2.0, 2.0))
        if delta == 0.0:
            continue
        lam = 1.0 / (2.0 * abs(delta) + 2.0)
        rho_poly = float(np.max(np.abs(characteristic_roots(delta))))
        rho_mat = spectral_radius(build_matrix(ROTATION, lam, delta))
        assert abs(rho_poly - rho_mat) <= 1e-6


def test_delta_zero_roots_structure():
    roots = characteristic_roots(0.0)
    mods = np.sort(np.abs(roots))
    np.testing.assert_allclose(mods[:2], 0.0, atol=1e-8)
    np.testing.assert_allclose(mods[2:], INV_SQRT2, atol=1e-6)
    # The four nonzero roots sit at (1 +- i)/2, each doubled.
    nonzero = roots[np.abs(roots) > 1e-4]
    np.testing.assert_allclose(np.sort(nonzero.real), 0.5, atol=1e-6)
    np.testing.assert_allclose(np.sort(np.abs(nonzero.imag)), 0.5, atol=1e-6)


def test_rate_exceeds_baseline_away_from_zero():
    for delta in (-0.5, 0.5):
        lam = 1.0 / (2.0 * abs(delta) + 2.0)
        rho_mat = spectral_radius(build_matrix(ROTATION, lam, delta))
        rho_poly = float(np.max(np.abs(characteristic_roots(delta))))
        assert rho_mat > INV_SQRT2
        assert rho_poly > INV_SQRT2


def test_design_rate_published_triples():
    for r, delta_ref, lam_ref in [(3.0, 3.0 / 2.0, 2.0 / 15.0),
                                  (5.0, 27.0 / 68.0, 68.0 / 285.0),
                                  (6.0, 13.0 / 45.0, 45.0 / 174.0)]:
        design = design_rate(r)
        assert design.delta == pytest.approx(delta_ref, rel=1e-12)
        assert design.lam == pytest.approx(lam_ref, rel=1e-12)
        p = (2.0 * design.delta + 1.0) * design.lam
        q = design.delta * design.lam
        z = 1.0 / r
        residual = z ** 3 - p * z ** 2 - p * z + q
        assert abs(residual) <= 1e-12
        assert design.roots.shape == (3,)
        assert np.min(np.abs(design.roots - z)) <= 1e-9


def test_design_rate_rejects_excluded_set():
    for bad in EXCLUDED_RATES:
        with pytest.raises(ValueError, match="excluded"):
            design_rate(bad)


def test_design_rate_rejects_degenerate_points():
    with pytest.raises(ValueError):
        design_rate((1.0 - np.sqrt(13.0)) / 2.0)  # denominator root
    with pytest.raises(ValueError):
        design_rate(0.0)  # delta + 1 = 0
    with pytest.raises(ValueError):
        design_rate((1.0 + np.sqrt(5.0)) / 2.0)  # delta + 1 = 0


def test_designed_recursion_tracks_target_rate():
    design = design_rate(4.0)
    p = (2.0 * design.delta + 1.0) * design.lam
    q = design.delta * design.lam
    r = 4.0
    xs = [1.0, 1.0 / r, 1.0 / r ** 2]
    for _ in range(25):
        xs.append(p * (xs[-1] + xs[-2]) - q * xs[-3])
    for k, x in enumerate(xs):
        assert abs(x - r ** (-k)) <= 1e-12


def test_rate_table_shape_and_labels():
    rows = rate_table()
    assert len(rows) == len(TABLE_DELTAS) * len(STEP_RULES)
    labels = {row[1] for row in rows}
    assert labels == {label for label, _ in STEP_RULES}
    assert all(row[3] > 0.0 for row in rows)
    # First row is the delta = 0 boundary rule, an exact 1/sqrt(2) rate.
    delta0, label0, lam0, rho0 = rows[0]
    assert delta0 == 0.0
    assert lam0 == pytest.approx(0.5)
    assert rho0 == pytest.approx(INV_SQRT2, abs=1e-6)


def test_reference_rate_table_matches_high_precision_cubic():
    # The reference table is the largest root modulus of the scalar cubic
    # z^3 - (1 - lam (d+2) i) z^2 - lam (2d+1) i z + lam d i, rounded to
    # 6 decimals; recompute it with 50 digits, away from the package.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    i = mp.mpc(0, 1)
    for delta, label, lam, ref in reference_entries():
        d, lam = mp.mpf(delta), mp.mpf(lam)
        coeffs = [1, -(1 - lam * (d + 2) * i), -lam * (2 * d + 1) * i,
                  lam * d * i]
        rho = max(abs(z) for z in mp.polyroots(coeffs, maxsteps=200,
                                               extraprec=200))
        assert abs(rho - ref) <= 5e-7, (delta, label, rho, ref)


def test_reference_rate_table_matches_solver_tail_rate():
    # The observed rate of gfrb_fixed on the rotation is the spectral
    # radius; the table is rounded to 6 decimals, so allow its half-unit
    # on top of 1e-8.  The delta = 0, lam = 1/2 entry is a double root
    # whose error decays like k rho^k, too slowly to read off a rate.
    v = np.array([1.0, 0.5])
    rotation = lambda x: ROTATION @ x
    checked = 0
    for delta, label, lam, ref in reference_entries():
        if delta == 0.0 and label == "1/(2d+2)":
            continue
        _x, trace = gfrb_fixed(zero_resolvent(), rotation, v, v, v, lam,
                               delta, StopRule(tol=0.0, max_iter=400))
        rate = (trace.errs[399] / trace.errs[299]) ** (1.0 / 100.0)
        assert abs(rate - ref) <= 5e-7 + 1e-8, (delta, label, rate, ref)
        checked += 1
    assert checked == len(reference_entries()) - 1


def _stable_edge(mu, delta):
    """Largest lam*|mu| with every root of the scalar cubic inside the
    unit circle, by bisection on max|cubic_roots(mu, lam, delta)| < 1."""
    lo, hi = 1e-6, 3.0
    assert np.max(np.abs(cubic_roots(mu, lo, delta))) < 1.0
    assert np.max(np.abs(cubic_roots(mu, hi, delta))) >= 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.max(np.abs(cubic_roots(mu, mid, delta))) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("delta, real_edge, rotation_edge", [
    (0.3, 0.476, 0.563), (0.1, 0.588, 0.590), (0.0, 0.667, 0.577),
    (-0.1, 0.769, 0.554), (-0.2, 0.909, 0.526), (-0.3, 1.111, 0.498),
    (-0.4, 1.429, 0.472)])
def test_stable_step_is_asymmetric_in_delta(delta, real_edge, rotation_edge):
    # The theory bound 1/(2(1+|delta|)) is symmetric in delta; the true
    # stable step is not.  For a real mu (a symmetric B such as lasso's
    # A^T A) a negative delta stretches it, to 2/(3+4 delta) where the
    # cubic's root crosses -1; on the rotation mu = i it barely moves.
    # This is why lasso ships delta = -0.1 (README "Choosing delta").
    assert _stable_edge(1.0, delta) == pytest.approx(real_edge, abs=1e-3)
    assert _stable_edge(1j, delta) == pytest.approx(rotation_edge, abs=1e-3)


@pytest.mark.parametrize("delta", [0.1, 0.0, -0.1])
def test_example2_fixed_step_rate_is_companion_spectral_radius(delta):
    # Example2 is affine in B and its resolvent is the diagonal scaling
    # r = 1/(1 + lam*d), so a gfrb_fixed run is a linear recursion whose
    # rate is rho of the 3m x 3m companion (build_matrix with r).
    m = 30
    inst = gen_example2(m, 10)
    A, B = inst.resolvent_a, inst.forward_b
    B_mat = inst.basis.T @ inst.data["M"] @ inst.basis
    x0 = inst.basis.T @ np.ones(m)
    _x, trace = gfrb_fixed(A, B, x0, x0, x0, None, delta,
                           StopRule(tol=0.0, max_iter=150))
    lam = trace.lambdas[0]
    rho = spectral_radius(build_matrix(B_mat, lam, delta, A(np.ones(m), lam)))
    # Passes 100-150: late enough for the top mode, far above rounding.
    ratio = (trace.errs[149] / trace.errs[99]) ** (1.0 / 50.0)
    assert abs(ratio - rho) <= 1e-2, (ratio, rho)
    tol = 1e-10
    _x, trace = gfrb_fixed(A, B, x0, x0, x0, None, delta,
                           StopRule(tol=tol, max_iter=1000))
    assert trace.converged
    predicted = np.log(tol / trace.errs[0]) / np.log(rho)
    assert abs(len(trace) - predicted) <= 0.1 * predicted, \
        (len(trace), predicted)
