"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line before asserting, so
running ``pytest -s tests/test_acceptance.py`` yields a readable scorecard.
Every criterion is a self-contained oracle: a reference table derived
independently of the package (criterion 1, the rotation-rate table), closed
forms, dense linear-algebra references, or long-run proximal-gradient
solutions.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import RecordingResolvent, random_monotone_affine
from oracles import (build_matrix, coupling_matrix, gfrb_in_metric,
                     metric_matrix, spectral_radius)

from monosplit.operators import (ForwardOperator, LinearMap, l1_resolvent,
                                 soft_threshold, zero_resolvent)
from monosplit.primal_dual import (EPDTRConfig, PrimalDualState,
                                   default_stepsizes, epdtr_solve,
                                   epdtr_step, region_grid)
from monosplit.rate_analysis import (ROTATION, TABLE_DELTAS, design_rate,
                                     rate_table)
from monosplit.splitting import (DivergenceError, StopRule, fb, frb,
                                 gfrb_adaptive, gfrb_fixed)
from monosplit import stepsize
from monosplit.stepsize import coefficient_bound, make_stepsize_state
from monosplit.experiments import (ExperimentConfig, gen_composite,
                                   gen_lasso, generate, run_solver, snr)


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# Reference spectral radii for the rotation test matrix, one row per delta,
# columns in the order of REFERENCE_RULES.  Derivation, independent of the
# package: with B the 90-degree rotation (eigenvalues +-i) and A = 0, the
# recursion x_{k+1} = x_k - lam (delta+2) B x_k + lam (2 delta+1) B x_{k-1}
# - lam delta B x_{k-2} splits along the eigenvectors of B into the scalar
# cubic z^3 - (1 - lam (delta+2) i) z^2 - lam (2 delta+1) i z + lam delta i
# (the -i cubic has the conjugate roots).  Each entry is the largest root
# modulus of that cubic from mpmath.polyroots at mp.dps = 50, rounded to
# 6 decimals, so it lies within 5e-7 of the exact value;
# tests/test_rate_analysis.py recomputes it.  Closed forms at delta = 0:
# rules 1/(3d+3) and 1/(2d+3) give lam = 1/3, the scheme is FRB, and
# z^2 - (1 - 2i/3) z - i/3 has largest root modulus 0.934172; rule
# 1/(2d+2) gives lam = 1/2 and the double root (1 +- i)/2 of modulus
# 1/sqrt(2), so that column grows like sqrt(delta) near 0.
REFERENCE_RULES = (
    ("1/(2d+2)", lambda d: 1.0 / (2.0 * d + 2.0)),
    ("1/(3d+3)", lambda d: 1.0 / (3.0 * d + 3.0)),
    ("1/(2d+3)", lambda d: 1.0 / (2.0 * d + 3.0)),
)

REFERENCE_TABLE = (
    (0.0, 0.707107, 0.934172, 0.934172),
    (0.0020, 0.729980, 0.934490, 0.934385),
    (0.0121, 0.761668, 0.936059, 0.935441),
    (0.0141, 0.765734, 0.936363, 0.935647),
    (0.0162, 0.769660, 0.936679, 0.935862),
    (0.0303, 0.790396, 0.938740, 0.937279),
    (0.0323, 0.792809, 0.939024, 0.937476),
    (0.0343, 0.795129, 0.939305, 0.937673),
    (0.0364, 0.797474, 0.939599, 0.937878),
    (0.0404, 0.801710, 0.940151, 0.938265),
    (0.0525, 0.813036, 0.941775, 0.939415),
    (0.0545, 0.814732, 0.942037, 0.939601),
    (0.0566, 0.816466, 0.942310, 0.939797),
    (0.0586, 0.818077, 0.942568, 0.939982),
    (0.0606, 0.819650, 0.942824, 0.940166),
    (0.0626, 0.821187, 0.943078, 0.940349),
    (0.0667, 0.824231, 0.943593, 0.940722),
    (0.0687, 0.825667, 0.943842, 0.940902),
    (0.0808, 0.833760, 0.945311, 0.941977),
    (0.0909, 0.839846, 0.946490, 0.942850),
    (0.0929, 0.840988, 0.946719, 0.943021),
    (0.0949, 0.842112, 0.946946, 0.943190),
)


def reference_entries():
    """(delta, label, lam, rho) per table entry, grid-major, rule-minor."""
    return [(row[0], label, rule(row[0]), ref)
            for row in REFERENCE_TABLE
            for (label, rule), ref in zip(REFERENCE_RULES, row[1:])]


def test_criterion_01_published_rate_table():
    assert tuple(row[0] for row in REFERENCE_TABLE) == TABLE_DELTAS
    t0 = time.perf_counter()
    rows = rate_table()
    elapsed = time.perf_counter() - t0
    expected = reference_entries()
    assert len(rows) == len(expected)
    worst_gap, worst_at = 0.0, None
    for (delta, label, lam, rho), (delta_ref, label_ref, lam_ref, ref) in \
            zip(rows, expected):
        assert (delta, label) == (delta_ref, label_ref)
        assert lam == pytest.approx(lam_ref, rel=1e-14)
        gap = abs(rho - ref)
        if worst_at is None or gap > worst_gap:
            worst_gap, worst_at = gap, (delta, label)
    ok = worst_gap <= 5e-6 and elapsed < 1.0
    report(1, ok,
           f"66 spectral radii from rate_table() vs the reference table: "
           f"max abs gap {worst_gap:.2e} at delta={worst_at[0]}, "
           f"rule {worst_at[1]} (tolerance 5e-6), computed in "
           f"{elapsed:.3f}s")


def test_criterion_02_rate_strictly_above_baseline_off_zero():
    target = 1.0 / np.sqrt(2.0)
    min_margin = np.inf
    for delta in (0.01, -0.01, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        lam = 1.0 / (2.0 * abs(delta) + 2.0)
        rho = spectral_radius(build_matrix(ROTATION, lam, delta))
        min_margin = min(min_margin, rho - target)
    zero_gap = abs(spectral_radius(build_matrix(ROTATION, 0.5, 0.0))
                   - target)
    ok = min_margin > 1e-6 and zero_gap <= 1e-8
    report(2, ok,
           f"spectral radius exceeds 1/sqrt(2) away from delta=0 "
           f"(min margin {min_margin:.3e} > 1e-6) and matches it at "
           f"delta=0 (gap {zero_gap:.3e} <= 1e-8)")


def test_criterion_03_closed_form_geometric_trajectories():
    designs = ((3.0, 1.5, 2.0 / 15.0),
               (5.0, 27.0 / 68.0, 68.0 / 285.0),
               (6.0, 13.0 / 45.0, 45.0 / 174.0))
    gen = np.random.default_rng(7)
    worst = 0.0
    for dim in (100, 1000):
        for r, delta, lam in designs:
            v = gen.standard_normal(dim)
            rec = RecordingResolvent(zero_resolvent())
            ident = ForwardOperator(lambda x: x, lipschitz_hint=1.0)
            x0 = v / r ** 2
            gfrb_fixed(rec, ident, x0, v / r, v, lam, delta,
                       StopRule(tol=0.0, max_iter=30))
            assert len(rec.outputs) == 30
            for j, out in enumerate(rec.outputs):
                t = v / r ** (3 + j)
                rel = np.linalg.norm(out - t) / max(np.linalg.norm(x0),
                                                    np.linalg.norm(t))
                worst = max(worst, rel)
    ok = worst <= 1e-12
    report(3, ok,
           f"geometric decay at rates 1/3, 1/5, 1/6 in dimensions 100 and "
           f"1000 over 30 iterations: worst relative deviation {worst:.2e} "
           f"<= 1e-12")


def test_criterion_04_designed_rates_track_target():
    excluded_near = [0.0, 1.0, (1.0 + np.sqrt(13.0)) / 2.0,
                     (-1.0 + np.sqrt(13.0)) / 2.0,
                     (1.0 - np.sqrt(13.0)) / 2.0,
                     (1.0 + np.sqrt(5.0)) / 2.0,
                     (1.0 - np.sqrt(5.0)) / 2.0]
    gen = np.random.default_rng(42)
    picked = 0
    worst_res, worst_track = 0.0, 0.0
    while picked < 20:
        r = float(gen.uniform(-10.0, 10.0))
        if min(abs(r - c) for c in excluded_near) < 0.15:
            continue
        design = design_rate(r)
        p = (2.0 * design.delta + 1.0) * design.lam
        q = design.delta * design.lam
        worst_res = max(worst_res,
                        abs(np.polyval([1.0, -p, -p, q], 1.0 / r)))
        v = gen.standard_normal(6)
        x, x_prev, x_prev2 = v / r ** 2, v / r, v
        scale = np.linalg.norm(x)
        x0 = x.copy()
        for k in range(1, 21):
            x, x_prev, x_prev2 = p * (x + x_prev) - q * x_prev2, x, x_prev
            t = x0 / r ** k
            scale = max(scale, np.linalg.norm(t))
            worst_track = max(worst_track,
                              np.linalg.norm(x - t) / scale)
        picked += 1
    ok = worst_res <= 1e-12 and worst_track <= 1e-10
    report(4, ok,
           f"20 random designed rates in [-10, 10]: worst cubic residual "
           f"at 1/r {worst_res:.2e} <= 1e-12, worst 20-step trajectory "
           f"deviation {worst_track:.2e} <= 1e-10")


def _adaptive_step_run(seed):
    """Steps of 10 000 adaptive iterations on criterion 5's problem.

    Block-diagonal scaled rotations with spread-out magnitudes; the
    smallest block converges slowly enough that all 10 000 displacements
    stay far above rounding noise, so the measured local ratios are
    trustworthy for the whole run.  Returns (steps, floor, shrinks, ok).
    """
    gen = np.random.default_rng(seed)
    nblk = 15
    dim = 2 * nblk
    alphas = np.exp(gen.uniform(np.log(1e-3), np.log(2.0), nblk))
    alphas[0], alphas[-1] = 1e-3, 2.0
    M = np.zeros((dim, dim))
    for i, a in enumerate(alphas):
        th = gen.uniform(-np.pi / 2.0, np.pi / 2.0)
        c, s = np.cos(th), np.sin(th)
        M[2 * i:2 * i + 2, 2 * i:2 * i + 2] = a * np.array([[c, -s],
                                                            [s, c]])
    b = gen.standard_normal(dim)
    L = 2.0
    forward = ForwardOperator(lambda x: M @ x + b, lipschitz_hint=L)
    lambda0 = 0.3
    floor = min(make_stepsize_state(0.1, lambda0).c1 / L, lambda0)
    _, trace = gfrb_adaptive(zero_resolvent(), forward, np.ones(dim),
                             np.ones(dim), 0.1, lambda0,
                             StopRule(tol=0.0, max_iter=10000))
    lams = np.array(trace.lambdas)
    tail = lams[lams.size // 2:]
    shrinks = int(np.sum(np.diff(lams) < -1e-13))
    ok = (lams.size == 10000
          and bool(np.all(lams >= floor - 1e-12))
          and bool(np.all(np.diff(tail) >= -1e-15))
          and shrinks >= 1)
    return lams, floor, shrinks, ok


def test_criterion_05_adaptive_step_floor_and_tail_monotonicity():
    lams, floor, shrinks, ok = _adaptive_step_run(0)
    report(5, ok,
           f"10000 adaptive iterations: min step {lams.min():.6f} >= "
           f"floor min(c1/L, lambda0) = {floor:.6f} - 1e-12, "
           f"{shrinks} shrink events fired, step nondecreasing over the "
           f"final 5000 iterations")


@pytest.mark.parametrize("seed", range(1, 8))
def test_adaptive_step_floor_and_tail_monotonicity_beyond_seed_zero(seed):
    # Criterion 5's floor and tail test on seeds 1-7 of its generator:
    # the growth law that lets the step keep learning must still settle.
    lams, floor, shrinks, ok = _adaptive_step_run(seed)
    assert ok, (seed, float(lams.min()), floor, shrinks)


def test_criterion_06_shrinkage_benchmark_reaches_oracle():
    ok = True
    counts = []
    for m in (200, 500, 1000):
        cfg = ExperimentConfig(problem="example1", m=m, seed=0, tol=1e-6,
                               max_iter=5000)
        inst = generate(cfg)
        per_m = []
        for solver in cfg.solvers:
            res = run_solver(inst, solver, cfg)
            gap = float(np.linalg.norm(res.x - inst.x_star))
            ok = ok and res.converged and gap <= 1e-5
            per_m.append(f"{solver}={res.iterations}")
        counts.append(f"m={m}: " + " ".join(per_m))
    report(6, ok,
           "five solvers terminate at tol=1e-6 within 5000 iterations and "
           "land within 1e-5 of the shrinkage oracle for m in {200, 500, "
           "1000}; iteration counts (recorded, not asserted): "
           + "; ".join(counts))


def test_criterion_07_reduction_equivalences(monkeypatch):
    worst_frb, worst_fixed = 0.0, 0.0
    stop = StopRule(tol=0.0, max_iter=100)
    monkeypatch.setattr(stepsize, "GROWTH_HORIZON", 0)
    for seed in range(10):
        gen = np.random.default_rng(1000 + seed)
        forward, _M, _b = random_monotone_affine(gen, 12)
        L = forward.lipschitz_hint
        inner = l1_resolvent() if seed % 2 == 0 else zero_resolvent()
        x0 = gen.standard_normal(12)
        x_minus1 = gen.standard_normal(12)

        lam = 0.9 / (2.0 * L)
        rec_a = RecordingResolvent(inner)
        gfrb_fixed(rec_a, forward, x0, x_minus1, x_minus1, lam, 0.0, stop)
        rec_b = RecordingResolvent(inner)
        frb(rec_b, forward, x0, x_minus1, lam, stop)
        worst_frb = max(worst_frb, float(np.max(np.abs(
            np.array(rec_a.outputs) - np.array(rec_b.outputs)))))

        delta = 0.1
        lam0 = 0.9 * 0.99 * coefficient_bound(delta) / L
        # lam0 * L < c2 never shrinks, and a zero growth horizon makes
        # every growth-branch update hold the step: it is frozen.
        rec_c = RecordingResolvent(inner)
        gfrb_adaptive(rec_c, forward, x0, x_minus1, delta, lam0, stop)
        rec_d = RecordingResolvent(inner)
        gfrb_fixed(rec_d, forward, x0, x_minus1, x_minus1, lam0, delta,
                   stop)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(
            np.array(rec_c.outputs) - np.array(rec_d.outputs)))))
    ok = worst_frb <= 1e-14 and worst_fixed <= 1e-14
    report(7, ok,
           f"over 10 random problems and 100 iterations: delta=0 reduction "
           f"max deviation {worst_frb:.2e}, frozen-step adaptive reduction "
           f"max deviation {worst_fixed:.2e} (both <= 1e-14)")


def _linear_composite_instance(seed, n=4, m=3):
    gen = np.random.default_rng(seed)
    Ra = gen.standard_normal((n, n))
    A_mat = Ra @ Ra.T / n
    Rc = gen.standard_normal((m, m))
    Cinv_mat = Rc @ Rc.T / m + 0.5 * np.eye(m)
    Rb = gen.standard_normal((n, n))
    B_mat = Rb @ Rb.T / n + 0.3 * np.eye(n)
    b_vec = gen.standard_normal(n)
    K = gen.standard_normal((m, n)) / 2.0
    x0 = gen.standard_normal(n)
    y0 = gen.standard_normal(m)
    return A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0


def _run_pd_steps(parts, cfg, steps):
    A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = parts
    n, m = x0.size, y0.size
    res_a = (
        lambda z, lam: np.linalg.solve(np.eye(n) + lam * A_mat, z))
    res_cinv = lambda v, s: np.linalg.solve(np.eye(m) + s * Cinv_mat, v)
    fwd = lambda x: B_mat @ x + b_vec
    lin = LinearMap.from_matrix(K)
    Bx0 = fwd(x0)
    state = PrimalDualState(x=x0, x_prev=x0, x_prev2=x0, y=y0, Bx=Bx0,
                            Bx_prev=Bx0, Bx_prev2=Bx0, Kx=K @ x0)
    out = []
    for _ in range(steps):
        state = epdtr_step(state, cfg, res_a, fwd, lin, res_cinv)
        out.append(np.concatenate([state.x, state.y]))
    return np.array(out)


def test_criterion_08_primal_dual_matches_metric_oracle():
    worst_metric, worst_plain = 0.0, 0.0
    for seed in range(10):
        parts = _linear_composite_instance(seed)
        A_mat, Cinv_mat, B_mat, b_vec, K, x0, y0 = parts
        n, m = x0.size, y0.size

        cfg = EPDTRConfig(tau=0.11, sigma=0.17, b=0.7)
        traj = _run_pd_steps(parts, cfg, 50)
        M = metric_matrix(cfg.tau, cfg.sigma, K)
        G = coupling_matrix(A_mat, Cinv_mat, K)
        F_mat = np.zeros((n + m, n + m))
        F_mat[:n, :n] = B_mat
        f_vec = np.concatenate([b_vec, np.zeros(m)])
        z0 = np.concatenate([x0, y0])
        ref = gfrb_in_metric(M, G, F_mat, f_vec, z0, z0, z0, cfg.b, 50)
        worst_metric = max(worst_metric, float(np.max(np.abs(traj - ref))))

        cfg0 = EPDTRConfig(tau=0.12, sigma=0.15, b=0.0)
        traj0 = _run_pd_steps(parts, cfg0, 50)
        x, y = x0.copy(), y0.copy()
        Bx = Bx_prev = B_mat @ x + b_vec
        Kx = K @ x
        plain = []
        for _ in range(50):
            drive = x - cfg0.tau * (K.T @ y) \
                - cfg0.tau * (2.0 * Bx - Bx_prev)
            x_new = np.linalg.solve(np.eye(n) + cfg0.tau * A_mat, drive)
            Kx_new = K @ x_new
            y = np.linalg.solve(np.eye(m) + cfg0.sigma * Cinv_mat,
                                y + cfg0.sigma * (2.0 * Kx_new - Kx))
            x, Bx_prev, Bx = x_new, Bx, B_mat @ x_new + b_vec
            Kx = Kx_new
            plain.append(np.concatenate([x, y]))
        worst_plain = max(worst_plain,
                          float(np.max(np.abs(traj0 - np.array(plain)))))
    ok = worst_metric <= 1e-10 and worst_plain <= 1e-14
    report(8, ok,
           f"10 linear instances, 50 steps: max deviation from the "
           f"metric-form recursion {worst_metric:.2e} <= 1e-10; at b=0, "
           f"max deviation from the two-term primal-dual recursion "
           f"{worst_plain:.2e} <= 1e-14")


def test_criterion_09_primal_dual_residuals_and_agreement():
    problem, data = gen_composite(n=40, m_rows=30, seed=0)
    norm_k = 1.01 * float(np.linalg.norm(data["K"], 2))
    tol = 1e-8
    terminal = {}
    worst_res = 0.0
    ok = True
    for b_val in (0.0, 0.5, 1.0):
        tau, sigma = default_stepsizes(b_val, 1.0, norm_k)
        cfg = EPDTRConfig(tau=tau, sigma=sigma, b=b_val)
        x, _y, trace = epdtr_solve(problem, cfg,
                                   StopRule(tol=tol, max_iter=20000))
        ok = ok and trace.converged
        worst_res = max(worst_res, trace.primal_residual,
                        trace.dual_residual)
        terminal[b_val] = x
    pairwise = max(float(np.linalg.norm(terminal[a] - terminal[b]))
                   for a in terminal for b in terminal)
    ok = ok and worst_res <= 10.0 * tol and pairwise <= 1e-5
    report(9, ok,
           f"composite instance at tol=1e-8 for b in {{0, 0.5, 1}}: worst "
           f"fixed-point residual {worst_res:.2e} <= 1e-7, pairwise "
           f"terminal-point spread {pairwise:.2e} <= 1e-5")


def test_criterion_10_admissible_region_shrinks_with_reflection():
    b_values = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    grids = [region_grid(b, 1.0, 1.0, n=200)[2] for b in b_values]
    ok = all(bool(np.all(grids[i + 1] <= grids[i] + 1e-15))
             for i in range(len(grids) - 1))
    report(10, ok,
           "admissibility slack on a 200x200 step grid is pointwise "
           "nonincreasing across reflection weights 0, 0.5, 1, 2, 5, 10")


def test_criterion_11_sparse_recovery_matches_long_reference():
    inst = gen_lasso(seed=0)
    A, y = inst.data["A"], inst.data["y"]
    x_true = inst.data["x_true"]
    reg = inst.data["reg_lambda"]
    n = A.shape[1]

    # Long proximal-gradient reference run.
    # The gradient reads A (2 MiB) twice rather than A^T A (8 MiB) once,
    # which takes about 2.5x less time per step on one core.
    L_ref = float(np.linalg.norm(A, 2)) ** 2
    x_ref = np.zeros(n)
    for _ in range(50000):
        x_ref = soft_threshold(x_ref - A.T @ (A @ x_ref - y) / L_ref,
                               reg / L_ref)

    # Only the solve is timed: the reference above is the check's own
    # cost, not the method's.
    rec = RecordingResolvent(l1_resolvent(reg))
    t0 = time.perf_counter()
    x_alg, trace = gfrb_adaptive(rec, inst.forward_b, np.zeros(n),
                                 np.zeros(n), 0.1, 0.1,
                                 StopRule(tol=1e-8, max_iter=20000))
    elapsed = time.perf_counter() - t0
    gap = float(np.linalg.norm(x_alg - x_ref))

    half = len(rec.outputs) // 2
    snrs = np.array([snr(x_true, out) for out in rec.outputs[half:]])
    drawdown = float(np.max(np.maximum.accumulate(snrs) - snrs))
    ok = (trace.converged and gap <= 1e-4 and drawdown <= 0.1
          and elapsed <= 60.0)
    report(11, ok,
           f"sparse recovery at m=256, n=1024, k=20: terminal iterate "
           f"within {gap:.2e} of the 50000-iteration proximal-gradient "
           f"reference (<= 1e-4), SNR drawdown over the final half "
           f"{drawdown:.3f} dB <= 0.1 dB, gfrb_adaptive solve time "
           f"{elapsed:.1f}s <= 60s (the reference run is not timed)")


def test_criterion_12_plain_forward_backward_stalls_on_rotation():
    forward = ForwardOperator(lambda x: ROTATION @ x, lipschitz_hint=1.0)
    x0 = np.array([1.0, 0.0])
    ok = True
    guard_tripped = 0
    for lam in (0.1, 0.5, 1.0):
        rec = RecordingResolvent(zero_resolvent())
        full_run = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                fb(rec, forward, x0, lam, StopRule(tol=0.0, max_iter=100))
            except DivergenceError:
                # The iterate norm blew past the divergence limit before
                # 100 iterations -- an even stronger form of the expected
                # non-convergence, so keep the partial trajectory.
                full_run = False
                guard_tripped += 1
        norms = [float(np.linalg.norm(x0))]
        norms += [float(np.linalg.norm(v)) for v in rec.outputs]
        ok = ok and (full_run and len(rec.outputs) == 100
                     or not full_run and norms[-1] > 1e12)
        ok = ok and all(nb >= na - 1e-15
                        for na, nb in zip(norms, norms[1:]))
    _x, trace = gfrb_fixed(zero_resolvent(), forward, x0, x0, x0, 0.4, 0.0,
                           StopRule(tol=1e-8, max_iter=5000))
    ok = ok and trace.converged and trace.errs[-1] <= 1e-8
    report(12, ok,
           "unmodified forward-backward never shrinks the iterate norm on "
           "the rotation problem for steps 0.1, 0.5, 1.0 (the largest step "
           f"grows past the divergence guard, {guard_tripped} run cut "
           "short), while the three-term corrected scheme drives the "
           f"displacement to {trace.errs[-1]:.2e} <= 1e-8")


