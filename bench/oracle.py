"""Correctness checks that do not trust a solver's own ``converged`` flag.

Every check returns a list of failure messages; an empty list passes.
Each threshold is recorded in THRESHOLDS together with the largest value
observed on correct runs, so a reader can see the margin.
"""

import numpy as np

from monosplit import characteristic_roots, resolvent_of_inverse
from monosplit.rate_analysis import STEP_RULES

THRESHOLDS = {
    # ||x - J_{lam A}(x - lam B x)|| / lam at lam = 1/L, every (A + B)
    # solve.  Correct runs at tol 1e-6 stay below 1e-4 (example2 worst);
    # a false stop with a tiny step leaves it of order 1.
    "natural_residual": 1e-3,
    # ||x - x*|| on example1 and example2; correct runs stay below 1e-5.
    "dist_to_x_star": 1e-4,
    # (max F - min F) / max(1, |min F|) of the lasso objective over the
    # five solvers on one instance; correct runs stay below 1e-7.
    "lasso_objective_spread": 1e-6,
    # Unit-step primal and dual natural residuals of the composite
    # problem; correct runs stay below 5e-6.
    "epdtr_residual": 1e-4,
    # |rho - max |characteristic_roots|| per rate-table row.  The double
    # root at delta = 0 limits the polynomial route to about sqrt(eps).
    "rate_table_vs_roots": 1e-10,
    "rate_table_vs_roots_at_delta_0": 1e-6,
    # 1/R must be a characteristic root of the designed recursion.
    "design_rate_root": 1e-9,
}


def natural_residual(instance, x):
    """||x - J_{lam A}(x - lam B x)|| / lam with lam = 1/L."""
    lam = 1.0 / instance.forward_b.lipschitz_hint
    z = x - lam * np.asarray(instance.forward_b(x), dtype=float)
    return float(np.linalg.norm(x - instance.resolvent_a(z, lam))) / lam


def check_inclusion(instance, solver, x, converged):
    """Residual, known-solution and stop checks for one (A + B) solve.

    Returns (failures, residual).
    """
    failures = []
    if not np.all(np.isfinite(x)):
        return [f"{instance.name}/{solver}: non-finite iterate"], float("inf")
    res = natural_residual(instance, x)
    if not res <= THRESHOLDS["natural_residual"]:
        failures.append(f"{instance.name}/{solver}: natural residual "
                        f"{res:.3g} > {THRESHOLDS['natural_residual']:g}")
    if instance.x_star is not None:
        dist = float(np.linalg.norm(x - instance.x_star))
        if not dist <= THRESHOLDS["dist_to_x_star"]:
            failures.append(f"{instance.name}/{solver}: ||x - x*|| {dist:.3g}"
                            f" > {THRESHOLDS['dist_to_x_star']:g}")
    if not converged:
        failures.append(f"{instance.name}/{solver}: stopped at max_iter "
                        "before reaching the tolerance")
    return failures, res


def lasso_objective(instance, x):
    A, y = instance.data["A"], instance.data["y"]
    r = A @ x - y
    return 0.5 * float(r @ r) + instance.data["reg_lambda"] * float(
        np.abs(x).sum())


def check_lasso_agreement(instance, xs):
    """All solvers reach the same lasso objective on one instance."""
    objs = [lasso_objective(instance, x) for x in xs]
    spread = (max(objs) - min(objs)) / max(1.0, abs(min(objs)))
    if not spread <= THRESHOLDS["lasso_objective_spread"]:
        return [f"lasso seed {instance.seed}: objective spread {spread:.3g} "
                f"> {THRESHOLDS['lasso_objective_spread']:g}"]
    return []


def check_composite(problem, x, y):
    """Unit-step primal and dual natural residuals of 0 in A + B + K*CK.

    Returns (failures, max residual).
    """
    K = problem.linmap_k
    grad = np.asarray(problem.forward_b(x), dtype=float) + K.apply_adjoint(y)
    primal = float(np.linalg.norm(x - problem.resolvent_a(x - grad, 1.0)))
    dual = float(np.linalg.norm(
        y - resolvent_of_inverse(problem.resolvent_c, 1.0, y + K.apply(x))))
    worst = max(primal, dual)
    if not worst <= THRESHOLDS["epdtr_residual"]:
        return [f"composite/epdtr: residual {worst:.3g} > "
                f"{THRESHOLDS['epdtr_residual']:g}"], worst
    return [], worst


def check_rate_rows(rows):
    """Rate-table rows (delta, label, rho) against the polynomial route."""
    rules = dict(STEP_RULES)
    failures = []
    for delta, label, rho in rows:
        if label not in rules:
            failures.append(f"rate-table: unknown step rule {label!r}")
            continue
        lam = rules[label](delta)
        dev = abs(rho - float(np.max(np.abs(characteristic_roots(delta, lam)))))
        key = "rate_table_vs_roots_at_delta_0" if delta == 0.0 \
            else "rate_table_vs_roots"
        if not dev <= THRESHOLDS[key]:
            failures.append(f"rate-table: delta={delta:g} {label} deviates "
                            f"{dev:.3g} from characteristic_roots")
    return failures


def check_design(r, delta, lam, roots):
    """1/r is a characteristic root of z^3 - p z^2 - p z + q."""
    p = (2.0 * delta + 1.0) * lam
    q = delta * lam
    z = 1.0 / r
    tol = THRESHOLDS["design_rate_root"]
    failures = []
    if not abs(z ** 3 - p * z ** 2 - p * z + q) <= tol:
        failures.append(f"design-rate {r:g}: 1/r is not a root of the "
                        "designed recursion")
    if not min(abs(complex(w) - z) for w in roots) <= tol:
        failures.append(f"design-rate {r:g}: printed roots miss 1/r")
    return failures
