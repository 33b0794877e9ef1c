"""Adaptive step-size controller for the multi-step reflected scheme.

The controller never needs the Lipschitz constant.  Each update sees the
displacement dx = ||x_{k-1} - x_k|| and the operator displacement
dB = ||B x_{k-1} - B x_k|| and either shrinks the step to the safe ratio
c1 * dx / dB or grows it by the summable factor 1 + GROWTH_RATIO**k.  The
shrink branch fires only on the strict test lambda_{k-1} * dB > c2 * dx,
so a tie, and in particular dB = 0, takes the growth branch.

Only delta and lambda_0 are settings.  The box c2 = 0.99 *
coefficient_bound(delta), c1 = 0.9 * c2 derives from delta, and the
growth sequence gamma_k = GROWTH_RATIO**k is constant.  From k = 53 on,
1.0 + 0.5**k rounds to 1.0, so the step no longer grows.
"""

import math
from dataclasses import dataclass


# Margin that keeps c2 strictly below the open edge 1 / (2|delta| + 2).
EPSILON = 1e-4
# Ratio of the geometric growth sequence gamma_k = GROWTH_RATIO**k.
GROWTH_RATIO = 0.5


class OperatorConsistencyError(ValueError):
    """Raised when the measured displacements contradict single-valuedness."""


@dataclass
class StepSizeState:
    """Controller state after k updates: lambda_curr is the latest step."""

    lambda_curr: float
    c1: float
    c2: float
    k: int = 0


def coefficient_bound(delta):
    """Upper edge (1 - EPSILON) / (2|delta| + 2) of the admissible c-box."""
    return (1.0 - EPSILON) / (2.0 * abs(delta) + 2.0)


def make_stepsize_state(delta, lambda0):
    """Controller for reflection weight delta, starting from step lambda0.

    c2 sits at 99% of coefficient_bound(delta) and c1 at 90% of c2.
    lambda0, the step the first update starts from, must be positive and
    finite, else ValueError naming it.
    """
    c2 = 0.99 * coefficient_bound(delta)
    c1 = 0.9 * c2
    validate_coefficients(c1, c2, delta)
    if not (math.isfinite(lambda0) and lambda0 > 0.0):
        raise ValueError(f"lambda0 must be positive and finite, got {lambda0!r}")
    return StepSizeState(lambda_curr=float(lambda0), c1=float(c1),
                         c2=float(c2))


def validate_coefficients(c1, c2, delta):
    """Enforce 0 < c1 < c2 < (1 - EPSILON) / (2|delta| + 2)."""
    bound = coefficient_bound(delta)
    if not 0.0 < c1 < c2 < bound:
        raise ValueError(
            f"need 0 < c1 < c2 < {bound:.6g} for delta={delta:g}, "
            f"got c1={c1:g}, c2={c2:g}")


def next_step(state, dx, dB):
    """Advance the controller one update and return the new step.

    Mutates ``state``: lambda_curr becomes the returned step, k advances.
    """
    if not (math.isfinite(dx) and math.isfinite(dB)) or dx < 0.0 or dB < 0.0:
        raise ValueError(f"displacements must be finite and nonnegative, "
                         f"got dx={dx!r}, dB={dB!r}")
    if dx == 0.0 and dB > 0.0:
        raise OperatorConsistencyError(
            "operator moved (dB > 0) while the point did not (dx = 0); "
            "B is not single-valued or evaluations are not deterministic")
    k = state.k + 1
    # Cross-multiplied strict test; ties fall to the growth branch.
    if state.lambda_curr * dB > state.c2 * dx:
        lam = state.c1 * dx / dB
    else:
        lam = (1.0 + GROWTH_RATIO ** k) * state.lambda_curr
    state.lambda_curr = lam
    state.k = k
    return lam
