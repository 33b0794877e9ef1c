"""Adaptive step-size controller for the multi-step reflected scheme.

The controller never needs the Lipschitz constant.  Each update sees the
displacement dx = ||x_{k-1} - x_k|| and the operator displacement
dB = ||B x_{k-1} - B x_k|| and either shrinks the step to the safe ratio
c1 * dx / dB or grows it by the factor 1 + gamma_k.  The shrink branch
fires only on the strict test lambda_{k-1} * dB > c2 * dx, so a tie, and
in particular dB = 0, takes the growth branch.

Only delta and lambda_0 are settings; gfrb_adaptive builds its own
controller from them.  The box c2 = 0.99 * coefficient_bound(delta),
c1 = 0.9 * c2 derives from delta, and the growth is harmonic up to a
fixed horizon: gamma_k = 1/k for k <= GROWTH_HORIZON and 0 after it.
The sum of gamma_k is finite, as the convergence proof needs, and the
growth factors telescope, prod_{k <= K} (1 + 1/k) = K + 1, so a run can
grow its step at most GROWTH_HORIZON + 1 fold in all, and a lambda0 up to
GROWTH_HORIZON times too small recovers.  Unlike a geometric gamma_k,
whose budget is spent on the first few updates, the harmonic one keeps
growing the step toward the local estimate c1 * dx / dB for the whole
horizon.  After it the step can only shrink.
"""

import math
import numbers
from dataclasses import dataclass


# Margin that keeps c2 strictly below the open edge 1 / (2|delta| + 2).
EPSILON = 1e-4
# Last update that may grow the step, by 1 + 1/k; later ones only hold it.
GROWTH_HORIZON = 1000


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

    c2 sits at 99% of coefficient_bound(delta) and c1 at 90% of c2.  A
    delta or lambda0 that is not a real number (a bool, a string, None,
    a complex), a delta that leaves this box empty (non-finite, or
    2|delta| + 2 overflows) and a lambda0 not positive and finite raise
    ValueError naming it.
    """
    for name, value in (("delta", delta), ("lambda0", lambda0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    bound = coefficient_bound(delta)
    c2 = 0.99 * bound
    c1 = 0.9 * c2
    if not 0.0 < c1 < c2 < bound:
        raise ValueError(
            f"need 0 < c1 < c2 < {bound:.6g} for delta={delta:g}, "
            f"got c1={c1:g}, c2={c2:g}")
    if not (math.isfinite(lambda0) and lambda0 > 0.0):
        raise ValueError(f"lambda0 must be positive and finite, got {lambda0!r}")
    return StepSizeState(lambda_curr=float(lambda0), c1=float(c1),
                         c2=float(c2))


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
    elif k <= GROWTH_HORIZON:
        lam = (1.0 + 1.0 / k) * state.lambda_curr
    else:
        lam = state.lambda_curr
    state.lambda_curr = lam
    state.k = k
    return lam
