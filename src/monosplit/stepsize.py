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


# Margin that keeps c2 strictly below the open edge 1 / reflection_scale.
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


def reflection_scale(delta):
    """2(1 + |delta|), the factor every step rule at reflection weight
    delta scales by; ValueError naming delta unless it is a real number,
    not a bool, whose factor is finite (an integer too large for a float
    has none)."""
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real):
        raise ValueError(f"delta must be a real number, got {delta!r}")
    try:
        scale = 2.0 * (1.0 + abs(float(delta)))
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"delta must keep 2*(1+|delta|) finite, got "
                         f"{delta!r}")
    return scale


def coefficient_bound(delta):
    """Upper edge (1 - EPSILON) / reflection_scale(delta) of the c-box."""
    return (1.0 - EPSILON) / reflection_scale(delta)


def make_stepsize_state(delta, lambda0):
    """Controller for reflection weight delta, starting from step lambda0.

    c2 sits at 99% of coefficient_bound(delta) and c1 at 90% of c2.  A
    delta reflection_scale rejects, and a lambda0 that is not a real
    number (not a bool) or not positive and finite, raise ValueError.
    """
    c2 = 0.99 * coefficient_bound(delta)
    c1 = 0.9 * c2
    if isinstance(lambda0, bool) or not isinstance(lambda0, numbers.Real):
        raise ValueError(f"lambda0 must be a real number, got {lambda0!r}")
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
