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

The module imports nothing from the package, so it also holds the one
rule every scalar argument of the package passes, real_arg and int_arg.
"""

import math
import numbers
import sys
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


# real_arg's bounds, each written as its message states it.
_BOUNDS = {None: lambda v: True, ">= 0": lambda v: v >= 0,
           "> 0": lambda v: v > 0}


def _shown(value):
    """repr(value), bounded: an integer past the digits repr may print
    (sys.get_int_max_str_digits) shows as its bit length."""
    try:
        return repr(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {abs(int(value)).bit_length()} bits"


def real_arg(value, name, bound=None):
    """float(value) for a real number, not a bool, finite as a float
    (NaN, +-inf and an integer such as 10**400 are not) and within
    ``bound``, None, ">= 0" or "> 0"; else ValueError
    "<name> must be a finite real[ <bound>], got <value!r>".  ``name``
    may carry a caller's prefix, as "config field 'tol': tol" does."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and _BOUNDS[bound](value)):
        return float(value)
    rule = "a finite real" if bound is None else f"a finite real {bound}"
    raise ValueError(f"{name} must be {rule}, got {_shown(value)}")


def int_arg(value, name, low):
    """int(value) for an integer, not a bool, from low to sys.maxsize,
    numpy's largest index; else ValueError "<name> must be an integer
    >= <low>, got <value!r>", or "<= <sys.maxsize>" past the top."""
    rule = f">= {low}"
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low <= value <= sys.maxsize:
            return int(value)
        if value > sys.maxsize:
            rule = f"<= {sys.maxsize}"
    raise ValueError(f"{name} must be an integer {rule}, got "
                     f"{_shown(value)}")


def reflection_scale(delta):
    """2(1 + |delta|), the factor every step rule at reflection weight
    delta scales by; ValueError naming delta unless real_arg accepts it
    and the factor is finite."""
    scale = 2.0 * (1.0 + abs(real_arg(delta, "delta")))
    if not math.isfinite(scale):
        raise ValueError(f"delta must keep 2*(1+|delta|) finite, got "
                         f"{delta!r}")
    return scale


def coefficient_bound(delta):
    """Upper edge (1 - EPSILON) / reflection_scale(delta) of the c-box."""
    return (1.0 - EPSILON) / reflection_scale(delta)


def make_stepsize_state(delta, lambda0):
    """Controller for reflection weight delta, starting from step lambda0.

    c2 sits at 99% of coefficient_bound(delta) and c1 at 90% of c2.
    ValueError naming delta or lambda0 (a finite real > 0).
    """
    c2 = 0.99 * coefficient_bound(delta)
    return StepSizeState(lambda_curr=real_arg(lambda0, "lambda0", "> 0"),
                         c1=0.9 * c2, c2=c2)


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
