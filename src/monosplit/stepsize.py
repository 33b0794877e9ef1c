"""Adaptive step-size controller for the multi-step reflected scheme.

The controller never needs the Lipschitz constant.  Each update sees the
displacement dx = ||x_{k-1} - x_k|| and the operator displacement
dB = ||B x_{k-1} - B x_k|| and either shrinks the step to the safe ratio
c1 * dx / dB or grows it by the summable factor 1 + gamma_k.  The shrink
branch fires only on the strict test lambda_{k-1} * dB > c2 * dx, so a
tie, and in particular dB = 0, takes the growth branch.
"""

import math
from dataclasses import dataclass, field

import numpy as np


GAMMA_KINDS = ("geometric", "inverse_square", "zero")


class OperatorConsistencyError(ValueError):
    """Raised when the measured displacements contradict single-valuedness."""


@dataclass
class GammaSpec:
    """Summable growth sequence gamma_k, k = 1, 2, ...

    kind 'geometric': gamma_k = scale * ratio**k with 0 < ratio < 1;
    kind 'inverse_square': gamma_k = scale / k**2;
    kind 'zero': gamma_k = 0 (step never grows).
    """

    kind: str = "geometric"
    ratio: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in GAMMA_KINDS:
            raise ValueError(f"unknown gamma kind {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValueError("geometric ratio must lie in (0, 1)")
        if self.kind != "zero" and not 0.0 < self.scale < np.inf:
            raise ValueError("gamma scale must be positive and finite")

    def value(self, k):
        if self.kind == "geometric":
            return self.scale * self.ratio ** k
        if self.kind == "inverse_square":
            return self.scale / float(k) ** 2
        return 0.0


@dataclass
class StepSizeState:
    """Controller state after k updates: lambda_curr is the latest step."""

    lambda_curr: float
    lambda_prev: float
    c1: float
    c2: float
    epsilon: float = 1e-4
    gamma_spec: GammaSpec = field(default_factory=GammaSpec)
    k: int = 0


def coefficient_bound(delta, epsilon=1e-4):
    """Upper edge (1 - epsilon) / (2|delta| + 2) of the admissible c-box."""
    return (1.0 - epsilon) / (2.0 * abs(delta) + 2.0)


def make_stepsize_state(delta, lambda0, lambda_minus1=None, epsilon=1e-4,
                        c1=None, c2=None, gamma_spec=None):
    """Controller seeded with the default admissible constants.

    Defaults place c2 at 99% of the open upper edge and c1 at 90% of c2.
    lambda_minus1 defaults to lambda0.
    """
    if c2 is None:
        c2 = 0.99 * coefficient_bound(delta, epsilon)
    if c1 is None:
        c1 = 0.9 * c2
    validate_coefficients(c1, c2, delta, epsilon)
    if lambda0 <= 0.0:
        raise ValueError("lambda0 must be positive")
    if lambda_minus1 is None:
        lambda_minus1 = lambda0
    elif lambda_minus1 <= 0.0:
        raise ValueError("lambda_minus1 must be positive")
    if gamma_spec is None:
        gamma_spec = GammaSpec()
    return StepSizeState(lambda_curr=float(lambda0),
                         lambda_prev=float(lambda_minus1),
                         c1=float(c1), c2=float(c2), epsilon=float(epsilon),
                         gamma_spec=gamma_spec)


def validate_coefficients(c1, c2, delta, epsilon=1e-4):
    """Enforce 0 < c1 < c2 < (1 - epsilon) / (2|delta| + 2)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    bound = coefficient_bound(delta, epsilon)
    if not 0.0 < c1 < c2 < bound:
        raise ValueError(
            f"need 0 < c1 < c2 < {bound:.6g} for delta={delta:g}, "
            f"got c1={c1:g}, c2={c2:g}")


def next_step(state, dx, dB):
    """Advance the controller one update and return the new step.

    Mutates ``state``: lambda_curr becomes the returned step, lambda_prev
    the step before it, and the update counter k advances.
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
        lam = (1.0 + state.gamma_spec.value(k)) * state.lambda_curr
    state.lambda_prev = state.lambda_curr
    state.lambda_curr = lam
    state.k = k
    return lam
