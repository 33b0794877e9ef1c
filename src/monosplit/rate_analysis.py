"""Linear rate analysis for the multi-step reflected scheme.

With A = 0 and a normal linear B, the three-term recursion splits into
one scalar recursion per eigenvalue mu of B, with characteristic cubic
z^3 - (1 - lam (delta+2) mu) z^2 - lam (2 delta+1) mu z + lam delta mu.
``cubic_roots`` solves it in batches and is the one route to a rate: the
rotation table (mu = +-i) and the inverse design problem (mu = 1: pick
delta so the recursion contracts at exactly 1/r per step).  The
rotation's degree-6 characteristic polynomial stays here as an
independent route (the benchmark's oracle imports it); the dense 6x6
companion-block matrix and its spectral radius live in the tests'
``oracles`` module.
"""

from dataclasses import dataclass

import numpy as np

from .stepsize import real_arg

# 90-degree rotation: monotone, 1-Lipschitz, not cocoercive.
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

# Delta grid and step rules used by the rate-comparison table.
TABLE_DELTAS = (
    0.0, 0.0020, 0.0121, 0.0141, 0.0162, 0.0303, 0.0323, 0.0343, 0.0364,
    0.0404, 0.0525, 0.0545, 0.0566, 0.0586, 0.0606, 0.0626, 0.0667, 0.0687,
    0.0808, 0.0909, 0.0929, 0.0949,
)

STEP_RULES = (
    ("1/(2d+2)", lambda d: 1.0 / (2.0 * d + 2.0)),
    ("1/(3d+3)", lambda d: 1.0 / (3.0 * d + 3.0)),
    ("1/(2d+3)", lambda d: 1.0 / (2.0 * d + 3.0)),
)


def cubic_roots(mu, lam, delta):
    """Roots of the scalar cubic for eigenvalue mu, step lam, weight delta.

    Broadcasts over its arguments and returns the three roots along a new
    last axis: the eigenvalues of stacked 3x3 companion matrices, which
    are real when mu, lam and delta are, so real roots stay real.  On the
    rotation they match the eigenvalues of the tests' companion-block
    oracle (``oracles.build_matrix``) to about 1e-13 away from
    delta = 0; the delta = 0, lam = 1/2 double root (1 -+ i)/2 is
    resolved only to about sqrt(eps) ~ 1e-8.
    """
    mu, lam, delta = np.broadcast_arrays(mu, lam, delta)
    C = np.zeros(mu.shape + (3, 3), dtype=np.result_type(mu, lam, delta, 1.0))
    C[..., 0, 0] = 1.0 - lam * (delta + 2.0) * mu
    C[..., 0, 1] = lam * (2.0 * delta + 1.0) * mu
    C[..., 0, 2] = -lam * delta * mu
    C[..., 1, 0] = C[..., 2, 1] = 1.0
    return np.linalg.eigvals(C)


def characteristic_coefficients(delta, lam=None):
    """Coefficients (degree 6 down to 0) of the rotation-case polynomial.

    det(zI - M) for B = ROTATION expands to
    (z^3 - z^2)^2 + lam^2 * ((delta+2) z^2 - (2 delta+1) z + delta)^2.
    lam defaults to the boundary rule 1/(2|delta| + 2).
    """
    if lam is None:
        lam = 1.0 / (2.0 * abs(delta) + 2.0)
    a = delta + 2.0
    b = -(2.0 * delta + 1.0)
    c = delta
    w = lam * lam
    return np.array([
        1.0,
        -2.0,
        1.0 + w * a * a,
        2.0 * w * a * b,
        w * (2.0 * a * c + b * b),
        2.0 * w * b * c,
        w * c * c,
    ])


def characteristic_roots(delta, lam=None):
    """All six eigenvalues via the polynomial route.

    Agrees with the eigenvalues of the tests' companion-block oracle,
    oracles.build_matrix(ROTATION, lam, delta), in max modulus to 1e-6;
    at delta = 0 the roots are {0, 0} and (1 +- i)/2 each doubled,
    giving max modulus 1/sqrt(2).
    """
    return np.roots(characteristic_coefficients(delta, lam))


# Rates r at which the design map delta(r) is rejected.
EXCLUDED_RATES = (1.0, (-1.0 + np.sqrt(13.0)) / 2.0, (1.0 + np.sqrt(13.0)) / 2.0)

_EXCLUDED_TOL = 1e-9


@dataclass
class RateDesign:
    """Designed scalar recursion contracting at exactly 1/r per step."""

    r: float
    delta: float
    lam: float
    roots: np.ndarray


def design_rate(r):
    """Choose delta so the identity-map recursion decays like r^{-k}.

    Solves (r^2 + r - 3) / (r^3 - 2 r^2 - 2 r + 3) for delta and pairs
    it with lam = 1/(3 (delta + 1)), which balances the x_k and x_{k-1}
    coefficients.  The returned roots are those of the mu = 1 cubic,
    z^3 - p z^2 - p z + q with p = (2 delta + 1)/(3 (delta + 1)),
    q = delta/(3 (delta + 1)); z = 1/r is one of them with residual
    below 1e-12.

    Raises
    ------
    ValueError
        Naming r unless it is a finite real whose cube is finite too
        (|r| below about 5.6e102); for r in the excluded set
        {1, (-1+sqrt(13))/2, (1+sqrt(13))/2}, and for the degenerate r
        where the defining fraction or delta + 1 vanishes.
    """
    r = real_arg(r, "design-rate argument 'r': r")
    for bad in EXCLUDED_RATES:
        if abs(r - bad) <= _EXCLUDED_TOL:
            raise ValueError(
                "rate r is in the excluded set "
                "{1, (-1+sqrt(13))/2, (1+sqrt(13))/2}; "
                f"got r={r!r}")
    try:
        den = r ** 3 - 2.0 * r ** 2 - 2.0 * r + 3.0
    except OverflowError:
        raise ValueError(f"design-rate argument 'r': r**3 must be finite, "
                         f"got r={r!r}") from None
    if abs(den) <= _EXCLUDED_TOL * max(1.0, abs(r) ** 3):
        raise ValueError(f"design map undefined at r={r!r}: "
                         "cubic denominator vanishes")
    delta = (r ** 2 + r - 3.0) / den
    if abs(delta + 1.0) <= _EXCLUDED_TOL:
        raise ValueError(f"design map undefined at r={r!r}: delta + 1 = 0 "
                         "gives an infinite step")
    lam = 1.0 / (3.0 * (delta + 1.0))
    return RateDesign(r=r, delta=delta, lam=lam,
                      roots=cubic_roots(1.0, lam, delta))


def rate_table(deltas=None):
    """Computed spectral radii over the delta grid and the three step rules.

    Returns (delta, rule_label, lam, rho) rows in grid-major, rule-minor
    order; mu = i alone gives the rate, as the mu = -i roots are conjugates.
    """
    if deltas is None:
        deltas = TABLE_DELTAS
    d = np.asarray(deltas, dtype=float)
    lams = np.stack([rule(d) for _, rule in STEP_RULES], axis=-1)
    rhos = np.max(np.abs(cubic_roots(1j, lams, d[:, None])), axis=-1)
    return [(float(d[i]), label, float(lams[i, j]), float(rhos[i, j]))
            for i in range(len(d)) for j, (label, _) in enumerate(STEP_RULES)]
