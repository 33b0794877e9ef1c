import numpy as np
import pytest

from monosplit import experiments
from monosplit.operators import ForwardOperator


class CallCounter:
    """Wrap a callable and count invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        return self.fn(*args)


def counting_forward(fn, lipschitz_hint=None):
    counter = CallCounter(fn)
    return ForwardOperator(counter, lipschitz_hint=lipschitz_hint), counter


class RecordingResolvent:
    """Resolvent wrapper that records every output, i.e. every iterate."""

    def __init__(self, inner):
        self.inner = inner
        self.outputs = []

    def __call__(self, z, lam):
        out = np.asarray(self.inner(z, lam), dtype=float)
        self.outputs.append(out.copy())
        return out


def random_monotone_affine(gen, dim, scale=1.0):
    """Affine monotone forward map M x + b with exact Lipschitz hint.

    sym(M) is PSD by construction (skew part plus a PSD part).
    """
    W = gen.standard_normal((dim, dim))
    skew = 0.5 * (W - W.T)
    P = gen.standard_normal((dim, dim))
    psd = P @ P.T / dim
    M = scale * (skew + psd)
    b = gen.standard_normal(dim)
    L = float(np.linalg.norm(M, 2))
    return ForwardOperator(lambda x: M @ x + b, lipschitz_hint=L), M, b


@pytest.fixture
def understated_example2(monkeypatch):
    """Make experiments build example2 with its forward's Lipschitz hint
    divided by 4, so each default fixed step is 4 times too long.  On
    m = 30, seed 10, frb then diverges at iteration 69 and fbf at 21,
    while gfrb_adaptive, which reads no hint, converges in 55."""
    build = experiments.gen_example2

    def understated(m, seed=10):
        instance = build(m, seed)
        instance.forward_b.lipschitz_hint /= 4.0
        return instance

    monkeypatch.setattr(experiments, "gen_example2", understated)
