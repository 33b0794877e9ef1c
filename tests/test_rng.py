import math

import numpy as np
import pytest

from monosplit import rng


def reference_box_muller(gen, shape):
    """The textbook form: 1 - u, sqrt(-2 log), cos and sin concatenated."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(m)
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


@pytest.mark.parametrize("shape", [1, 201, (200, 200), (3, 5), ()])
def test_standard_normal_matches_reference_box_muller(shape):
    for seed in range(3):
        gen = rng.substream(seed, 0)
        out = rng.standard_normal(gen, shape)
        expected = reference_box_muller(rng.substream(seed, 0), shape)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        # The stream has moved on by exactly 2 * ceil(n / 2) uniforms.
        n = math.prod(shape) if isinstance(shape, tuple) else shape
        spent = rng.substream(seed, 0)
        spent.random(2 * math.ceil(n / 2))
        assert gen.bit_generator.state == spent.bit_generator.state
