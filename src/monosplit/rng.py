"""Deterministic random number generation for problem instances.

Every generated problem draws from PCG64 streams keyed by
``SeedSequence(entropy=seed, spawn_key=(index,))``, one stream per array,
so adding a new array to a generator never shifts the draws of existing
ones.  Normal variates use Box-Muller on uniform doubles instead of the
generator's native ziggurat sampler: the ziggurat's rejection loop makes
draw counts depend on library internals, while Box-Muller consumes a fixed
number of uniforms per sample.  The uniforms are portable; the normals
agree only to rounding across numpy builds and CPU targets, because
numpy picks the SIMD kernels of ``np.log``, ``np.cos`` and ``np.sin`` by
build and CPU, and kernels can differ in the last bit.
"""

import numpy as np


def substream(seed, index):
    """Generator for the ``index``-th independent stream of ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def standard_normal(gen, shape):
    """Box-Muller standard normals with a fixed uniform budget.

    Consumes exactly ``2 * ceil(n / 2)`` uniform doubles for ``n``
    samples.  The ``1 - u`` shift keeps the log argument in (0, 1].
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(m)
    u2 = gen.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


def uniform(gen, shape, low=0.0, high=1.0):
    """Uniform draws on [low, high) from the raw double stream."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    return low + (high - low) * gen.random(shape)
