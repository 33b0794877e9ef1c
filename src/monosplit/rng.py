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
    The first ``m`` samples are ``r cos(theta)``, the rest ``r sin(theta)``,
    with ``r = sqrt(-2 log(1 - u1))`` and ``theta = 2 pi u2``.  Both are
    formed in place on the fresh uniform arrays and each half is written
    straight into the output; every rounding step is the textbook one,
    so the bits are those of the plain formula.
    """
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    r = gen.random(m)
    np.subtract(1.0, r, out=r)
    theta = gen.random(m)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    z = np.empty(2 * m)
    cos, sin = z[:m], z[m:]
    np.cos(theta, out=cos)
    cos *= r
    np.sin(theta, out=sin)
    sin *= r
    return z[:n].reshape(shape)
