"""Counter-based random number generation for platform-independent reproducibility.

All randomness in the laboratory flows through Philox-keyed generators: the
(seed, stream) pair fully determines every draw, independent of platform,
thread count, or call interleaving elsewhere.  Gaussian variates are produced
with an explicit Box-Muller transform on top of the generator's uniform
stream so that initialization bytes are identical everywhere.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first attribute access; every command draws
# from a generator, so load it with the package, not inside the first run.
from numpy.random import Generator, Philox

__all__ = [
    "make_generator",
    "normal",
    "rademacher",
    "unit_sphere",
]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a counter-based generator keyed by (seed, stream)."""
    key = np.array([seed, stream], dtype=np.uint64)
    return Generator(Philox(key=key))


def normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via Box-Muller on the uniform stream.

    An explicit transform (rather than the generator's own ``normal``)
    pins down the exact bytes produced for a given key across numpy
    versions and platforms: only ``Generator.random`` is relied upon.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    count = int(np.prod(shape)) if shape else 1
    pairs = (count + 1) // 2
    # Guard against log(0): map u1 from [0,1) to (0,1].
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:count].reshape(shape)


def rademacher(gen: np.random.Generator, size) -> np.ndarray:
    """Independent +/-1 draws with equal probability."""
    return np.where(gen.random(size) < 0.5, -1.0, 1.0)


def unit_sphere(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows uniformly distributed on the unit sphere in R^dim."""
    z = normal(gen, (count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # A zero row has probability zero; resample defensively if it occurs.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        z[bad] = normal(gen, (int(bad.sum()), dim))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms
