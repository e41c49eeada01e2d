"""Fixed datasets shared by the oracle generator and the tests.

Built from the package's own substreams so both sides see identical bytes;
the construction here is part of the frozen-oracle contract and must not
change without regenerating the oracles.
"""

import numpy as np

from oplab.rng import substream


def mcd_cluster_data() -> np.ndarray:
    """n=20, d=2: a tight majority cluster plus 7 shifted points.

    Small enough that every 11-point subset can be enumerated."""
    rng = substream(8813, 0)
    tight = rng.normal(size=(13, 2))
    far = rng.normal(size=(7, 2)) * 0.6 + 8.0
    return np.vstack([tight, far])


def mve_small_data() -> np.ndarray:
    """n=12, d=2: nine bulk points and a tight triple at (6, 6).

    All 220 elemental triples are enumerable."""
    rng = substream(4421, 0)
    bulk = rng.normal(size=(9, 2))
    knot = rng.normal(size=(3, 2)) * 0.3 + 6.0
    return np.vstack([bulk, knot])


def overflowing_data(seed: int = 6610) -> np.ndarray:
    """n=300, d=4: normal cells times 10^U(-300, 300), so that Mahalanobis
    distances overflow."""
    rng = substream(seed, 0)
    return rng.normal(size=(300, 4)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(300, 4))
