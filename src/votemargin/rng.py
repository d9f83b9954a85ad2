"""Splittable seeded random streams.

Every stochastic routine in this package derives its generator from a master
seed plus a structured path (e.g. ``stream(seed, trial_index)``), so trials
are independent, reproducible, and insensitive to execution order or worker
count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for the stream (master_seed, *path).

    The same arguments always produce an identical generator; distinct paths
    produce statistically independent streams.

    ``SeedSequence`` reads each integer of a tuple key as its 32-bit words,
    one word for an integer in [0, 2^32), so such a key passes as one uint32
    array: the same entropy, without the per-integer conversion.  A key with
    any other part goes as the tuple.
    """
    key = (int(master_seed),) + tuple(int(p) for p in path)
    if min(key) >= 0 and max(key) < 2**32:
        key = np.array(key, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(key))
