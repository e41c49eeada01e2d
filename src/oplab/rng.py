"""Deterministic random-stream helpers.

All randomness in the package flows from one integer master seed.  Two
derivation schemes cover every use:

* :func:`substream` -- named child streams for independent work units
  (experiment cells, estimator starts), via ``SeedSequence`` spawn keys.
* :func:`row_stream` -- counter-based per-row streams for data generation:
  row ``i`` owns the Philox counter block ``[i * 2^64, (i+1) * 2^64)`` under
  a key derived from the master seed, so any subset of rows can be produced
  independently of schedule and still match a serial pass bit for bit.
  :func:`row_streams` yields the same streams for many rows from one bit
  generator, by resetting its counter to each row's block.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Child generator identified by (seed, path); stable across runs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def substream_seed(seed: int, *path: int) -> int:
    """Derived integer seed for components that take a seed, not a stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def row_stream(seed: int, row: int) -> np.random.Generator:
    """Counter-based generator for one data row."""
    return next(row_streams(seed, (row,)))


def row_streams(seed: int, rows: Iterable[int]) -> Iterator[np.random.Generator]:
    """row_stream(seed, i) for each i in rows, as one generator: each step
    resets its Philox to the state a fresh Philox(key=seed) advanced by
    i * 2^64 has (counter [0, i, 0, 0], empty output buffers), so a yielded
    generator is valid only until the next one is taken.  0 <= i < 2^64."""
    bg = np.random.Philox(key=np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    gen = np.random.Generator(bg)
    state = bg.state  # a fresh Philox: the buffers are empty
    counter = state["state"]["counter"]
    for row in rows:
        counter[1] = row  # the setter copies the counter, so reusing it is safe
        bg.state = state
        yield gen
