"""Named RNG substreams derived from a single master seed.

Every randomized operation in the package draws from its own named substream,
so adding a new consumer of randomness never shifts the draws seen by existing
ones, and two components handed the same master seed cannot collide.
"""

from __future__ import annotations

import zlib

import numpy as np


def _token(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream path entries must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        # crc32 is stable across platforms and interpreter runs, unlike hash().
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"substream path entries must be int or str, got {type(part).__name__}")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator for the substream named by ``path`` under ``seed``.

    The stream is a deterministic function of (seed, path) only.
    """
    entropy = [_token(seed)] + [_token(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))

