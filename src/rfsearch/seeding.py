"""Deterministic RNG derivation.

Every random decision in the package flows from a single master seed through
named sub-streams, so that reruns (and worker pools of any size) reproduce
results bit-exactly.  A sub-stream is addressed by the master seed plus a
sequence of integer or string tags; string tags are hashed with crc32 so the
derivation is stable across processes and Python versions.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(master_seed: int, *tags: int | str) -> int:
    """Return a 64-bit seed for the sub-stream named by ``tags``."""
    # SeedSequence reads a list of ints as each int's little-endian 32-bit
    # words, concatenated; handing it those words as one uint32 array gives
    # the same state without an array per int
    words = []
    for n in (int(master_seed), *tags):
        n = zlib.crc32(n.encode("utf-8")) if isinstance(n, str) else int(n)
        if n < 0:
            raise ValueError(f"seeds and tags must be non-negative, got {n}")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    entropy = np.array(words, dtype=np.uint32)
    lo, hi = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32).tolist()
    return lo | (hi << 32)


def derive_rng(master_seed: int, *tags: int | str) -> np.random.Generator:
    """A fresh Generator for the sub-stream named by ``tags``."""
    return np.random.default_rng(derive_seed(master_seed, *tags))
