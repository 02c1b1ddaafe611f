"""Deterministic RNG derivation.

Every random decision in the package flows from a single master seed through
named sub-streams, so that reruns (and worker pools of any size) reproduce
results bit-exactly.  A sub-stream is addressed by the master seed plus a
sequence of integer or string tags; string tags are hashed with crc32 so the
derivation is stable across processes and Python versions.

A seed is the first two words of NumPy's ``SeedSequence`` state over the
master seed and the tags, computed here in numpy over a batch of entropy
rows, so a whole generation of seeds costs one pass instead of one
``SeedSequence`` per seed.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "derive_rng"]

_MASK = 0xFFFFFFFF
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_X, _MIX_Y = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..steps: the hash constant before
    each step (it does not depend on the data)."""
    c = np.full(steps + 1, mult, dtype=np.uint32)
    c[0] = init
    return np.cumprod(c, dtype=np.uint32)


_OUTPUT_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2)[:, None]
# the pool words that take pool word s's hash, in order
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _hashmix(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """One hash step of ``v`` per pair of constants ``before``, ``after``
    (broadcast against ``v``).  Every product has a uint32 array operand, so
    it wraps mod 2**32 without a warning."""
    h = v ^ before
    h *= after
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_X
    r -= y * _MIX_Y
    r ^= r >> 16
    return r


def _seed_sequence_seeds(entropy: np.ndarray) -> list[int]:
    """``SeedSequence(row).generate_state(2)`` as one 64-bit int per row of an
    (n, L) uint32 entropy array."""
    n, L = entropy.shape
    words = np.zeros((max(L, _POOL), n), dtype=np.uint32)
    words[:L] = entropy.T
    # one hash step per pool word, one per ordered pair of pool words, and
    # one per pool word for each word past the pool
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * len(words))[:, None]
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1:_POOL + 1])
    k = _POOL
    for s, others in enumerate(_OTHERS):
        # word s is left as it is while the others take its hash
        m = len(others)
        pool[others] = _mix(pool[others], _hashmix(pool[s], a[k:k + m], a[k + 1:k + m + 1]))
        k += m
    # the words past the pool do not depend on the pool: hash them all at once
    extra = words[_POOL:, None]
    hashes = _hashmix(extra, a[k:-1].reshape(-1, _POOL, 1), a[k + 1:].reshape(-1, _POOL, 1))
    for h in hashes:
        pool = _mix(pool, h)
    lo, hi = _hashmix(pool[:2], _OUTPUT_CONSTANTS[:-1], _OUTPUT_CONSTANTS[1:]).astype(np.uint64)
    return (lo | (hi << 32)).tolist()


def _words(values) -> list[int]:
    """Each value's little-endian 32-bit words, concatenated: how
    ``SeedSequence`` reads a list of ints.  A string is its crc32."""
    words = []
    for n in values:
        n = zlib.crc32(n.encode("utf-8")) if isinstance(n, str) else int(n)
        if n < 0:
            raise ValueError(f"seeds and tags must be non-negative, got {n}")
        words.append(n & _MASK)
        while n > _MASK:
            n >>= 32
            words.append(n & _MASK)
    return words


def derive_seeds(master_seed: int, tags: Sequence[int | str],
                 rows: Iterable[Iterable[int | str]]) -> list[int]:
    """Seeds for a batch of sub-streams: the i-th is
    ``derive_seed(master_seed, *tags, *rows[i])``."""
    prefix = _words((int(master_seed), *tags))
    # a row with an int of 2**32 or more has more words: hash each length apart
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for i, row in enumerate(rows):
        words = prefix + _words(row)
        index, entropy = groups.setdefault(len(words), ([], []))
        index.append(i)
        entropy.append(words)
    seeds: dict[int, int] = {}
    for index, entropy in groups.values():
        seeds.update(zip(index, _seed_sequence_seeds(np.array(entropy, dtype=np.uint32))))
    return [seeds[i] for i in range(len(seeds))]


def derive_seed(master_seed: int, *tags: int | str) -> int:
    """Return a 64-bit seed for the sub-stream named by ``tags``."""
    return derive_seeds(master_seed, tags, [()])[0]


def derive_rng(master_seed: int, *tags: int | str) -> np.random.Generator:
    """A fresh Generator for the sub-stream named by ``tags``."""
    return np.random.default_rng(derive_seed(master_seed, *tags))
