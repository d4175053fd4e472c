"""Hash functions for the grouping operators.

FPGA database operators favour cheap, high-quality multiplicative and
XOR-shift mixers that pipeline to one result per cycle (cf. Kara & Alonso,
"Fast and robust hashing for database operators", FPL'16 — reference [44]
of the paper).  We implement a splitmix64-style finalizer parameterized by
seed so the cuckoo tables can use independent hash functions.

The module also groups fixed-width key images exactly, which the batched
grouping operators and client kernels build on.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema

_MASK64 = (1 << 64) - 1

#: Odd multipliers for the seeded mixers (from splitmix64 / murmur3 lineage).
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SEED_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int, seed: int = 0) -> int:
    """SplitMix64 finalizer over one 64-bit value (seeded)."""
    x = (value + _seed_offset(seed)) & _MASK64
    x ^= x >> 30
    x = (x * _M1) & _MASK64
    x ^= x >> 27
    x = (x * _M2) & _MASK64
    x ^= x >> 31
    return x


def hash_key(key: bytes, seed: int = 0) -> int:
    """Hash an arbitrary-length byte key by chaining 8-byte mixes."""
    if seed < 0:
        raise OperatorError(f"negative hash seed: {seed}")
    acc = mix64(len(key), seed)
    for off in range(0, len(key), 8):
        word = int.from_bytes(key[off:off + 8].ljust(8, b"\x00"), "little")
        acc = mix64(acc ^ word, seed)
    return acc


def hash_key_batch(raw: bytes | memoryview, width: int,
                   seed: int = 0) -> np.ndarray:
    """Vectorized :func:`hash_key` over ``n`` fixed-width keys.

    ``raw`` packs ``n`` keys of ``width`` bytes back to back (a key-schema
    byte image).  Returns one uint64 hash per key, bit-identical to calling
    :func:`hash_key` on each slice — the scalar path chains 8-byte
    little-endian words, and so does this, just across the whole batch at
    once.
    """
    return hash_key_seeds(raw, width, (seed,))[:, 0]


def hash_key_seeds(raw: bytes | memoryview, width: int,
                   seeds: Iterable[int]) -> np.ndarray:
    """:func:`hash_key_batch` under several seeds at once: an
    ``(n, len(seeds))`` array, one column per seed."""
    seeds = list(seeds)
    if width <= 0:
        raise OperatorError(f"key width must be positive: {width}")
    if min(seeds) < 0:
        raise OperatorError(f"negative hash seed: {min(seeds)}")
    words = _key_words(raw, width)
    acc = np.empty((len(words), len(seeds)), dtype=np.uint64)
    acc[:] = [mix64(width, seed) for seed in seeds]
    offsets = np.array([_seed_offset(seed) for seed in seeds],
                       dtype=np.uint64)
    for j in range(words.shape[1]):
        acc = _splitmix(acc ^ words[:, j:j + 1], offsets)
    return acc


def _key_words(raw: bytes | memoryview | np.ndarray,
               width: int) -> np.ndarray:
    """Packed fixed-width keys as little-endian 8-byte words, zero-padded:
    an ``(n, ceil(width / 8))`` uint64 array."""
    data = np.frombuffer(raw, dtype=np.uint8)
    if data.size % width:
        raise OperatorError(
            f"key image of {data.size} bytes is not a multiple of the key "
            f"width {width}")
    n = data.size // width
    nwords = (width + 7) // 8
    if width == nwords * 8:
        return data.view("<u8").reshape(n, nwords)
    padded = np.zeros((n, nwords * 8), dtype=np.uint8)
    padded[:, :width] = data.reshape(n, width)
    return padded.view("<u8")


def key_images(rows: np.ndarray, key_schema: Schema) -> np.ndarray:
    """The key columns of ``rows`` as one fixed-width byte image per row.

    Returns a 1-D ``np.void`` array over ``key_schema``'s byte layout.
    Keys are equal iff their images are, so ``-0.0`` and ``0.0`` (or two
    NaN payloads) are different keys, as on chip.
    """
    keys = key_schema.empty(len(rows))
    for name in key_schema.names:
        keys[name] = rows[name]
    return keys.view(np.dtype((np.void, key_schema.row_width)))


def first_occurrences(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal elements of a 1-D array: ``(first, local)``.

    Distinct values are numbered ``0..k-1`` in order of first occurrence;
    ``first[u]`` is the index where value ``u`` first occurs (so ``first``
    ascends) and ``local[i]`` is the number of the value at index ``i``.
    One ``np.unique`` (8-byte key images compare as uint64) and one
    argsort; no per-element Python.
    """
    if values.dtype.kind == "V" and values.dtype.itemsize == 8:
        values = values.view("<u8")
    _, first, inverse = np.unique(values, return_index=True,
                                  return_inverse=True)
    rank = np.argsort(first)
    number = np.empty(len(rank), dtype=np.int64)
    number[rank] = np.arange(len(rank))
    return first[rank], number[inverse]


class KeyGroups(NamedTuple):
    """A batch of key images grouped by equality (:func:`group_keys`),
    the distinct keys numbered in order of first occurrence."""

    first: np.ndarray   # row of each distinct key's first occurrence
    local: np.ndarray   # each row's distinct-key number
    keys: list[bytes]   # the distinct keys


def group_keys(images: np.ndarray) -> KeyGroups:
    """Group a batch of key images, with the distinct keys as ``bytes``
    for the dict and set operations done once per key."""
    first, local = first_occurrences(images)
    return KeyGroups(first, local, images[first].tolist())


def hash_u64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (one hash per element)."""
    return _splitmix(values.astype(np.uint64, copy=True),
                     np.uint64(_seed_offset(seed)))


def _seed_offset(seed: int) -> int:
    return ((seed + 1) * _SEED_GOLDEN) & _MASK64


def _splitmix(x: np.ndarray, offset) -> np.ndarray:
    """:func:`mix64` in place over a fresh uint64 array; ``offset`` (one
    per column, or one for all) is the seeded increment.  Array integer
    arithmetic wraps silently, as the mixer needs."""
    x += offset
    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)
    return x


class HashFamily:
    """A family of independent hash functions (one per cuckoo table)."""

    def __init__(self, count: int):
        if count <= 0:
            raise OperatorError(f"hash family needs >= 1 function: {count}")
        self.count = count

    def hash(self, index: int, key: bytes) -> int:
        if not 0 <= index < self.count:
            raise OperatorError(
                f"hash index {index} out of range [0, {self.count})")
        return hash_key(key, seed=index)

    def slot(self, index: int, key: bytes, table_slots: int) -> int:
        return self.hash(index, key) % table_slots
