"""Cuckoo hash tables with an overflow buffer (paper §5.4).

"To guarantee full pipelining and constant lookup times, the hash table
that we implement does not handle collisions.  Instead, collisions are
written into a buffer, which is sent to the client to be deduplicated in
software.  To greatly reduce the collision likelihood, we implement cuckoo
hashing, with several hash tables that can be looked up in parallel."

This is a faithful functional model: N ways, parallel lookup, background
eviction chains bounded by ``max_kicks``, and an overflow list that the
node ships back to the client for software post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..common.errors import OperatorError
from .hashing import HashFamily, hash_key_seeds


@dataclass(slots=True)
class _Entry:
    key: bytes
    value: object


class CuckooHashTable:
    """N-way cuckoo hash over byte keys with per-way parallel lookup."""

    def __init__(self, ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32):
        if ways <= 0 or slots_per_way <= 0:
            raise OperatorError(
                f"cuckoo table needs positive ways/slots, got "
                f"{ways}/{slots_per_way}")
        if max_kicks <= 0:
            raise OperatorError(f"max_kicks must be positive: {max_kicks}")
        self.ways = ways
        self.slots_per_way = slots_per_way
        self.max_kicks = max_kicks
        self._family = HashFamily(ways)
        self._tables: list[list[_Entry | None]] = [
            [None] * slots_per_way for _ in range(ways)]
        self.size = 0
        self.overflow: list[tuple[bytes, object]] = []
        self.kicks = 0

    @property
    def capacity(self) -> int:
        return self.ways * self.slots_per_way

    # -- lookup -----------------------------------------------------------------
    def batch_slots(self, raw: bytes | memoryview,
                    width: int) -> list[list[int]]:
        """Per-way slot indices for a packed batch of fixed-width keys.

        Hashing dominates the streaming operators' per-tuple cost, so the
        operators hash whole batches vectorized up front and thread the
        precomputed slot rows through :meth:`_probe` / :meth:`put` /
        :meth:`get` — bit-identical to hashing each key on demand.
        """
        hashes = hash_key_seeds(raw, width, range(self.ways))
        return (hashes % np.uint64(self.slots_per_way)).tolist()

    def _probe(self, key: bytes,
               slots: Optional[Sequence[int]] = None
               ) -> tuple[int, int, _Entry] | None:
        """Parallel lookup across all ways; returns (way, slot, entry)."""
        tables = self._tables
        if slots is None:
            family_slot = self._family.slot
            nslots = self.slots_per_way
            for way in range(self.ways):
                slot = family_slot(way, key, nslots)
                entry = tables[way][slot]
                if entry is not None and entry.key == key:
                    return way, slot, entry
        else:
            for way, slot in enumerate(slots):
                entry = tables[way][slot]
                if entry is not None and entry.key == key:
                    return way, slot, entry
        return None

    def get(self, key: bytes,
            slots: Optional[Sequence[int]] = None) -> object | None:
        hit = self._probe(key, slots)
        return hit[2].value if hit else None

    def __contains__(self, key: bytes) -> bool:
        return self._probe(key) is not None

    def contains_at(self, key: bytes, slots: Sequence[int]) -> bool:
        """``key in table`` with precomputed per-way slots."""
        return self._probe(key, slots) is not None

    def __len__(self) -> int:
        return self.size

    # -- insert / update -----------------------------------------------------------
    def put(self, key: bytes, value: object,
            slots: Optional[Sequence[int]] = None) -> bool:
        """Insert or update; returns False if the entry overflowed.

        Overflowed entries are appended to :attr:`overflow` — they are *not*
        resident and subsequent lookups will miss, exactly like the
        hardware, where the overflow buffer is opaque to the pipeline.
        ``slots`` may carry the key's precomputed per-way slot indices;
        evicted residents are re-hashed on demand (the rare path).
        """
        if slots is None:
            slots = [self._family.slot(way, key, self.slots_per_way)
                     for way in range(self.ways)]
        # One parallel lookup: update the key where it lives, else start
        # at the first way whose slot is empty (way 0 if none is).
        tables = self._tables
        free = -1
        for way, slot in enumerate(slots):
            resident = tables[way][slot]
            if resident is None:
                if free < 0:
                    free = way
            elif resident.key == key:
                resident.value = value
                return True
        entry = _Entry(key, value)
        if free >= 0:
            tables[free][slots[free]] = entry
            self.size += 1
            return True
        entry_slots = slots
        way = 0
        for _ in range(self.max_kicks):
            slot = (entry_slots[way] if entry_slots is not None
                    else self._family.slot(way, entry.key, self.slots_per_way))
            resident = self._tables[way][slot]
            if resident is None:
                self._tables[way][slot] = entry
                self.size += 1
                return True
            # Evict the resident entry and move it to the next way
            # ("Upon the eviction from one of the tables, the evicted entry
            # is inserted into the next hash table with a different
            # function", §5.4).
            self._tables[way][slot] = entry
            entry = resident
            entry_slots = None
            way = (way + 1) % self.ways
            self.kicks += 1
        self.overflow.append((entry.key, entry.value))
        return False

    def update_in_place(self, key: bytes, fn) -> bool:
        """Apply ``fn(old_value) -> new_value`` to a resident entry."""
        hit = self._probe(key)
        if hit is None:
            return False
        hit[2].value = fn(hit[2].value)
        return True

    # -- iteration / draining ---------------------------------------------------------
    def items(self) -> Iterator[tuple[bytes, object]]:
        """Resident entries (excludes overflow), in table order."""
        for table in self._tables:
            for entry in table:
                if entry is not None:
                    yield entry.key, entry.value

    def drain_overflow(self) -> list[tuple[bytes, object]]:
        out = self.overflow
        self.overflow = []
        return out

    @property
    def load_factor(self) -> float:
        return self.size / self.capacity
