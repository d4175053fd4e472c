"""DISTINCT operator: cuckoo hash tables + shift-register LRU (paper §5.4).

Architecture (Figure 5): each tuple's key is first probed in the LRU cache
(hides hash-table pipeline latency / data hazards), then looked up in N
cuckoo tables in parallel.  Unseen keys are emitted immediately (fully
streaming) and inserted; keys that fail insertion after the eviction chain
land in the *overflow buffer*, "which is sent to the client to be
deduplicated in software".

Overflowed keys are emitted too (the hardware cannot suppress what it
cannot remember) and the node surfaces ``overflow_keys`` so the client-side
software dedup can be applied — the integration tests verify end-to-end
exactness of that contract.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema
from .base import RowOperator
from .cuckoo import CuckooHashTable
from .hashing import group_keys, key_images
from .lru_cache import ShiftRegisterLru


class DistinctOperator(RowOperator):
    """Eliminate duplicate tuples on the given key columns.

    Host-side, a batch costs a fixed number of numpy calls plus one set
    operation per distinct key and one cuckoo ``put`` per emitted key.
    """

    fill_latency_cycles = 10  # deeper block: hash + table lookup stages

    def __init__(self, key_columns: list[str] | None = None,
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32, lru_depth_per_way: int = 4):
        super().__init__("distinct")
        self.key_columns = list(key_columns) if key_columns else None
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self.duplicates_dropped = 0
        self.overflow_count = 0
        self._schema: Schema | None = None
        self._key_schema: Schema | None = None
        #: O(1) mirror of the keys resident in the cuckoo table (kept in
        #: lock-step with every put/overflow).
        self._resident: set[bytes] = set()

    def _bind(self, schema: Schema) -> Schema:
        if self.key_columns is None:
            self.key_columns = list(schema.names)
        for name in self.key_columns:
            schema.column(name)  # validates
        self._schema = schema
        self._key_schema = schema.project(self.key_columns)
        return schema

    def _process(self, batch: np.ndarray) -> np.ndarray:
        n = len(batch)
        if n == 0:
            return batch
        assert self._key_schema is not None
        images = key_images(batch, self._key_schema)
        groups = group_keys(images)
        hit = self.lru.probe_batch(images, groups)
        _, local, keys = groups
        resident = self._resident
        absent = np.fromiter((key not in resident for key in keys),
                             dtype=bool, count=len(keys))
        kept = []
        start = 0
        while start < n:
            # Rows from ``start`` on that miss the LRU and the table; the
            # first such row of each key emits and inserts it.
            rows = start + np.flatnonzero(~hit[start:] & absent[local[start:]])
            if not len(rows):
                break
            firsts = np.full(len(keys), n)
            np.minimum.at(firsts, local[rows], rows)
            rows = np.sort(firsts[firsts < n])
            stop = self._insert(keys, local[rows], images[rows], absent)
            if stop is None:
                kept.append(rows)
                break
            # An overflow evicted a key: re-decide the rest of the batch.
            kept.append(rows[:stop])
            start = int(rows[stop - 1]) + 1
        self.duplicates_dropped += n - sum(map(len, kept))
        return batch[np.concatenate(kept)] if kept else batch[:0]

    def _insert(self, keys: list[bytes], new: np.ndarray,
                new_images: np.ndarray, absent: np.ndarray) -> int | None:
        """Insert the distinct keys ``new`` in order.

        Returns ``None`` when all fit, else how many went in when one
        overflowed; ``absent`` then tells which keys are not resident.
        """
        resident, put = self._resident, self.table.put
        slots = self.table.batch_slots(new_images.tobytes(),
                                       new_images.dtype.itemsize)
        for i, (u, key_slots) in enumerate(zip(new.tolist(), slots)):
            resident.add(keys[u])
            if not put(keys[u], True, key_slots):
                # The eviction chain pushed exactly one key (possibly this
                # one) out of residency.
                self.overflow_count += 1
                evicted = self.table.overflow[-1][0]
                resident.discard(evicted)
                absent[new[:i + 1]] = False
                if evicted in keys:
                    absent[keys.index(evicted)] = True
                return i + 1
        return None

    @property
    def distinct_seen(self) -> int:
        return len(self.table)

    def drain_overflow_keys(self) -> list[bytes]:
        """Overflowed keys for client-side software dedup (§5.4)."""
        return [key for key, _ in self.table.drain_overflow()]
