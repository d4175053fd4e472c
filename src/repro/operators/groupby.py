"""GROUP BY with aggregation (paper §5.4).

Structurally close to DISTINCT — the same cuckoo hash tables preserve the
groups — but the cache is *write-through* (aggregate state must be
updated, not just deduplicated) and nothing is emitted while streaming:
"The operator reads the complete table and all of its tuples without
sending anything over the network, to perform the full aggregation.  At
the same time, it inserts the distinct entries into a separate queue.
Once the aggregation has completed, the queue is used to lookup and flush
the entries from the hash table along with any of the requested
aggregation results."

The flush phase costs cycles proportional to the number of groups, which
is why Figure 9(c)'s response time grows with group count; the node
charges :meth:`flush_cycles` accordingly.

Groups whose hash-table insertion overflows are aggregated in a dedicated
overflow area and reported via :meth:`drain_overflow_groups` so the client
can merge them in software — mirroring the DISTINCT overflow contract.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.records import Schema
from .aggregate import Accumulator, AggregateSpec, GroupStates
from .base import RowOperator
from .cuckoo import CuckooHashTable
from .hashing import group_keys, key_images
from .lru_cache import ShiftRegisterLru

#: Flush cost per group entry, operator-clock cycles (lookup + queue pop +
#: result serialization).
FLUSH_CYCLES_PER_GROUP = 4


class GroupByOperator(RowOperator):
    """Hash aggregation: ``SELECT keys, aggs FROM t GROUP BY keys``.

    Host-side, a batch costs a fixed number of numpy calls plus one dict
    operation per distinct key: group state lives in :class:`GroupStates`
    arrays, and the cuckoo table holds each resident group's id.  Group
    ids are handed out in insertion order, so they double as the
    insertion queue the flush replays.
    """

    fill_latency_cycles = 12

    def __init__(self, key_columns: list[str], aggregates: list[AggregateSpec],
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32, lru_depth_per_way: int = 4):
        super().__init__("groupby")
        if not key_columns:
            raise OperatorError("group by needs at least one key column")
        if not aggregates:
            raise OperatorError("group by needs at least one aggregate")
        self.key_columns = list(key_columns)
        self.aggregates = list(aggregates)
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self.lru = ShiftRegisterLru(ways * lru_depth_per_way)
        self._value_columns = sorted(
            {s.column for s in self.aggregates
             if not (s.func == "count" and s.column == "*")})
        self._states = GroupStates(self.aggregates, self._value_columns)
        #: Key -> group id, for resident and overflowed groups alike.
        self._gids: dict[bytes, int] = {}
        #: Key images of every group id, one array per batch.
        self._key_chunks: list[np.ndarray] = []
        #: Overflowed groups not yet drained, and every group id that ever
        #: overflowed (the flush skips those; the client merges them).
        self._overflow: dict[bytes, int] = {}
        self._spilled: set[int] = set()
        self._schema: Schema | None = None
        self._key_schema: Schema | None = None
        self._out_schema: Schema | None = None

    # -- binding ---------------------------------------------------------------
    def _bind(self, schema: Schema) -> Schema:
        try:
            for spec in self.aggregates:
                spec.validate(schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        for name in self.key_columns:
            schema.column(name)
        aliases = [s.alias for s in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise OperatorError(f"duplicate aggregate aliases: {aliases}")
        overlap = set(aliases) & set(self.key_columns)
        if overlap:
            raise OperatorError(f"aggregate aliases collide with keys: {overlap}")
        self._schema = schema
        self._key_schema = schema.project(self.key_columns)
        out_columns = ([schema.column(k) for k in self.key_columns]
                       + [s.output_column(schema) for s in self.aggregates])
        self._out_schema = Schema(out_columns)
        return self._out_schema

    # -- streaming phase -----------------------------------------------------------
    def _process(self, batch: np.ndarray) -> np.ndarray:
        assert self._key_schema is not None and self._out_schema is not None
        if len(batch):
            images = key_images(batch, self._key_schema)
            groups = group_keys(images)
            # Write-through cache: promotes hot keys; the authoritative
            # state lives in the group arrays.
            self.lru.probe_batch(images, groups)
            first, local, keys = groups
            gids = np.fromiter((self._gids.get(key, -1) for key in keys),
                               dtype=np.int64, count=len(keys))
            new = np.flatnonzero(gids < 0)  # in insertion order
            if len(new):
                self._insert(keys, new, images[first[new]], gids)
            self._states.fold(batch, local, gids, first)
        return self._out_schema.empty(0)

    def _insert(self, keys: list[bytes], new: np.ndarray,
                new_images: np.ndarray, gids: np.ndarray) -> None:
        """Open a group per new key and put it in the cuckoo table."""
        base = self._states.add(len(new))
        gids[new] = np.arange(base, base + len(new))
        self._key_chunks.append(new_images)
        slots = self.table.batch_slots(new_images.tobytes(),
                                       new_images.dtype.itemsize)
        for gid, u, key_slots in zip(range(base, base + len(new)),
                                     new.tolist(), slots):
            key = keys[u]
            self._gids[key] = gid
            if not self.table.put(key, gid, key_slots):
                # The eviction chain pushed some group out; it keeps
                # aggregating in the overflow area, so no update is lost.
                for evicted_key, evicted_gid in self.table.drain_overflow():
                    self._overflow[evicted_key] = evicted_gid
                    self._spilled.add(evicted_gid)

    # -- flush phase ------------------------------------------------------------------
    def flush(self) -> np.ndarray | None:
        assert self._out_schema is not None and self._key_schema is not None
        kept = np.ones(self._states.size, dtype=bool)
        kept[list(self._spilled)] = False  # the client merges overflow
        gids = np.flatnonzero(kept)
        out = self._out_schema.empty(len(gids))
        if len(gids):
            images = np.concatenate(self._key_chunks)[gids]
            keys = self._key_schema.from_bytes(images.tobytes())
            for name in self.key_columns:
                out[name] = keys[name]
            self._states.write(out, self.aggregates, gids)
        self.rows_out += len(gids)
        return out

    def flush_cycles(self) -> int:
        return FLUSH_CYCLES_PER_GROUP * self._states.size

    # -- overflow contract ---------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self.table) + len(self._overflow)

    def drain_overflow_groups(self) -> dict[bytes, Accumulator]:
        """Partially aggregated overflow groups for client-side merging.

        A drained key is forgotten: if it streams in again it opens a
        fresh group.
        """
        out = {key: self._states.accumulator(gid)
               for key, gid in self._overflow.items()}
        for key in self._overflow:
            del self._gids[key]
        self._overflow = {}
        return out
