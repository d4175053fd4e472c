"""Small-table join operator — the paper's §7 extension sketch.

"We also want to explore, as part of a query optimizer, options such as
performing joins against small tables in the memory by reading the small
table into the FPGA and matching the tuples read from memory against it."

The *build* side (a small dimension table) is read from disaggregated
memory into the region's on-chip hash tables at query start; the *probe*
side (the large fact table) then streams through and each tuple is matched
against the build hash.  The build side must fit in BRAM — the operator
enforces the cuckoo capacity and reports build-overflow keys so the
compiler can refuse plans that would not fit the fabric.

Semantics: inner equi-join, emitting the probe tuple extended with the
selected build payload columns.  Build keys are unique (dimension-table
primary keys); a duplicate build key is a compile-time error.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import JoinBuildOverflowError, OperatorError
from ..common.records import Column, Schema
from .base import RowOperator
from .cuckoo import CuckooHashTable


def join_output_schema(probe_schema: Schema, build_schema: Schema,
                       payload_columns: list[str]) -> Schema:
    """The post-join schema: probe columns + appended payload columns.

    Payload names colliding with a probe column are prefixed ``build_``
    (the same rule :meth:`SmallTableJoinOperator._bind` applies), so the
    software kernel, the cost model and the merge layer all agree on the
    joined layout byte for byte.
    """
    out_columns = list(probe_schema.columns)
    existing = set(probe_schema.names)
    for name in payload_columns:
        col = build_schema.column(name)
        out_name = name if name not in existing else f"build_{name}"
        if out_name in existing:
            raise OperatorError(
                f"cannot disambiguate joined column {name!r}")
        out_columns.append(Column(out_name, col.kind, col.width))
        existing.add(out_name)
    return Schema(out_columns)


def gather_join_output(out_schema: Schema, probe_rows: np.ndarray,
                       probe_idx, build_rows: np.ndarray, build_idx,
                       payload_columns: list[str]) -> np.ndarray:
    """The joined rows: ``probe_rows[probe_idx]`` extended with the
    payload columns of ``build_rows[build_idx]``, one gather per column.

    ``out_schema`` is :func:`join_output_schema` of the two sides, so the
    probe columns come first and the payload columns follow under their
    (possibly ``build_``-renamed) output names.
    """
    pidx = np.asarray(probe_idx, dtype=np.int64)
    bidx = np.asarray(build_idx, dtype=np.int64)
    out = out_schema.empty(len(pidx))
    nprobe = len(out_schema.names) - len(payload_columns)
    for name in out_schema.names[:nprobe]:
        out[name] = probe_rows[name][pidx]
    for out_name, src_name in zip(out_schema.names[nprobe:],
                                  payload_columns):
        out[out_name] = build_rows[src_name][bidx]
    return out


class SmallTableJoinOperator(RowOperator):
    """Inner hash join: streaming probe side vs BRAM-resident build side."""

    fill_latency_cycles = 12

    def __init__(self, build_schema: Schema, build_key: str, probe_key: str,
                 payload_columns: list[str],
                 ways: int = 4, slots_per_way: int = 16_384,
                 max_kicks: int = 32):
        super().__init__("join_small_table")
        if not payload_columns:
            raise OperatorError("join needs at least one payload column")
        if build_key in payload_columns:
            raise OperatorError(
                f"build key {build_key!r} need not be in the payload; it "
                f"equals the probe key after the join")
        self.build_schema = build_schema
        self.build_key = build_key
        self.probe_key = probe_key
        self.payload_columns = list(payload_columns)
        for name in [build_key, *payload_columns]:
            build_schema.column(name)
        self.table = CuckooHashTable(ways, slots_per_way, max_kicks)
        self._key_schema = build_schema.project([build_key])
        self._payload_schema = build_schema.project(payload_columns)
        self._payload = self._payload_schema.empty(0)
        self._built = False
        self.build_rows_loaded = 0
        self.probe_matches = 0
        self._out_schema: Schema | None = None

    # -- build phase -------------------------------------------------------------
    def load_build(self, rows: np.ndarray) -> None:
        """Load the small table into the on-chip hash (one-off, at deploy).

        All or nothing: the rows go into a fresh table that replaces
        :attr:`table` only once every row is resident, so a refused build
        leaves the operator as it was.  The cuckoo value is the build row
        index; the probe gathers payload columns by index.
        """
        if self._built:
            raise OperatorError("build side already loaded")
        old = self.table
        table = CuckooHashTable(old.ways, old.slots_per_way, old.max_kicks)
        hashed = self._hashed_keys(table, rows, self.build_key)
        for i, (key, slots) in enumerate(hashed):
            if table.contains_at(key, slots):
                raise OperatorError(
                    f"duplicate build key at row {i}: the small table must "
                    f"have unique join keys")
            if not table.put(key, i, slots):
                raise JoinBuildOverflowError(
                    f"build side of {len(rows)} rows does not fit the "
                    f"on-chip hash ({table.capacity} slots); offload "
                    f"refused — execute the join on the client")
        payload = self._payload_schema.empty(len(rows))
        for name in self.payload_columns:
            payload[name] = rows[name]
        self.table = table
        self._payload = payload
        self.build_rows_loaded = len(rows)
        self._built = True

    def _hashed_keys(self, table: CuckooHashTable, rows: np.ndarray,
                     column: str):
        """(key image, per-way slots) of each row's ``column`` value.

        The slots of the whole batch are hashed at once, bit-identical
        to hashing each key on its own.
        """
        keys = self._key_schema.empty(len(rows))
        keys[self.build_key] = rows[column]
        raw = self._key_schema.to_bytes(keys)
        width = self._key_schema.row_width
        images = np.frombuffer(raw, dtype=(np.void, width)).tolist()
        return zip(images, table.batch_slots(raw, width))

    # -- binding (probe side) ---------------------------------------------------------
    def _bind(self, schema: Schema) -> Schema:
        probe_col = schema.column(self.probe_key)
        build_col = self.build_schema.column(self.build_key)
        if probe_col.kind != build_col.kind or probe_col.width != build_col.width:
            raise OperatorError(
                f"join key type mismatch: probe {self.probe_key!r} is "
                f"{probe_col.kind}({probe_col.width}), build "
                f"{self.build_key!r} is {build_col.kind}({build_col.width})")
        self._out_schema = join_output_schema(schema, self.build_schema,
                                              self.payload_columns)
        return self._out_schema

    # -- probe phase ----------------------------------------------------------------------
    def _process(self, batch: np.ndarray) -> np.ndarray:
        if not self._built:
            raise OperatorError("probe started before the build side loaded")
        assert self._out_schema is not None
        get = self.table.get
        probe_idx: list[int] = []
        build_idx: list[int] = []
        hashed = self._hashed_keys(self.table, batch, self.probe_key)
        for i, (key, slots) in enumerate(hashed):
            j = get(key, slots)
            if j is not None:
                probe_idx.append(i)
                build_idx.append(j)
        self.probe_matches += len(probe_idx)
        return gather_join_output(self._out_schema, batch, probe_idx,
                                  self._payload, build_idx,
                                  self.payload_columns)
