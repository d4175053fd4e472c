"""Functional software operators used by the CPU baselines.

These mirror what the paper's C++ baseline code does: tight scans with all
compiler optimizations (numpy vector kernels here), hash grouping (exact
key-image grouping here; the cost model charges a fast resizable map),
RE2-style regex matching (our linear-time engine), and Cryptopp-style AES
(our AES-CTR).  They return both the result and the instrumentation the
cost model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import OperatorError
from ..common.records import Schema
from ..operators.aggregate import (
    Accumulator,
    AggregateSpec,
    GroupStates,
    batch_accumulate,
)
from ..operators.crypto import AesCtr
from ..operators.hashing import first_occurrences, key_images
from ..operators.join import gather_join_output, join_output_schema
from ..operators.regex_engine import CompiledRegex
from ..operators.selection import Predicate

#: The charged hash map (parallel-hashmap's design family): open
#: addressing, 16 initial slots, doubling once 7/8 of them are full.
_MAP_INITIAL_SLOTS = 16
_MAP_MAX_LOAD = (7, 8)


def software_select(rows: np.ndarray, predicate: Predicate) -> np.ndarray:
    """Scan + filter, as the LCPU query thread would."""
    if len(rows) == 0:
        return rows
    return rows[predicate.evaluate(rows)]


def software_project(rows: np.ndarray, schema: Schema,
                     columns: list[str]) -> np.ndarray:
    out_schema = schema.project(columns)
    out = out_schema.empty(len(rows))
    for name in columns:
        out[name] = rows[name]
    return out


def map_resizes(num_keys: int) -> int:
    """Times the charged hash map grows while ``num_keys`` keys go in."""
    slots, resizes = _MAP_INITIAL_SLOTS, 0
    num, den = _MAP_MAX_LOAD
    while num_keys * den >= slots * num:
        slots *= 2
        resizes += 1
    return resizes


@dataclass
class DistinctOutput:
    rows: np.ndarray
    map_resizes: int


def software_distinct(rows: np.ndarray, schema: Schema,
                      key_columns: list[str]) -> DistinctOutput:
    """Hash DISTINCT: the first row of each distinct key, in row order."""
    first, _ = first_occurrences(
        key_images(rows, schema.project(key_columns)))
    return DistinctOutput(rows=rows[first],
                          map_resizes=map_resizes(len(first)))


@dataclass
class GroupByOutput:
    rows: np.ndarray
    num_groups: int
    map_resizes: int


def software_groupby(rows: np.ndarray, schema: Schema,
                     key_columns: list[str],
                     aggregates: list[AggregateSpec]) -> GroupByOutput:
    """Hash aggregation, groups in first-occurrence order.

    Byte-compatible with the offloaded
    :class:`~repro.operators.groupby.GroupByOperator`: the same
    :class:`~repro.operators.aggregate.GroupStates` fold.
    """
    first, local = first_occurrences(
        key_images(rows, schema.project(key_columns)))
    value_columns = sorted({s.column for s in aggregates
                            if not (s.func == "count" and s.column == "*")})
    states = GroupStates(aggregates, value_columns)
    gids = np.arange(states.add(len(first)), len(first))
    if len(rows):
        states.fold(rows, local, gids, first)
    out_columns = ([schema.column(k) for k in key_columns]
                   + [s.output_column(schema) for s in aggregates])
    out = Schema(out_columns).empty(len(first))
    for name in key_columns:
        out[name] = rows[name][first]
    states.write(out, aggregates, gids)
    return GroupByOutput(rows=out, num_groups=len(first),
                         map_resizes=map_resizes(len(first)))


def software_aggregate(rows: np.ndarray, schema: Schema,
                       aggregates: list[AggregateSpec]) -> np.ndarray:
    """Whole-table aggregation without grouping: one output row.

    Byte-compatible with the offloaded
    :class:`~repro.operators.aggregate.StandaloneAggregateOperator`
    (same output schema, same accumulator arithmetic), so the hybrid
    planner can run the final aggregation on the client.
    """
    value_columns = sorted({s.column for s in aggregates
                            if not (s.func == "count" and s.column == "*")})
    acc = Accumulator(len(value_columns))
    # Same accumulation kernel as the offloaded operator (min/max stay in
    # the column dtype, no per-value float round-trip), so large-integer
    # extremes survive bit-exactly.
    batch_accumulate(acc, rows, value_columns)
    out_schema = Schema([s.output_column(schema) for s in aggregates])
    if acc.count == 0:
        return out_schema.empty(0)
    out = out_schema.empty(1)
    for spec in aggregates:
        idx = (value_columns.index(spec.column)
               if spec.column in value_columns else 0)
        out[spec.alias][0] = acc.result(spec, idx)
    return out


def software_join(rows: np.ndarray, schema: Schema,
                  build_rows: np.ndarray, build_schema: Schema,
                  build_key: str, probe_key: str,
                  payload_columns: list[str]) -> np.ndarray:
    """Inner hash join on the client, as the LCPU query thread would.

    Byte-compatible with
    :class:`~repro.operators.join.SmallTableJoinOperator`: keys match on
    their serialized byte image, build keys must be unique, and
    matched probe tuples are emitted in probe order with the payload
    columns appended under the same collision-renaming rule — so the
    hybrid planner can ship a join and still produce the offloaded bytes
    exactly.  Unlike the on-chip hash there is no capacity ceiling: this
    kernel is where a build-overflow refusal sends the join.
    """
    probe_col = schema.column(probe_key)
    build_col = build_schema.column(build_key)
    if probe_col.kind != build_col.kind or probe_col.width != build_col.width:
        raise OperatorError(
            f"join key type mismatch: probe {probe_key!r} is "
            f"{probe_col.kind}({probe_col.width}), build "
            f"{build_key!r} is {build_col.kind}({build_col.width})")
    key_schema = build_schema.project([build_key])
    key_dtype = np.dtype((np.void, key_schema.row_width))

    def images(table_rows: np.ndarray, column: str) -> np.ndarray:
        keys = key_schema.empty(len(table_rows))
        keys[build_key] = table_rows[column]
        return np.frombuffer(key_schema.to_bytes(keys), dtype=key_dtype)

    build_image = images(build_rows, build_key)
    probe_image = images(rows, probe_key)
    # Keys match by byte image (so -0.0 and +0.0 differ, as on chip):
    # sort the build images, then binary-search every probe image.  The
    # simulated cost is charged by the caller from row counts
    # (``cpu.hash_ns``, grown past ``HASHMAP_GROWTH_THRESHOLD``), not
    # from this kernel's work.
    order = np.argsort(build_image, kind="stable")
    ordered = build_image[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
    if len(repeats):
        raise OperatorError(
            f"duplicate build key at row {int(order[repeats].min())}: the "
            f"small table must have unique join keys")
    pos = np.searchsorted(ordered, probe_image)
    if len(ordered):
        hit = ordered[np.minimum(pos, len(ordered) - 1)] == probe_image
    else:
        hit = np.zeros(len(probe_image), dtype=bool)
    probe_idx = np.flatnonzero(hit)
    out_schema = join_output_schema(schema, build_schema, payload_columns)
    return gather_join_output(out_schema, rows, probe_idx, build_rows,
                              order[pos[probe_idx]], payload_columns)


def software_sort(rows: np.ndarray, keys: list[tuple[str, bool]]
                  ) -> np.ndarray:
    """Deterministic multi-key sort (ORDER BY's client-side kernel).

    Stable lexicographic sort: iterate the keys last-to-first, each pass
    a stable argsort.  Descending keys are handled by negating the
    *rank* of each value (``np.unique`` inverse), not the value itself,
    so char and float columns order correctly without overflow.
    """
    if len(rows) == 0:
        return rows
    idx = np.arange(len(rows))
    for name, ascending in reversed(keys):
        codes = np.unique(rows[name][idx], return_inverse=True)[1]
        if not ascending:
            codes = -codes
        idx = idx[np.argsort(codes, kind="stable")]
    return rows[idx]


def software_limit(rows: np.ndarray, count: int) -> np.ndarray:
    """LIMIT: the first ``count`` rows of the (already ordered) input."""
    return rows[:count]


def software_regex(rows: np.ndarray, column: str,
                   pattern: str) -> np.ndarray:
    """RE2-equivalent filter over a char column."""
    regex = CompiledRegex(pattern)
    keep = np.zeros(len(rows), dtype=bool)
    values = rows[column]
    for i in range(len(rows)):
        keep[i] = regex.search(bytes(values[i]))
    return rows[keep]


def software_decrypt(image: bytes, key: bytes, nonce: bytes) -> bytes:
    """Cryptopp-equivalent AES-128-CTR decryption of a table image."""
    return AesCtr(key, nonce).process(image)
