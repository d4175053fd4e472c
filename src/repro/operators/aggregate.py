"""Aggregation operators: count, min, max, sum, average (paper §5.4).

Aggregations run either *standalone* ("simple computations are performed
directly on the passing data streams") or on top of the group-by operator
(each hash-table entry carries accumulator state).  This module provides
the accumulator machinery shared by both and the standalone operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import OperatorError, QueryError
from ..common.records import Column, Schema
from .base import RowOperator
from .hashing import first_occurrences

SUPPORTED_FUNCS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation: ``func(column) AS alias``.

    ``count`` ignores ``column`` (may be ``"*"``).
    """

    func: str
    column: str
    alias: str = ""

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCS:
            raise QueryError(
                f"unsupported aggregate {self.func!r}; supported: "
                f"{SUPPORTED_FUNCS}")
        if not self.alias:
            object.__setattr__(self, "alias", f"{self.func}_{self.column}"
                               .replace("*", "star"))

    def validate(self, schema: Schema) -> None:
        if self.func == "count" and self.column == "*":
            return
        col = schema.column(self.column)
        if col.kind == "char":
            raise QueryError(
                f"cannot aggregate char column {self.column!r} with "
                f"{self.func!r}")

    def output_column(self, schema: Schema) -> Column:
        if self.func == "count":
            return Column(self.alias, "uint64", 8)
        if self.func == "avg":
            return Column(self.alias, "float64", 8)
        kind = schema.column(self.column).kind
        return Column(self.alias, kind, 8)


class Accumulator:
    """Running state for one group's aggregates (one hash-table entry)."""

    __slots__ = ("count", "sums", "mins", "maxs")

    def __init__(self, num_value_columns: int):
        self.count = 0
        self.sums = [0.0] * num_value_columns
        self.mins = [None] * num_value_columns
        self.maxs = [None] * num_value_columns

    def update(self, values: tuple, weight: int = 1) -> None:
        self.count += weight
        for i, v in enumerate(values):
            self.sums[i] += v * weight
            if self.mins[i] is None or v < self.mins[i]:
                self.mins[i] = v
            if self.maxs[i] is None or v > self.maxs[i]:
                self.maxs[i] = v

    def merge(self, other: "Accumulator") -> None:
        self.count += other.count
        for i in range(len(self.sums)):
            self.sums[i] += other.sums[i]
            for mine, theirs, pick in ((self.mins, other.mins, min),
                                       (self.maxs, other.maxs, max)):
                if theirs[i] is not None:
                    mine[i] = (theirs[i] if mine[i] is None
                               else pick(mine[i], theirs[i]))

    def result(self, spec: AggregateSpec, column_index: int):
        if self.count == 0:
            raise OperatorError("empty accumulator has no result")
        if spec.func == "count":
            return self.count
        if spec.func == "sum":
            return self.sums[column_index]
        if spec.func == "avg":
            return self.sums[column_index] / self.count
        if spec.func == "min":
            return self.mins[column_index]
        return self.maxs[column_index]


class GroupStates:
    """Running aggregates of many groups, as arrays indexed by group id.

    The batched form of one :class:`Accumulator` per group: a count, one
    running sum per value column, and running extremes only for the
    columns a MIN or MAX reads.  :meth:`fold` gives bit-identical state to
    calling :meth:`Accumulator.update` row by row: sums add in row order
    (``np.add.at`` is unbuffered), and an extreme keeps the per-value rule
    — the first value seeds it, a later one replaces it only if strictly
    smaller (larger).  So a NaN seed sticks, later NaNs are ignored, and
    on a tie (``-0.0`` against ``0.0``) the first-seen value wins.
    """

    def __init__(self, aggregates: list[AggregateSpec],
                 value_columns: list[str]):
        self.value_columns = list(value_columns)
        index = {name: i for i, name in enumerate(self.value_columns)}
        #: func -> value-column indices whose extreme is kept.
        self._extreme_columns = {
            func: sorted({index[s.column] for s in aggregates
                          if s.func == func})
            for func in ("min", "max")}
        self.size = 0
        self.count = np.zeros(0, dtype=np.int64)
        self.sums = np.zeros((len(self.value_columns), 0))
        self._extremes = {func: np.zeros((len(cols), 0))
                          for func, cols in self._extreme_columns.items()}

    def add(self, k: int) -> int:
        """Open ``k`` empty groups; returns the first new group id."""
        base = self.size
        self.size += k
        if self.size > len(self.count):
            capacity = max(16, 2 * self.size)
            self.count = _grown(self.count, capacity)
            self.sums = _grown(self.sums, capacity)
            for func, state in self._extremes.items():
                self._extremes[func] = _grown(state, capacity)
        return base

    def fold(self, rows: np.ndarray, local: np.ndarray, gids: np.ndarray,
             first: np.ndarray) -> None:
        """Fold a batch of rows into their groups, in row order.

        The batch's distinct keys are numbered ``0..k-1`` (in any
        order): ``local[i]`` is row ``i``'s key, ``first[u]`` the first
        row of key ``u`` and ``gids[u]`` its group.
        """
        fresh = self.count[gids] == 0
        self.count[gids] += np.bincount(local, minlength=len(gids))
        # Fresh float64 copies: ``np.add.at`` runs its fast loop only on
        # a plain float64 operand, not on a view into the record array.
        values = [rows[name].astype(np.float64)
                  for name in self.value_columns]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
            for total, column in zip(self.sums, values):
                _add_in_row_order(total, column, local, gids)
        for func, cols in self._extreme_columns.items():
            pick = np.fmin if func == "min" else np.fmax
            state = self._extremes[func]
            for j, c in enumerate(cols):
                column = values[c]
                # Each key's extreme in the batch (NaN if all its values
                # are), taken from its first occurrence: that fixes the
                # sign of a zero.
                best = np.full(len(gids), np.nan)
                pick.at(best, local, column)
                ties = np.flatnonzero(column == best[local])
                row = np.full(len(gids), len(column))
                np.minimum.at(row, local[ties], ties)
                found = np.flatnonzero(row < len(column))
                best[found] = column[row[found]]
                held = np.where(fresh, column[first], state[j, gids])
                better = best < held if func == "min" else best > held
                state[j, gids] = np.where(better, best, held)

    def result(self, spec: AggregateSpec, gids: np.ndarray) -> np.ndarray:
        """``spec``'s value for each group in ``gids``."""
        if spec.func == "count":
            return self.count[gids]
        c = self.value_columns.index(spec.column)
        if spec.func == "sum":
            return self.sums[c, gids]
        if spec.func == "avg":
            return self.sums[c, gids] / self.count[gids]
        j = self._extreme_columns[spec.func].index(c)
        return self._extremes[spec.func][j, gids]

    def write(self, out: np.ndarray, specs: list[AggregateSpec],
              gids: np.ndarray) -> None:
        """Fill ``out``'s aggregate columns with the groups ``gids``."""
        for spec in specs:
            store_column(out[spec.alias], self.result(spec, gids))

    def accumulator(self, gid: int) -> Accumulator:
        """One group's state as an :class:`Accumulator` (extremes that no
        MIN or MAX reads stay ``None``)."""
        acc = Accumulator(len(self.value_columns))
        acc.count = int(self.count[gid])
        acc.sums = self.sums[:, gid].tolist()
        for func, cols in self._extreme_columns.items():
            held = acc.mins if func == "min" else acc.maxs
            for j, c in enumerate(cols):
                held[c] = float(self._extremes[func][j, gid])
        return acc


def _grown(state: np.ndarray, capacity: int) -> np.ndarray:
    """``state`` zero-extended to ``capacity`` along its last axis."""
    out = np.zeros(state.shape[:-1] + (capacity,), dtype=state.dtype)
    out[..., :state.shape[-1]] = state
    return out


def _add_in_row_order(total: np.ndarray, column: np.ndarray,
                      local: np.ndarray, gids: np.ndarray) -> None:
    """``total[gids[local[i]]] += column[i]`` for each row ``i`` in order.

    ``np.add.at`` adds in row order, so every finite (or inf) bit pattern
    matches Python's ``+=``.  NaN + NaN is the exception: Python keeps the
    running sum's NaN, while numpy may keep either operand.  A NaN sum
    never changes again, so each key adds only its rows before its first
    NaN value, then that value (unless inf - inf made the sum NaN first).
    """
    nan = np.isnan(column)
    if not nan.any():
        np.add.at(total, gids[local], column)
        return
    nan_rows = np.flatnonzero(nan)
    firsts = nan_rows[first_occurrences(local[nan_rows])[0]]
    cut = np.full(len(gids), len(column))
    cut[local[firsts]] = firsts
    before = np.arange(len(column)) < cut[local]
    np.add.at(total, gids[local[before]], column[before])
    held = total[gids[local[firsts]]]
    total[gids[local[firsts]]] = np.where(np.isnan(held), held,
                                          held + column[firsts])


def store_column(column: np.ndarray, values: np.ndarray) -> None:
    """``column[:] = values`` with scalar-assignment semantics.

    A float that does not fit an integer column (NaN, inf, out of range)
    raises as assigning it element by element would, instead of the
    silent wrap of an array cast.
    """
    if column.dtype.kind in "iu" and values.dtype.kind == "f":
        info = np.iinfo(column.dtype)
        whole = np.trunc(values)
        fits = (whole >= float(info.min)) & (whole < float(info.max))
        if not fits.all():
            bad = int(np.argmin(fits))
            column[bad] = values[bad].item()  # raises
    column[:] = values


def batch_accumulate(acc: Accumulator, batch: np.ndarray,
                     value_columns: list[str]) -> None:
    """Vectorized accumulation of a whole batch into one accumulator."""
    n = len(batch)
    if n == 0:
        return
    acc.count += n
    for i, name in enumerate(value_columns):
        col = batch[name]
        acc.sums[i] += float(col.sum())
        lo = col.min()
        hi = col.max()
        if acc.mins[i] is None or lo < acc.mins[i]:
            acc.mins[i] = lo
        if acc.maxs[i] is None or hi > acc.maxs[i]:
            acc.maxs[i] = hi


# -- distributed partial aggregation ------------------------------------------

#: Alias prefix for synthesized shard-local partial columns; reserved so it
#: can never collide with user aliases or group-key names.
PARTIAL_PREFIX = "__fvpart_"

#: How a shard-local partial column merges across shards, keyed by the
#: *shard* aggregate function that produced it.  ``avg`` never appears
#: here: :func:`decompose_partials` rewrites it into sum + count.
PARTIAL_MERGE = {
    "count": lambda a, b: a + b,
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
}


@dataclass(frozen=True)
class PartialPlan:
    """How one original aggregate is rebuilt from merged shard partials.

    ``mode`` is ``"direct"`` (the merged column *is* the final value) or
    ``"ratio"`` (final = sources[0] / sources[1], the avg = sum / count
    decomposition); ``sources`` are aliases into the shard output schema.
    """

    spec: AggregateSpec
    mode: str
    sources: tuple[str, ...]

    def finalize(self, merged: dict):
        """Final value of this aggregate from the merged partial columns."""
        if self.mode == "direct":
            return merged[self.sources[0]]
        numerator, count = (merged[s] for s in self.sources)
        if count == 0:
            raise OperatorError(f"{self.spec.alias}: empty group in merge")
        return numerator / count


def decompose_partials(
        specs: list[AggregateSpec] | tuple[AggregateSpec, ...],
) -> tuple[list[AggregateSpec], list[PartialPlan]]:
    """Rewrite aggregates into shard-local partials that merge exactly.

    ``count``, ``sum``, ``min`` and ``max`` are already decomposable (the
    per-shard partial merges with :data:`PARTIAL_MERGE`); ``avg`` is not —
    averages of averages are wrong under skew — so it is replaced by a
    synthesized ``sum`` + ``count(*)`` pair and recomputed at merge time.

    Returns ``(shard_specs, plans)``: the aggregate list the *shards*
    execute, and one :class:`PartialPlan` per original spec describing how
    the scatter-gather router rebuilds the final column.
    """
    shard_specs: list[AggregateSpec] = []
    by_alias: dict[str, AggregateSpec] = {}

    def ensure(spec: AggregateSpec) -> str:
        existing = by_alias.get(spec.alias)
        if existing is None:
            by_alias[spec.alias] = spec
            shard_specs.append(spec)
        elif existing != spec:
            raise QueryError(
                f"aggregate alias {spec.alias!r} is ambiguous across shards")
        return spec.alias

    plans: list[PartialPlan] = []
    for spec in specs:
        if spec.func == "avg":
            total = ensure(AggregateSpec(
                "sum", spec.column, f"{PARTIAL_PREFIX}sum_{spec.column}"))
            count = ensure(AggregateSpec(
                "count", "*", f"{PARTIAL_PREFIX}count"))
            plans.append(PartialPlan(spec, "ratio", (total, count)))
        else:
            ensure(spec)
            plans.append(PartialPlan(spec, "direct", (spec.alias,)))
    return shard_specs, plans


class StandaloneAggregateOperator(RowOperator):
    """Whole-table aggregation without grouping: emits one row at flush."""

    fill_latency_cycles = 6

    def __init__(self, specs: list[AggregateSpec]):
        super().__init__("aggregation")
        if not specs:
            raise OperatorError("aggregation needs at least one spec")
        self.specs = list(specs)
        self._value_columns = sorted(
            {s.column for s in self.specs if not (s.func == "count" and s.column == "*")})
        self._acc = Accumulator(len(self._value_columns))
        self._out_schema: Schema | None = None

    def _bind(self, schema: Schema) -> Schema:
        try:
            for spec in self.specs:
                spec.validate(schema)
        except QueryError as exc:
            raise OperatorError(str(exc)) from exc
        aliases = [s.alias for s in self.specs]
        if len(set(aliases)) != len(aliases):
            raise OperatorError(f"duplicate aggregate aliases: {aliases}")
        self._out_schema = Schema([s.output_column(schema) for s in self.specs])
        return self._out_schema

    def _process(self, batch: np.ndarray) -> np.ndarray:
        assert self._out_schema is not None
        batch_accumulate(self._acc, batch, self._value_columns)
        return self._out_schema.empty(0)

    def flush(self) -> np.ndarray | None:
        assert self._out_schema is not None
        if self._acc.count == 0:
            return self._out_schema.empty(0)
        row = self._out_schema.empty(1)
        for spec in self.specs:
            idx = (self._value_columns.index(spec.column)
                   if spec.column in self._value_columns else 0)
            row[spec.alias] = self._acc.result(spec, idx)
        self.rows_out += 1
        return row

    def flush_cycles(self) -> int:
        return 4  # one result row
