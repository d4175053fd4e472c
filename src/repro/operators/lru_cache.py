"""Shift-register LRU cache hiding hash-table latency (paper §5.4).

The distinct/group-by hash table is pipelined: an update issued for tuple i
is not visible when tuple i+1 (or i+k, for pipeline depth k) performs its
lookup, creating a data hazard — two equal back-to-back keys would both be
reported as "new".  The paper hides the hazard with a small true-LRU cache
"implemented with a shift register, which adds a negligible latency to the
data streams (the amount depends on the number of cuckoo hash tables)".

We model exactly that: a fixed-depth register of recent keys.  A hit
anywhere promotes the key to most-recent (true LRU); insertion shifts the
oldest key out.  Capacity = depth per cuckoo way x number of ways, as the
hardware sizes it to cover the table lookup latency.

The register is held as an insertion-ordered dict (oldest first) rather
than a literal shift register: lookups and promotions are O(1) hash
operations instead of list scans.  Hit/miss/eviction behaviour is
identical for the lookup-then-insert protocol the operators use; the one
divergence is that ``insert`` of an already-resident key promotes it
instead of storing a duplicate copy (true-LRU semantics; the old register
could briefly hold the key twice).  DISTINCT and GROUP BY probe a whole
batch at once with :meth:`ShiftRegisterLru.probe_batch`;
:meth:`ShiftRegisterLru.lookup_or_insert` is its scalar reference.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..common.errors import OperatorError
from .hashing import KeyGroups, group_keys


class ShiftRegisterLru:
    """Fixed-capacity true-LRU over byte keys, shift-register semantics."""

    def __init__(self, depth: int):
        if depth <= 0:
            raise OperatorError(f"LRU depth must be positive: {depth}")
        self.depth = depth
        self._reg: dict[bytes, None] = {}  # insertion order: oldest first
        self.hits = 0
        self.misses = 0

    def lookup(self, key: bytes) -> bool:
        """True if ``key`` is resident; promotes it to most-recent."""
        reg = self._reg
        if key in reg:
            del reg[key]
            reg[key] = None  # re-append: most-recent position
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: bytes) -> None:
        """Push ``key`` as most-recent; the oldest entry falls off the end."""
        reg = self._reg
        if key in reg:
            del reg[key]
        reg[key] = None
        if len(reg) > self.depth:
            del reg[next(iter(reg))]

    def lookup_or_insert(self, key: bytes) -> bool:
        """Combined probe+insert as the hardware does in one pass."""
        reg = self._reg
        if key in reg:
            del reg[key]
            reg[key] = None
            self.hits += 1
            return True
        self.misses += 1
        reg[key] = None
        if len(reg) > self.depth:
            del reg[next(iter(reg))]
        return False

    def probe_batch(self, keys: np.ndarray,
                    groups: KeyGroups | None = None) -> np.ndarray:
        """:meth:`lookup_or_insert` over a batch of keys in one call.

        ``keys`` is a 1-D ``np.void`` array of fixed-width key images;
        ``groups`` may carry ``group_keys(keys)`` when the caller has it.
        Returns the per-key hit flags; the counters and the final register
        are those of probing the keys one by one, in order.

        True LRU is a stack algorithm: a key hits iff it was seen before
        and fewer than ``depth`` distinct other keys were seen since.
        """
        n = len(keys)
        if n == 0:
            return np.zeros(0, dtype=bool)
        _, local, distinct = groups or group_keys(keys)
        # The register is replayed ahead of the batch (oldest first),
        # which rebuilds exactly its state.
        names = list(distinct)
        number = dict(zip(names, range(len(names))))
        for key in self._reg:
            if key not in number:
                number[key] = len(names)
                names.append(key)
        held = len(self._reg)
        seq = np.concatenate([
            np.array([number[key] for key in self._reg], dtype=np.int64),
            local])
        m = len(seq)
        # Previous and next occurrence of every position's key: its
        # neighbours among the positions of equal keys, in order.
        order = np.argsort(seq, kind="stable")
        same = seq[order[1:]] == seq[order[:-1]]
        later, earlier = order[1:][same], order[:-1][same]
        prev = np.full(m, -1, dtype=np.int64)
        prev[later] = earlier
        nxt = np.full(m, m, dtype=np.int64)
        nxt[earlier] = later
        pos = np.arange(held, m)
        last = prev[held:]
        hit = last >= 0
        # A window (last, pos) cannot hold ``depth`` distinct other keys
        # if it is shorter than the register, or if the register and the
        # batch do not hold that many keys.  For the rest, count the
        # positions in the ``span`` before ``pos`` that are their key's
        # latest one; the span doubles until every row is decided.
        todo = np.flatnonzero(hit & (pos - last - 1 >= self.depth)
                              & (len(names) > self.depth))
        span = 2 * self.depth
        while todo.size:
            at, since = pos[todo], last[todo]
            # window[s] holds nxt over positions s - span .. s - 1.
            window = sliding_window_view(
                np.concatenate([np.full(span, -1), nxt]), span)
            newest = ((window[at] >= at[:, None])
                      & (np.arange(span) > (since - at + span)[:, None]))
            seen = np.count_nonzero(newest, axis=1)
            done = (seen >= self.depth) | (at - since - 1 <= span)
            hit[todo[done]] = seen[done] < self.depth
            todo = todo[~done]
            span *= 2
        # The register ends as the ``depth`` most recently seen keys: the
        # last position of each key, newest last.
        latest = np.sort(order[np.append(~same, True)])[-self.depth:]
        self._reg = dict.fromkeys(names[u] for u in seq[latest].tolist())
        hits = np.count_nonzero(hit)
        self.hits += hits
        self.misses += n - hits
        return hit

    @property
    def resident(self) -> list[bytes]:
        """Resident keys, most-recent first."""
        return list(reversed(self._reg))

    def __contains__(self, key: bytes) -> bool:
        return key in self._reg

    def __repr__(self) -> str:
        return f"ShiftRegisterLru(depth={self.depth}, live={len(self._reg)})"
