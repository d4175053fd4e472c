"""Queue pairs and client-side receive buffers (paper §4.3).

"In RDMA, the information describing a single node-to-node connection or
RDMA flow is associated with a queue pair. Farview identifies flows using
such queue pairs" — each QP carries a unique id used for routing, fair
arbitration, and isolation, plus credit-based flow control state.

The client posts a *local buffer* into which Farview's one-sided writes
deposit results; :class:`ClientBuffer` models that memory functionally.
"""

from __future__ import annotations

import itertools

from ..common.errors import NetworkError
from ..sim.engine import Simulator
from ..sim.resources import CreditPool

_qp_ids = itertools.count(1)


class ClientBuffer:
    """Client-local memory region receiving one-sided RDMA writes.

    ``capacity`` is the size of the posted region and bounds every deposit
    and read.  The backing storage only grows to the highest byte
    deposited so far, and bytes never written read as zeros, so an 8 MiB
    region that receives a 4 KiB result costs 4 KiB of host memory.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise NetworkError(f"client buffer needs positive capacity: {capacity}")
        self.capacity = capacity
        self._data = bytearray()
        self.bytes_received = 0

    @property
    def stored_bytes(self) -> int:
        """Host bytes backing the buffer: up to the highest byte deposited."""
        return len(self._data)

    def deposit(self, offset: int, chunk: bytes) -> None:
        """Land one packet's payload at ``offset`` (out-of-order friendly)."""
        if offset < 0 or offset + len(chunk) > self.capacity:
            raise NetworkError(
                f"deposit [{offset}, +{len(chunk)}) overflows client buffer "
                f"of {self.capacity} bytes")
        data = self._data
        if offset > len(data):
            data.extend(bytes(offset - len(data)))
        # A slice reaching past the end grows the storage to fit.
        data[offset:offset + len(chunk)] = chunk
        self.bytes_received += len(chunk)

    def read(self, offset: int = 0, length: int | None = None) -> bytes:
        if length is None:
            length = self.capacity - offset
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise NetworkError(
                f"read [{offset}, +{length}) overflows client buffer")
        with memoryview(self._data) as view:
            out = bytes(view[offset:offset + length])
        return out.ljust(length, b"\x00")

    def reset(self) -> None:
        self._data = bytearray()
        self.bytes_received = 0


class QueuePair:
    """One RDMA flow: routing id, credits, and the client receive buffer."""

    def __init__(self, sim: Simulator, buffer_capacity: int,
                 credits: int, qp_id: int | None = None):
        self.qp_id = qp_id if qp_id is not None else next(_qp_ids)
        self.sim = sim
        self.buffer = ClientBuffer(buffer_capacity)
        self.credits = CreditPool(sim, credits, name=f"qp{self.qp_id}")
        self.connected = False
        self.region_index: int | None = None
        self.domain: int | None = None
        self.requests_sent = 0
        self.responses_received = 0

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return f"QueuePair(id={self.qp_id}, {state}, region={self.region_index})"
