"""Virtual-time machinery shared by all probing engines.

The paper's tools decouple probe sending from response receiving with
threads.  We reproduce the same information flow deterministically: a
:class:`VirtualClock` advances as probes are emitted (spaced ``1/pps``
apart), responses are scheduled on a :class:`ResponseQueue` at their
computed arrival times, and each engine drains the queue up to the current
virtual time before taking its next scheduling decision — exactly the
feedback a receiving thread could have delivered by then, no more.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from ..net.icmp import IcmpResponse


class VirtualClock:
    """A monotonically advancing virtual time in seconds."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Move to ``timestamp`` if it is in the future; never rewinds."""
        if timestamp > self.now:
            self.now = timestamp
        return self.now


class ResponseQueue:
    """Min-heap of in-flight responses ordered by arrival time."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, IcmpResponse]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, response: IcmpResponse) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (response.arrival_time, self._seq, response))
        # An injected duplicate (repro.simnet.faults) rides chained on its
        # original; deliver it as an independent arrival.
        dup = response.dup
        if dup is not None:
            self._seq += 1
            heapq.heappush(self._heap, (dup.arrival_time, self._seq, dup))

    def push_many(self, responses: Iterable[Optional[IcmpResponse]]) -> None:
        """Push a batch, skipping ``None`` slots — accepts the result of
        ``SimulatedNetwork.send_probes`` directly.  Arrival-time ties keep
        send order, same as pushing one by one.  Chained duplicate
        responses are unrolled into their own heap entries."""
        heap = self._heap
        seq = self._seq
        push = heapq.heappush
        for response in responses:
            if response is not None:
                seq += 1
                push(heap, (response.arrival_time, seq, response))
                dup = response.dup
                if dup is not None:
                    seq += 1
                    push(heap, (dup.arrival_time, seq, dup))
        self._seq = seq

    def pop_until(self, timestamp: float) -> Iterator[IcmpResponse]:
        """Yield responses whose arrival time is <= ``timestamp``, in order."""
        heap = self._heap
        while heap and heap[0][0] <= timestamp:
            yield heapq.heappop(heap)[2]

    def drain(self) -> Iterator[IcmpResponse]:
        """Yield every remaining response in arrival order."""
        heap = self._heap
        while heap:
            yield heapq.heappop(heap)[2]

    def snapshot(self) -> List[IcmpResponse]:
        """Non-destructive view of the in-flight responses in pop order.

        Used by checkpointing: the heap is *not* drained, and because
        every injected duplicate was already unrolled into its own heap
        entry at push time, the snapshot lists each delivery exactly
        once (chained ``dup`` references on originals are ignored).
        """
        return [entry[2] for entry in sorted(self._heap)]

    def load(self, responses: Iterable[IcmpResponse]) -> None:
        """Rebuild the queue from a :meth:`snapshot` (checkpoint resume).

        Responses are pushed raw, *without* duplicate unrolling — the
        snapshot already lists duplicates as independent entries — and in
        snapshot order, so arrival-time ties replay identically.
        """
        self._heap = []
        self._seq = 0
        heap = self._heap
        for response in responses:
            self._seq += 1
            heapq.heappush(heap, (response.arrival_time, self._seq, response))


class ProbeLog:
    """Compact append-only log of (send_time, destination, ttl) triples.

    Table 4's intrusiveness methodology replays each tool's real probe
    timeline against an independently discovered topology; a full /24-scan
    log holds millions of entries, so destinations and TTLs are packed into
    one unsigned 64-bit array instead of tuples.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._packed = array("Q")

    def __len__(self) -> int:
        return len(self._times)

    def append(self, send_time: float, dst: int, ttl: int) -> None:
        self._times.append(send_time)
        self._packed.append((dst << 8) | (ttl & 0xFF))

    def __iter__(self) -> Iterator[Tuple[float, int, int]]:
        for send_time, packed in zip(self._times, self._packed):
            yield send_time, packed >> 8, packed & 0xFF
