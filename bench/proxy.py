"""A transparent timing proxy around a network session.

Layers are measured from outside: nothing under ``src/`` knows it is
being timed.  :class:`TimingNetwork` sits where ``CapturingNetwork``
sits for ``--pcap`` — between the engine and its session's
``SimulatedNetwork`` — forwards every call unchanged, and adds up the
time spent below the boundary.  A scan makes ~130 K calls, so the proxy
keeps one running total instead of one span per call; the tracer folds
it into a single aggregate child span.

Probes and responses are read off the inner network's own counters
(exact, and free), calls are counted here.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import List, Optional

from repro.net.packets import PROTO_UDP, UDP_HEADER_LEN


class TimingNetwork:
    """Drop-in for ``SimulatedNetwork``: engines only call
    ``send_probe``/``send_probes`` and read attributes, all forwarded."""

    def __init__(self, network, keep_probes: int = 0) -> None:
        self._network = network
        # Bound once: the proxy's own cost per call is part of the trace
        # overhead the benchmark has to keep small.
        self._send_probe = network.send_probe
        self._send_probes = network.send_probes
        self.busy_ns = 0
        self.calls = 0
        #: The first ``keep_probes`` probes as the engine emitted them,
        #: batch by batch — the FlashRoute-shaped (or Yarrp-shaped)
        #: stream the micro-benchmarks replay.  Batches are the engine's
        #: own lists, kept by reference.
        self.batches: List[list] = []
        #: Protocol of the kept batches (per batch in the engines' calls,
        #: but one engine only ever sends one).
        self.proto = PROTO_UDP
        self._keep = keep_probes

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    @property
    def probes(self) -> int:
        return self._network.probes_sent

    @property
    def responses(self) -> int:
        return self._network.responses_generated

    def send_probe(self, dst: int, ttl: int, send_time: float,
                   src_port: int, dst_port: int = 33434, ipid: int = 0,
                   udp_length: int = UDP_HEADER_LEN,
                   proto: int = PROTO_UDP,
                   flow: Optional[int] = None, single: bool = False):
        if self._keep > 0:
            self._keep -= 1
            self.batches.append(
                [(dst, ttl, send_time, src_port, ipid, udp_length)])
        start = perf_counter_ns()
        response = self._send_probe(dst, ttl, send_time, src_port, dst_port,
                                    ipid, udp_length, proto, flow, single)
        self.busy_ns += perf_counter_ns() - start
        self.calls += 1
        return response

    def send_probes(self, probes, dst_port: int = 33434,
                    proto: int = PROTO_UDP, flow: Optional[int] = None):
        if self._keep > 0:
            self._keep -= len(probes)
            self.batches.append(probes)
            self.proto = proto
        start = perf_counter_ns()
        responses = self._send_probes(probes, dst_port, proto, flow)
        self.busy_ns += perf_counter_ns() - start
        self.calls += 1
        return responses
