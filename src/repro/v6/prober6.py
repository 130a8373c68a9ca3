"""FlashRoute6: the paper's §5.4 IPv6 extension, prototyped.

Same probing strategy as the IPv4 scanner — preprobing, round-based
backward/forward exploration, Doubletree stop set, GapLimit — over the
redesigned sparse control state (:class:`~repro.v6.dcb_store.
SparseDCBStore`) and a target list instead of an enumerable prefix space.

Two deliberate differences, both consequences of IPv6 sparsity the paper
anticipates:

* no proximity-span prediction: adjacent /64 indexes carry no locality in
  a sparsely allocated space, so preprobing distances apply only to the
  destinations that answered;
* target selection comes from a seed list (hitlists/traces), never from
  enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..core.results import ScanResult
from ..net.icmp import ResponseKind
from ..simnet.engine import ResponseQueue, VirtualClock
from .dcb_store import SparseDCBStore
from .encoding6 import (
    decode_payload6,
    destination_intact6,
    encode_probe6,
    rtt_ms6,
)
from .topology6 import Response6, SimulatedNetwork6

_SETTLE_SECONDS = 1.0
_PREPROBE_TTL = 32


@dataclass
class FlashRoute6Config:
    """Knobs of the v6 scanner (a subset of the IPv4 config)."""

    split_ttl: int = 16
    gap_limit: int = 5
    max_ttl: int = 32
    preprobe: bool = True
    redundancy_removal: bool = True
    probing_rate: float = 1000.0
    round_seconds: float = 1.0
    seed: int = 1
    scan_offset: int = 0
    max_rounds: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.split_ttl <= self.max_ttl:
            raise ValueError("split_ttl must be within [1, max_ttl]")
        if self.gap_limit < 0:
            raise ValueError("gap_limit must be non-negative")
        if not 1 <= self.max_ttl <= 63:
            raise ValueError("max_ttl must fit the 6-bit v6 encoding")
        if self.probing_rate <= 0:
            raise ValueError("probing_rate must be positive")
        if not 0 <= self.round_seconds < math.inf:
            raise ValueError(
                "round_seconds must be a non-negative finite number")


class FlashRoute6:
    """The IPv6 scanner: create once, call :meth:`scan` per run."""

    def __init__(self, config: Optional[FlashRoute6Config] = None) -> None:
        self.config = config if config is not None else FlashRoute6Config()

    def scan(self, network: SimulatedNetwork6,
             targets: Optional[Dict[int, int]] = None,
             stop_set: Optional[Set[int]] = None,
             tool_name: str = "FlashRoute6") -> ScanResult:
        config = self.config
        if targets is None:
            targets = network.topology.seed_targets()
        if not targets:
            raise ValueError("the v6 scanner needs a non-empty target list")

        store = SparseDCBStore(targets.values(), config.split_ttl,
                               config.gap_limit, seed=config.seed)
        clock = VirtualClock()
        queue = ResponseQueue()
        send_gap = 1.0 / config.probing_rate
        stop = stop_set if stop_set is not None else set()
        result = ScanResult(tool=tool_name, num_targets=len(targets),
                            granularity=64)
        result.targets = dict(targets)

        def send(dst: int, ttl: int, preprobe: bool) -> None:
            marking = encode_probe6(dst, ttl, clock.now, is_preprobe=preprobe,
                                    scan_offset=config.scan_offset)
            response = network.send_probe(dst, ttl, clock.now,
                                          marking.src_port,
                                          payload=marking.payload)
            result.probes_sent += 1
            if preprobe:
                result.preprobe_probes += 1
            result.ttl_probe_histogram[ttl] += 1
            if response is not None:
                queue.push(response)  # type: ignore[arg-type]
            clock.advance(send_gap)

        def send_batch(items) -> None:
            # The back-to-back probes of one ring-walk step, emitted through
            # the batch entry point (same pacing and encodings as scalar).
            probes = []
            for dst, ttl in items:
                marking = encode_probe6(dst, ttl, clock.now,
                                        is_preprobe=False,
                                        scan_offset=config.scan_offset)
                probes.append((dst, ttl, clock.now, marking.src_port,
                               marking.payload))
                result.ttl_probe_histogram[ttl] += 1
                clock.advance(send_gap)
            result.probes_sent += len(probes)
            queue.push_many(network.send_probes(probes))

        measured: Dict[int, int] = {}

        def process(response: Response6) -> None:
            decoded = decode_payload6(response.quoted_payload,
                                      response.quoted_dst,
                                      response.quoted_src_port)
            if not destination_intact6(decoded, config.scan_offset):
                result.mismatched_quotes += 1
                return
            key = decoded.dst >> 64
            block = store.get(key)
            if block is None:
                return
            result.responses += 1
            result.response_kinds[response.kind.value] += 1
            result.add_rtt(rtt_ms6(decoded, response.arrival_time))

            if decoded.is_preprobe:
                if response.kind is ResponseKind.PORT_UNREACHABLE \
                        and response.responder == decoded.dst:
                    distance = decoded.initial_ttl \
                        - response.quoted_residual_ttl + 1
                    if 1 <= distance <= config.max_ttl:
                        measured[key] = distance
                return

            if response.kind is ResponseKind.TTL_EXCEEDED:
                ttl = decoded.initial_ttl
                result.add_hop(key, ttl, response.responder)
                horizon = ttl + config.gap_limit
                if horizon > block.forward_horizon:
                    block.forward_horizon = horizon
                if ttl <= block.split_ttl and block.next_backward > 0:
                    if ttl == 1:
                        block.next_backward = 0
                    elif (config.redundancy_removal
                          and response.responder in stop):
                        block.next_backward = 0
                stop.add(response.responder)
                return
            if response.kind.is_unreachable:
                block.dest_reached = True
                if response.responder == decoded.dst:
                    distance = decoded.initial_ttl \
                        - response.quoted_residual_ttl + 1
                    if distance >= 1:
                        result.record_destination(key, distance)

        def drain() -> None:
            for response in queue.pop_until(clock.now):
                process(response)

        # Preprobing: measure-only (no proximity prediction in sparse v6).
        if config.preprobe:
            for key in store.iter_ring():
                drain()
                send(store.get(key).destination, _PREPROBE_TTL,
                     preprobe=True)
            clock.advance(_SETTLE_SECONDS)
            drain()
            for key, distance in measured.items():
                store.set_distance(key, distance, config.gap_limit)

        # Main rounds.
        while len(store) > 0 and result.rounds < config.max_rounds:
            result.rounds += 1
            round_start = clock.now
            for key in store.iter_ring():
                drain()
                block = store.get(key)
                if block.removed:
                    continue
                pair = []
                if block.next_backward >= 1:
                    pair.append((block.destination, block.next_backward))
                    block.next_backward -= 1
                if not block.dest_reached:
                    limit = min(block.forward_horizon, config.max_ttl)
                    if block.next_forward <= limit:
                        pair.append((block.destination, block.next_forward))
                        block.next_forward += 1
                if pair:
                    send_batch(pair)
                sent = bool(pair)
                if not sent and block.next_backward == 0 and (
                        block.dest_reached
                        or block.next_forward > min(block.forward_horizon,
                                                    config.max_ttl)):
                    store.remove(key)
            clock.advance_to(round_start + config.round_seconds)
            drain()
        result.aborted = result.rounds >= config.max_rounds and len(store) > 0

        clock.advance(_SETTLE_SECONDS)
        drain()
        result.duration = clock.now
        return result


def exhaustive_scan6(network: SimulatedNetwork6,
                     targets: Optional[Dict[int, int]] = None,
                     max_ttl: int = 32,
                     probing_rate: float = 1000.0) -> ScanResult:
    """Yarrp6-style exhaustive baseline: one probe per (target, hop)."""
    config = FlashRoute6Config(split_ttl=max_ttl, gap_limit=0,
                               preprobe=False, redundancy_removal=False,
                               max_ttl=max_ttl, probing_rate=probing_rate)
    return FlashRoute6(config).scan(network, targets=targets,
                                    tool_name="exhaustive-v6")
