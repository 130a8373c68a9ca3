"""Yarrp baseline (Beverly, IMC 2016; Yarrp6, IMC 2018).

Yarrp is the stateless massive-traceroute tool FlashRoute is compared
against.  Faithfully modeled here:

* **Stateless bulk probing**: a ZMap-style multiplicative-cycle permutation
  over the (destination /24 x TTL) space; every pair gets exactly one probe,
  no feedback, maximal parallelism.
* **Probe types**: Paris-TCP-ACK by default (elapsed time in the TCP
  sequence number); UDP optional — the paper notes real Yarrp's UDP mode
  breaks because it encodes elapsed time into the packet-length field and
  outgrows the MTU, which we reproduce as a refusal when the elapsed time
  no longer fits (§4.2.1, footnote 2).
* **Fill mode** (Yarrp-16): bulk-probes TTLs 1..fill_start, and upon a
  TTL-exceeded response from the farthest probed hop issues one extra probe
  one hop farther, up to max_ttl.  The chain stops at the first silent hop —
  the inherent gap limit of 1 the paper blames for Yarrp-16's poor
  interface discovery.
* **Neighborhood protection**: stop probing TTLs <= radius once no new
  interface has been discovered there for 30 seconds (§4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from ..net.icmp import IcmpResponse, ResponseKind
from ..net.packets import PROTO_TCP, PROTO_UDP, UDP_HEADER_LEN
from ..simnet.network import SimulatedNetwork
from ..core.permutation import MultiplicativeCycle
from ..core.resilience import CheckpointError
from ..core.results import ScanResult
from ..core.runtime import (BURST_PROBES, ScanRuntime, checkpointed_result,
                            destination_distance)
from ..core.targets import random_targets

#: Yarrp has no rounds, so the adaptive controller's observation windows
#: close at the first chunk boundary at least this long after the last.
_RATE_WINDOW_SECONDS = 1.0

#: Real Yarrp UDP encodes elapsed milliseconds in the packet length; the
#: system rejects datagrams beyond this size ("Message too long").
_MAX_UDP_LENGTH = 1472


class YarrpUdpEncodingError(RuntimeError):
    """Raised when Yarrp's UDP timestamp encoding outgrows the MTU,
    reproducing the failure reported in the paper's footnote 2."""


@dataclass
class YarrpConfig:
    """Configuration mirroring Yarrp's command line."""

    #: Highest TTL probed: by the bulk phase, or by fill mode's chains.
    max_ttl: int = 32

    #: If set, bulk probing stops at this TTL and fill mode sequentially
    #: extends routes up to ``max_ttl`` (Yarrp-16: fill_start=16).
    fill_start: Optional[int] = None

    probe_type: str = "tcp_ack"  # or "udp"

    #: Neighborhood protection radius in hops (0 disables).
    neighborhood_radius: int = 0
    neighborhood_timeout: float = 30.0

    probing_rate: Optional[float] = None
    seed: int = 1

    #: Optional :class:`repro.core.resilience.ResilienceConfig`.  Yarrp
    #: honours the full config: unanswered (dst, ttl) pairs are re-probed
    #: in post-bulk retry passes, the adaptive controller re-paces the
    #: bulk stream, and the permutation cursor makes the scan
    #: checkpoint/resumable.  ``None`` keeps the scan byte-identical to
    #: seed behaviour.
    resilience: Optional[object] = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_ttl <= 32:
            raise ValueError("max_ttl must be in [1, 32]")
        if self.fill_start is not None and not 1 <= self.fill_start <= self.max_ttl:
            raise ValueError("fill_start must be in [1, max_ttl]")
        if self.probe_type not in ("tcp_ack", "udp"):
            raise ValueError(f"unknown probe type {self.probe_type!r}")
        if self.neighborhood_radius < 0:
            raise ValueError("neighborhood_radius must be non-negative")

    @classmethod
    def yarrp_32(cls, **overrides) -> "YarrpConfig":
        """Yarrp-32: exhaustive TTL 1..32, Paris-TCP-ACK (Table 3)."""
        return cls(max_ttl=32, **overrides)

    @classmethod
    def yarrp_16(cls, **overrides) -> "YarrpConfig":
        """Yarrp-16: bulk to TTL 16 plus fill mode to 32 (Table 3)."""
        return cls(max_ttl=32, fill_start=16, **overrides)

    @property
    def bulk_ttl(self) -> int:
        return self.fill_start if self.fill_start is not None else self.max_ttl

    @property
    def label(self) -> str:
        base = f"Yarrp-{self.bulk_ttl}"
        if self.neighborhood_radius:
            base += f" {self.neighborhood_radius}-hop protection"
        if self.probe_type == "udp":
            base += " UDP"
        return base


class Yarrp:
    """The Yarrp scanner."""

    def __init__(self, config: Optional[YarrpConfig] = None,
                 telemetry=None) -> None:
        self.config = config if config is not None else YarrpConfig.yarrp_32()
        #: Optional :class:`repro.obs.Telemetry`; ``None`` keeps every
        #: instrumentation site on its uninstrumented branch.
        self.telemetry = telemetry

    def scan(self, network: SimulatedNetwork,
             targets: Optional[Dict[int, int]] = None,
             tool_name: Optional[str] = None) -> ScanResult:
        run = _YarrpRun(self.config, network, targets, tool_name,
                        telemetry=self.telemetry)
        return run.execute()

    def resume(self, network: SimulatedNetwork, state: dict) -> ScanResult:
        """Continue a checkpointed scan (see ``docs/robustness.md``).

        ``state`` is the ``"state"`` payload of a checkpoint written by
        this engine; the same config and an equivalent network must be
        supplied.  The resumed scan finishes with a :class:`ScanResult`
        byte-identical to an uninterrupted run (pinned by tests).
        """
        partial = checkpointed_result(state, "yarrp")
        run = _YarrpRun(self.config, network, dict(partial.targets),
                        partial.tool, telemetry=self.telemetry)
        run.restore_state(state)
        return run.execute()


class _YarrpRun:
    """Yarrp's probing policy for one scan: the (destination x TTL)
    permutation, fill mode, neighborhood protection and the post-bulk
    retry ledger, over a :class:`ScanRuntime`."""

    def __init__(self, config: YarrpConfig, network: SimulatedNetwork,
                 targets: Optional[Dict[int, int]],
                 tool_name: Optional[str],
                 telemetry=None) -> None:
        self.config = config
        if targets is None:
            targets = random_targets(network.topology, config.seed)
        self.targets = targets
        udp = config.probe_type == "udp"
        # Real Yarrp TCP mode times via the external recorder, so the
        # result's RTT ledger stays UDP-only.
        self.rt = rt = ScanRuntime(
            network, tool_name if tool_name is not None else config.label,
            targets, config.probing_rate, telemetry=telemetry,
            resilience=config.resilience, engine="yarrp",
            on_response=self._on_response, policy_state=self._policy_state,
            proto=PROTO_UDP if udp else PROTO_TCP, rtt_ledger=udp)
        self._udp_length = self._udp_length_for if udp else None
        self.base_prefix = rt.base_prefix
        self.offsets = sorted(prefix - self.base_prefix for prefix in targets)
        #: Fill-mode probes waiting to be sent (dst, ttl).
        self.fill_backlog: List[Tuple[int, int]] = []
        #: Neighborhood protection state: per protected TTL, the virtual
        #: time a new interface was last discovered there.
        self.last_new_iface_at: Dict[int, float] = {
            ttl: 0.0 for ttl in range(1, config.neighborhood_radius + 1)}
        self.skipped_by_protection = 0
        self._seen_ifaces: set = set()
        #: Fill mode's deepest answered TTL per offset (0: none yet).
        self._deepest: Optional[bytearray] = None
        #: (dst, ttl) pairs probed / answered — only tracked when a retry
        #: budget exists, so the default path carries no per-probe cost.
        self._sent: Optional[set] = set() if rt.retries > 0 else None
        self._answered: Optional[set] = set() if rt.retries > 0 else None
        self._retried: set = set()
        #: Multiplicative-cycle group steps consumed by the bulk phase —
        #: the resumable checkpoint cursor (see MultiplicativeCycle
        #: .iter_steps).
        self._steps_done = 0

    # ------------------------------------------------------------------ #

    def _udp_length_for(self, send_time: float) -> int:
        """Real Yarrp's UDP mode: elapsed ms goes into the packet length."""
        length = UDP_HEADER_LEN + int(send_time * 1000.0)
        if length > _MAX_UDP_LENGTH:
            raise YarrpUdpEncodingError(
                "Network API error: Message too long (Yarrp UDP encodes the "
                "elapsed time into the packet length field; see paper "
                "footnote 2)")
        return length

    def _probe(self, items: List[Tuple[int, int]], phase: str = "bulk",
               attempt: int = 0) -> None:
        """Enter ``(dst, ttl)`` pairs in the retry ledger and emit them."""
        if self._sent is not None:
            self._sent.update(items)
        self.rt.emit(items, phase, [attempt] * len(items) if attempt else None,
                     self._udp_length)

    def _flush_fill_backlog(self) -> None:
        while self.fill_backlog:
            self._probe([self.fill_backlog.pop()], "fill")

    def _on_response(self, response: IcmpResponse, dst: int, ttl: int,
                     is_preprobe: bool, offset: int) -> None:
        if self._answered is not None:
            self._answered.add((dst, ttl))
        config = self.config
        result = self.rt.result
        prefix = self.base_prefix + offset

        if response.kind is ResponseKind.TTL_EXCEEDED:
            responder = response.responder
            self._add_key(prefix)
            self._add_ttl(ttl)
            self._add_responder(responder)
            if responder not in self._seen_ifaces:
                self._seen_ifaces.add(responder)
                if ttl in self.last_new_iface_at:
                    self.last_new_iface_at[ttl] = response.arrival_time
            deepest = self._deepest
            if deepest is not None and deepest[offset] <= ttl:
                deepest[offset] = ttl
                if config.fill_start <= ttl < config.max_ttl:
                    # Fill mode: extend the route one hop past the
                    # farthest responding hop (inherent gap limit of 1).
                    self.fill_backlog.append((dst, ttl + 1))
            return

        distance = destination_distance(response, dst, ttl)
        if distance is not None:
            result.record_destination(prefix, distance)

    # ------------------------------------------------------------------ #
    # Retry passes, checkpoint/resume
    # ------------------------------------------------------------------ #

    def _run_retry_passes(self) -> None:
        """Re-probe unanswered (dst, ttl) pairs, up to the retry budget.

        Each pass re-sends every still-unanswered pair in sorted order
        (deterministic), settles, and flushes any fill chains the
        recovered hops opened.  Pairs answered after a retry count as
        recovered; pairs silent through every pass as exhausted."""
        if self._sent is None:
            return
        unanswered = sorted(self._sent - self._answered)
        if not unanswered:
            return
        rt = self.rt
        rt.span_begin("phase", "retry")
        for attempt in range(1, rt.retries + 1):
            if not unanswered:
                break
            self._retried.update(unanswered)
            rt.retries_sent += len(unanswered)
            for start in range(0, len(unanswered), BURST_PROBES):
                self._probe(unanswered[start:start + BURST_PROBES],
                            "retry", attempt)
                rt.drain()
            rt.settle()
            while self.fill_backlog:
                self._flush_fill_backlog()
                rt.settle()
            unanswered = sorted(self._sent - self._answered)
        rt.retries_recovered = len(self._retried & self._answered)
        rt.retries_exhausted = len(self._retried - self._answered)
        rt.span_end("phase", "retry", retries=rt.retries_sent,
                    exhausted=len(unanswered))

    def _policy_state(self) -> dict:
        """The policy half of a chunk-boundary snapshot.  The permutation
        itself is not stored: it is reconstructed from the seed, and
        ``steps_done`` is the resumable cursor into it."""
        return {
            "bulk_ttl": self.config.bulk_ttl,
            "steps_done": self._steps_done,
            "boundaries": self.rt.boundaries,
            "sent": (sorted(self._sent)
                     if self._sent is not None else None),
            "answered": (sorted(self._answered)
                         if self._answered is not None else None),
            "fill_backlog": list(self.fill_backlog),
            "last_new_iface_at": sorted(self.last_new_iface_at.items()),
            "seen_ifaces": sorted(self._seen_ifaces),
            "skipped": self.skipped_by_protection,
        }

    def restore_state(self, state: dict) -> None:
        """Load a checkpoint snapshot (resume path)."""
        if state["bulk_ttl"] != self.config.bulk_ttl:
            raise CheckpointError(
                f"checkpoint bulk TTL {state['bulk_ttl']} does not match "
                f"this scan's {self.config.bulk_ttl}")
        self.rt.restore_state(state)
        self.rt.boundaries = state["boundaries"]
        self._steps_done = state["steps_done"]
        if state.get("sent") is not None and self._sent is not None:
            self._sent.update(tuple(pair) for pair in state["sent"])
        if state.get("answered") is not None and self._answered is not None:
            self._answered.update(tuple(pair)
                                  for pair in state["answered"])
        self.fill_backlog = [(dst, ttl)
                             for dst, ttl in state["fill_backlog"]]
        self.last_new_iface_at = {int(ttl): when for ttl, when
                                  in state["last_new_iface_at"]}
        self._seen_ifaces = set(state["seen_ifaces"])
        self.skipped_by_protection = state["skipped"]

    # ------------------------------------------------------------------ #

    def execute(self) -> ScanResult:
        hops = self.rt.result.hops  # read after a resume replaced it
        self._add_key, self._add_ttl, self._add_responder = hops.appenders()
        if self.config.fill_start is not None:
            # From the table: a resumed scan's holds the hops so far.
            self._deepest = deepest = bytearray(self.rt.num_prefixes)
            for prefix, ttl in zip(hops.keys, hops.ttls):
                offset = prefix - self.base_prefix
                deepest[offset] = max(deepest[offset], ttl)
        return self.rt.run(self._scan)

    def _scan(self) -> None:
        config = self.config
        cycle = MultiplicativeCycle(len(self.offsets) * config.bulk_ttl,
                                    config.seed ^ 0x59A44)
        self._run_bulk(cycle)
        self._run_retry_passes()
        self.rt.result.skipped_probes = self.skipped_by_protection

    def _run_bulk(self, cycle: MultiplicativeCycle) -> None:
        """The bulk phase, in bursts, with the per-step schedule's probes
        and send times (DESIGN.md §6).  A TTL *steers* when its answer can
        open a fill chain (from ``fill_start`` on) or reset protection (up
        to the radius).  A steering probe ends its burst and its block is
        watched; a step delivers first only while a watched block is owed.
        Every 64 steps is a boundary: Yarrp-32 steers nothing and delivers
        after its burst, else the chunk's last step delivers first, as per
        step, so the boundary reads the same deliveries."""
        config = self.config
        rt = self.rt
        clock, owes, drain = rt.clock, rt.owes, rt.drain
        bulk_ttl, radius = config.bulk_ttl, config.neighborhood_radius
        timeout, last_new = config.neighborhood_timeout, self.last_new_iface_at
        targets, base, offsets = self.targets, self.base_prefix, self.offsets
        backlog = self.fill_backlog
        steers = [0 < ttl <= radius or ttl == config.fill_start
                  for ttl in range(bulk_ttl + 1)]
        steering = any(steers)
        # A resumed scan delivers first (answers may have arrived since the
        # last delivery) and watches one block for its queue, which owes
        # every block alike.  An event recorder (it pins the line order)
        # makes every block owed: then every step delivers.
        watched = [offsets[0]] if steering else []
        burst: List[Tuple[int, int]] = []

        def deliver() -> None:
            """One step's delivery on the per-step schedule."""
            if burst:
                self._probe(burst)
                burst.clear()
            drain()
            while backlog:
                dst, ttl = backlog.pop()
                self._probe([(dst, ttl)], "fill")
                watched.append((dst >> 8) - base)
                drain()

        rt.span_begin("phase", "bulk")
        if steering:
            deliver()
        steps = cycle.iter_steps(self._steps_done)
        chunk = list(islice(steps, BURST_PROBES))
        while chunk:
            last = chunk[-1] if steering else None
            for item in chunk:
                while watched and not owes(watched[-1]):
                    watched.pop()
                if watched or item is last:
                    deliver()
                index, ttl = divmod(item[1], bulk_ttl)
                ttl += 1
                probe = (targets[base + offsets[index]], ttl)
                if not steers[ttl]:
                    burst.append(probe)
                    continue
                if ttl <= radius:
                    # Judged at the probe's own send time, built with the
                    # additions emit makes.
                    now, gap = clock.now, rt.send_gap
                    for _ in burst:
                        now = now + gap
                    if now - last_new[ttl] > timeout:
                        self.skipped_by_protection += 1
                        continue
                burst.append(probe)
                self._probe(burst)
                burst.clear()
                watched.append(offsets[index])
            if burst:
                self._probe(burst)
                burst.clear()
            if len(chunk) < BURST_PROBES:
                break
            if not steering:
                drain()
            rt.report_progress()
            self._steps_done = chunk[-1][0] + 1
            rt.boundary(window=_RATE_WINDOW_SECONDS)
            chunk = list(islice(steps, BURST_PROBES))
        # Let the tail of fill chains complete.
        rt.settle()
        while backlog:
            self._flush_fill_backlog()
            rt.settle()
        rt.span_end("phase", "bulk", probes=rt.result.probes_sent,
                    skipped=self.skipped_by_protection)


# --------------------------------------------------------------------- #
# Scanner registry entries (see repro.core.scanner)
# --------------------------------------------------------------------- #

from ..core.scanner import register_scanner  # noqa: E402


def _yarrp_factory(variant):
    def build(request, telemetry, resilience) -> Yarrp:
        return Yarrp(variant(probing_rate=request.rate,
                             resilience=resilience), telemetry=telemetry)
    return build


register_scanner("yarrp-16", _yarrp_factory(YarrpConfig.yarrp_16))
register_scanner("yarrp-32", _yarrp_factory(YarrpConfig.yarrp_32))
