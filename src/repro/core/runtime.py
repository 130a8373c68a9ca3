"""The shared prober every engine runs on (paper §3.2–§3.4).

The paper describes one paced sender and one receive path; FlashRoute's
DCB ring, stop set and GapLimit, Yarrp's stateless permutation, Scamper's
lagged Doubletree and the classic TTL walk are *policies* deciding which
(destination, TTL) to probe next and when to stop.  :class:`ScanRuntime`
is the prober under all of them.  It owns

* the virtual clock and pacing (``rate`` / ``send_gap``), including the
  adaptive controller's re-pacing;
* emission — :meth:`emit` for a back-to-back burst, :meth:`probe_hop`
  for the synchronous one-hop-at-a-time tools — which is the model of the
  paper's *sending thread*;
* the response queue, :meth:`drain` (the *receiving thread*: everything
  that has arrived by the current virtual time, no more), response
  accounting, and :meth:`owes`: delivery is a per-destination fact, so an
  engine may drain only for a block that has an answer coming;
* instrumentation: the telemetry handles, ``probe_sent`` / ``retry`` /
  ``response`` / ``rate_change`` / ``checkpoint`` events, the RTT
  histogram, progress snapshots, the scan span and the final metrics fold;
* :meth:`boundary` bookkeeping (adaptive window, checkpoint capture,
  cadence and write, ``round_hook``), interrupt handling in :meth:`run`,
  and the engine-independent half of checkpoint state.

An engine hands it a response handler and the policy half of its
checkpoint state, and otherwise only calls into it.

Every probe crosses :meth:`emit` and :meth:`drain`, so they call nothing per
probe: the §3.1 marking and its decoding are written out in them, with
:mod:`repro.core.encoding` as the specification they are tested against.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..net.checksum import flow_source_port
from ..net.icmp import IcmpResponse, distance_from_unreachable
from ..net.packets import PROTO_UDP
from ..simnet.config import scaled_probing_rate
from ..simnet.engine import ResponseQueue, VirtualClock
from .encoding import EncodingError
from .output import result_from_dict, result_to_dict
from .resilience import (AdaptiveRateController, CheckpointError,
                         ResilienceConfig, ScanInterrupted,
                         response_from_dict, response_to_dict,
                         write_checkpoint)
from .results import ScanResult

#: Probes per ``send_probes`` burst: FlashRoute's ring walk and Yarrp's
#: bulk chunks (there also the steps per boundary).  Bounded, not a whole
#: round, so that what a burst allocates — probe tuples, queued responses
#: — dies in the collector's young generations; on ``scan_fr16`` one burst
#: per round gives half of the gain back in gen-2 passes and 256 reads
#: like 64, so this sits on the flat part and is not a knob.
BURST_PROBES = 64

#: Extra virtual time after the last probe of a phase, enough for any
#: response still in flight to arrive (worst case: 2 * 32 hops * hop
#: latency + jitter, far below a second in the default latency model).
SETTLE_SECONDS = 1.0

def destination_distance(response: IcmpResponse, dst: int,
                         ttl: int) -> Optional[int]:
    """The one-probe distance measurement (§3.3.1): the hop distance an
    unreachable answer *from the destination itself* implies for a probe
    sent to ``dst`` with initial TTL ``ttl``; ``None`` for anything else."""
    if response.kind.is_unreachable and response.responder == dst:
        return distance_from_unreachable(response, ttl)
    return None


def checkpointed_result(state: dict, engine: str) -> ScanResult:
    """The partial result inside a checkpoint ``state`` payload, after
    checking that ``engine`` wrote it."""
    if state.get("engine") != engine:
        raise CheckpointError(f"checkpoint was written by engine "
                              f"{state.get('engine')!r}, not {engine}")
    return result_from_dict(state["result"])


class ScanRuntime:
    """Clock, sender, receiver, instrumentation and resilience
    bookkeeping of one scan of ``targets`` (block -> address) over
    ``network`` at ``rate`` probes per second (``None``: the paper's
    100 Kpps scaled to the simulated prefix count); ``result`` is the
    :class:`ScanResult` it fills, labelled ``tool``.

    Args:
        telemetry: optional :class:`repro.obs.Telemetry`; ``None`` keeps
            every path on its uninstrumented branch.
        resilience: optional :class:`ResilienceConfig` (adaptive rate,
            checkpointing, ``round_hook``, and the retry budget).
        retries: retry budget for engines configured without a
            ``ResilienceConfig`` (Scamper, classic traceroute).
        engine: name recorded in checkpoints.
        on_response: :meth:`drain` calls it per accounted response as
            ``(response, dst, ttl, is_preprobe, offset)``.
        policy_state: returns the engine's half of a checkpoint.
        event_distance: the destination distance the engine's policy
            reads off a response, reported in its ``response`` event.
        block_shift: address bits below one destination block (8 = /24,
            64 = an IPv6 /64).
        verify_quotes: drop (and count) responses whose quoted
            destination no longer matches its checksum port (§5.3).
        rtt_ledger: fold RTTs into ``result`` (the ``scan.rtt_ms``
            histogram and events record them regardless).
        fold_preprobe: preprobe responses double as main-phase
            responses (§3.3.5).
    """

    def __init__(self, network, tool: str, targets: Dict[int, int],
                 rate: Optional[float], *, telemetry=None,
                 resilience: Optional[ResilienceConfig] = None,
                 retries: int = 0, engine: Optional[str] = None,
                 on_response: Optional[Callable[..., None]] = None,
                 policy_state: Optional[Callable[[], dict]] = None,
                 event_distance: Callable[..., Optional[int]]
                 = destination_distance,
                 block_shift: int = 8, proto: int = PROTO_UDP,
                 scan_offset: int = 0, verify_quotes: bool = False,
                 rtt_ledger: bool = False, fold_preprobe: bool = False,
                 start_time: float = 0.0) -> None:
        self.network = network
        topology = network.topology
        self.result = ScanResult(
            tool=tool, num_targets=len(targets),
            granularity=topology.address_bits - block_shift)
        self.result.targets = dict(targets)
        self.rate = rate if rate is not None else scaled_probing_rate(
            network.topology.num_prefixes)
        self.send_gap = 1.0 / self.rate
        self.clock = VirtualClock(start_time)
        self.queue = ResponseQueue()
        #: Telemetry handles: ``None`` when off, so a disabled run pays
        #: one identity test per site.
        self.telemetry = telemetry
        self.reg = telemetry.registry if telemetry is not None else None
        self.tracer = (telemetry.tracer if telemetry is not None
                       and telemetry.tracer.enabled else None)
        self.progress = telemetry.progress if telemetry is not None else None
        self.events = telemetry.events if telemetry is not None else None
        if topology.address_bits == 128 and self.events is not None \
                and self.events.binary:
            raise ValueError("a binary event log packs addresses in 32 "
                             "bits; record IPv6 scans as JSONL")
        self.resilience = resilience
        self.retries = resilience.retries if resilience is not None \
            else retries
        self.controller = (AdaptiveRateController(self.rate)
                           if resilience is not None
                           and resilience.adaptive_rate else None)
        self.engine = engine
        self.on_response = on_response
        self.policy_state = policy_state
        self.event_distance = event_distance
        self.block_shift = block_shift
        #: Ring offset -> block key, and back: arithmetic over the dense
        #: IPv4 space; over the sparse IPv6 one (§5.4) the array holds the
        #: scan's own blocks, found through a dict (``None`` for IPv4).
        if topology.address_bits == 32:
            scale = 1 << (8 - block_shift)
            self.base_prefix = topology.base_prefix * scale
            self.num_prefixes = topology.num_prefixes * scale
            self.block_keys: Sequence[int] = range(
                self.base_prefix, self.base_prefix + self.num_prefixes)
            self.block_index: Optional[Dict[int, int]] = None
        else:
            self.base_prefix, self.block_keys = 0, sorted(targets)
            self.num_prefixes = len(self.block_keys)
            self.block_index = {key: offset for offset, key
                                in enumerate(self.block_keys)}
        #: Per-destination delivery (:meth:`owes`): per ring offset, the
        #: latest arrival among the responses to that block's probes, and
        #: the time up to which :meth:`drain` has delivered everything.
        self._owed = array("d", [0.0]) * self.num_prefixes
        self._delivered = start_time
        self.proto = proto
        self.scan_offset = scan_offset
        #: Probed address -> source port, constant per destination (§3.1).
        #: Only :meth:`emit` fills it, and not from unfolded preprobes (probed
        #: once); :meth:`drain` computes a miss without storing it.
        self._ports: Dict[int, int] = {}
        self.verify_quotes = verify_quotes
        self.rtt_ledger = rtt_ledger
        self.fold_preprobe = fold_preprobe
        #: Retransmissions sent / answered / given up on.  :meth:`probe_hop`
        #: counts its own; engines with a retry ledger report theirs here.
        self.retries_sent = 0
        self.retries_recovered = 0
        self.retries_exhausted = 0
        #: Boundaries passed: rounds for FlashRoute, chunks for Yarrp.
        self.boundaries = 0
        #: Adaptive observation window: (opened at, probes, responses,
        #: rate-limiter drops) when it opened.
        self._window: Tuple[float, int, int, int] = (start_time, 0, 0, 0)
        #: Last boundary snapshot; what an interrupt flushes to disk.
        self._ckpt_state: Optional[dict] = None
        self._since_ckpt = 0
        self._checkpoints_written = 0

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def emit(self, items: Sequence[Tuple[int, int]], phase: str = "main",
             attempts: Optional[Sequence[int]] = None,
             udp_length: Optional[Callable[[float], int]] = None,
             preprobe: bool = False) -> List[tuple]:
        """Send ``(dst, ttl)`` probes back-to-back, each at its own clock
        tick, as one ``send_probes`` burst; returns the batch tuples.

        No probe of the burst may depend on a response to an earlier one,
        which makes batching observation-equivalent to per-probe sends:
        same send times, same encodings, same response arrivals.
        ``attempts`` (parallel to ``items``) marks retransmissions;
        ``udp_length`` replaces the encoded UDP length (Yarrp's
        elapsed-time encoding); ``preprobe`` sets the preprobe bit (§3.3).
        The marking is ``encode_probe``'s, expression for expression.  The
        ``finally`` sends the probes already built when a TTL does not
        encode or ``udp_length`` raises mid-burst, so the partial burst
        reaches the network exactly as per-probe sends would have.
        """
        clock = self.clock
        gap = self.send_gap
        scan_offset = self.scan_offset
        histogram = self.result.ttl_probe_histogram
        events = self.events
        shift = self.block_shift
        ports = self._ports
        # An unfolded preprobe: its address is probed this once.
        single = preprobe and not self.fold_preprobe
        preprobe_bit = 0x400 if preprobe else 0
        probes: List[tuple] = []
        try:
            for dst, ttl in items:
                if not 1 <= ttl <= 32:
                    raise EncodingError(
                        f"initial TTL {ttl} does not fit in 5 bits (1..32)")
                now = clock.now
                port = ports.get(dst)
                if port is None:
                    port = flow_source_port(dst, scan_offset)
                    if not single:
                        ports[dst] = port
                stamp = int(now * 1000.0) % 65536
                probes.append((dst, ttl, now, port,
                               ((ttl - 1) << 11) | preprobe_bit | (stamp >> 6),
                               8 + (stamp & 63) if udp_length is None
                               else udp_length(now)))
                if events is not None:
                    attempt = (attempts[len(probes) - 1]
                               if attempts is not None else 0)
                    events.probe_sent(now, dst >> shift, ttl, dst, port,
                                      "retry" if attempt else phase)
                    if attempt:
                        events.retry(now, dst >> shift, ttl, attempt, dst)
                histogram[ttl] += 1
                clock.now = now + gap
        finally:
            self.result.probes_sent += len(probes)
            if preprobe:
                self.result.preprobe_probes += len(probes)
            if single:
                # The main phase targets a different address in the block,
                # so a route-cache table for this one would never pay off:
                # the scalar entry point carries that hint.
                responses = [self.network.send_probe(
                    dst, ttl, now, port, ipid=ipid, udp_length=length,
                    single=True)
                    for dst, ttl, now, port, ipid, length in probes]
            else:
                responses = self.network.send_probes(probes, proto=self.proto)
            self.queue.push_many(responses)
            # What each probed block is owed, keyed by the *probe's* block:
            # a rewriting middlebox moves the quoted address, and an
            # injected duplicate may arrive after its original.
            owed = self._owed
            index = self.block_index
            for probe, response in zip(probes, responses):
                if response is not None:
                    arrival = response.arrival_time
                    if response.dup is not None:
                        arrival = max(arrival, response.dup.arrival_time)
                    key = probe[0] >> shift
                    offset = (key - self.base_prefix if index is None
                              else index.get(key, -1))
                    if 0 <= offset < len(owed) and arrival > owed[offset]:
                        owed[offset] = arrival
        return probes

    def probe_hop(self, dst: int, ttl: int, wait: bool = False,
                  retry_event_first: bool = False
                  ) -> Optional[IcmpResponse]:
        """Probe one hop synchronously: a probe plus up to ``retries``
        in-place re-sends while it stays silent; returns the answer.

        For the tools that decide every next probe from the previous
        answer.  The clock charges the pacing gap per probe; ``wait``
        also waits out the round trip first (classic traceroute).  An
        injected duplicate is accounted here, on arrival.  Scamper logs
        its ``retry`` event when it decides to re-send, ahead of the
        retransmission's ``probe_sent`` (``retry_event_first``); every
        other engine pairs it after.
        """
        clock = self.clock
        for attempt in range(self.retries + 1):
            sent_at = clock.now
            announced = attempt and retry_event_first
            if attempt:
                self.retries_sent += 1
                if announced and self.events is not None:
                    self.events.retry(sent_at, dst >> self.block_shift, ttl,
                                      attempt, dst)
            self.emit([(dst, ttl)], "retry" if attempt else "trace",
                      None if announced else (attempt,))
            answer = None
            for response in self.queue.drain():
                self._account(response, dst, ttl,
                              (response.arrival_time - sent_at) * 1000.0)
                if not response.is_duplicate:
                    answer = response
            if answer is not None:
                if wait:
                    clock.advance_to(answer.arrival_time + self.send_gap)
                if attempt:
                    self.retries_recovered += 1
                return answer
        if self.retries:
            self.retries_exhausted += 1
        return None

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def owes(self, offset: int) -> bool:
        """True when a :meth:`drain` could hand block ``offset`` something:
        one of its probes has an answer arriving after the last delivery
        (conservative: it may still lie ahead).  An engine may skip the
        drain before a send that no answer owed to such a block could
        change, and decides exactly as if it had drained (DESIGN.md §6).
        FlashRoute's ring walk asks for the visited block, whose own
        answers alone steer the visit; Yarrp's bulk loop for the blocks of
        its fill and protected-TTL probes, whose answers alone steer a
        send.  An attached event recorder pins the order of ``probe_sent``
        and ``response`` lines: then every block is owed."""
        return (self._owed[offset] > self._delivered
                or self.events is not None)

    def drain(self) -> None:
        """Deliver every response that has arrived by now: decode, drop
        what is mangled or out of range, account, then hand it to the
        engine as ``on_response(response, dst, ttl, is_preprobe, offset)``:
        ``decode_response``, ``destination_intact`` (§5.3) and ``rtt_ms``,
        inline."""
        now = self._delivered = self.clock.now
        verify = self.verify_quotes
        ports = self._ports
        shift = self.block_shift
        base = self.base_prefix
        num_prefixes = self.num_prefixes
        index = self.block_index
        account = self._account
        on_response = self.on_response
        for response in self.queue.pop_until(now):
            quoted = response.quoted
            dst = quoted.dst
            if verify:
                port = ports.get(dst)
                if port is None:
                    port = flow_source_port(dst, self.scan_offset)
                if port != quoted.src_port:
                    self.result.mismatched_quotes += 1
                    continue
            offset = ((dst >> shift) - base if index is None
                      else index.get(dst >> shift, -1))
            if not 0 <= offset < num_prefixes:
                continue
            ipid = quoted.ipid
            ttl = (ipid >> 11) + 1
            preprobe = bool(ipid & 0x400)
            stamp = ((ipid & 0x3FF) << 6) | ((quoted.udp_length - 8) & 63)
            account(response, dst, ttl,
                    float((int(response.arrival_time * 1000.0) - stamp)
                          % 65536), preprobe)
            on_response(response, dst, ttl, preprobe, offset)

    def settle(self) -> None:
        """Wait out every response still in flight, then drain."""
        self.clock.advance(SETTLE_SECONDS)
        self.drain()

    def _account(self, response: IcmpResponse, dst: int, ttl: int,
                 rtt: float, preprobe: bool = False) -> None:
        result = self.result
        result.responses += 1
        if response.is_duplicate:
            result.duplicate_responses += 1
        kind = response.kind._value_
        result.response_kinds[kind] += 1
        if self.rtt_ledger:
            result.rtt_sum_ms += rtt
            result.rtt_count += 1
        if self.reg is not None:
            self.reg.observe("scan.rtt_ms", rtt)
        if self.events is not None:
            # `pre` marks preprobe responses the engine does not fold
            # into routes; those measure no distance for the result.
            pre = preprobe and not self.fold_preprobe
            self.events.response(
                response.arrival_time, dst >> self.block_shift, ttl,
                response.responder, kind, rtt=rtt,
                dist=None if pre else self.event_distance(response, dst, ttl),
                pre=pre, dup=response.is_duplicate)

    # ------------------------------------------------------------------ #
    # Boundaries: re-pacing, checkpoints, the interrupt hook
    # ------------------------------------------------------------------ #

    def open_window(self) -> None:
        """Start the adaptive controller's observation window here."""
        self._window = (self.clock.now, self.result.probes_sent,
                        self.result.responses,
                        self.network.drop_count)

    def boundary(self, window: float = 0.0) -> None:
        """One round or chunk boundary: feed the adaptive controller the
        window since the last observation once it is ``window`` virtual
        seconds old (long enough that in-flight responses cannot
        masquerade as loss), capture checkpoint state, write it at the
        configured cadence, and call ``round_hook``."""
        now = self.clock.now
        if self.controller is not None and now - self._window[0] >= window:
            _, probes, responses, drops = self._window
            self.open_window()
            decision = self.controller.observe_round(
                self._window[1] - probes, self._window[2] - responses,
                self._window[3] - drops)
            if decision is not None:
                reason, self.rate = decision
                self.send_gap = 1.0 / self.rate
                if self.events is not None:
                    self.events.rate_change(now, self.rate, reason)
        self.boundaries += 1
        resil = self.resilience
        if resil is None:
            return
        if resil.checkpoint_path is not None:
            self._ckpt_state = self.capture_state()
            self._since_ckpt += 1
            if resil.checkpoint_every \
                    and self._since_ckpt >= resil.checkpoint_every:
                self._write_checkpoint()
                self._since_ckpt = 0
        if resil.round_hook is not None:
            resil.round_hook(self.boundaries)

    def capture_state(self) -> dict:
        """Snapshot the complete scan state at a boundary.

        Read-only: capturing never perturbs the scan, so enabling
        checkpointing keeps the ScanResult byte-identical.  The route
        cache and its counters are excluded — they are derived from the
        immutable topology and performance-only.
        """
        now = self.clock.now
        state = {
            "engine": self.engine,
            "clock": now,
            "rate": self.rate,
            "result": result_to_dict(self.result),
            "queue": [response_to_dict(r) for r in self.queue.snapshot()],
            "adaptive": (self.controller.state_dict()
                         if self.controller is not None else None),
            "network": self.network.export_dynamic_state(now),
        }
        state.update(self.policy_state())
        return state

    def restore_state(self, state: dict) -> None:
        """Load the runtime half of a :meth:`capture_state` snapshot."""
        self.clock.now = state["clock"]
        self.rate = state["rate"]
        self.send_gap = 1.0 / self.rate
        self.result = result_from_dict(state["result"])
        self.queue.load(response_from_dict(entry)
                        for entry in state["queue"])
        # The snapshot does not say which block each queued response
        # answers, so every block is owed until the latest has arrived.
        self._owed = array("d", [max(
            (entry["arrival_time"] for entry in state["queue"]),
            default=0.0)]) * self.num_prefixes
        self._delivered = self.clock.now
        if state.get("adaptive") is not None and self.controller is not None:
            self.controller.restore_state(state["adaptive"])
        if state.get("network") is not None:
            try:
                self.network.restore_dynamic_state(state["network"])
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint network state: {exc}") from None

    def _write_checkpoint(self) -> str:
        resil = self.resilience
        path = write_checkpoint(resil.checkpoint_path, self.engine,
                                self._ckpt_state, resil.checkpoint_meta)
        self._checkpoints_written += 1
        if self.events is not None:
            self.events.checkpoint(self.clock.now, self.boundaries)
        return path

    def _interrupt_checkpoint(self) -> Optional[str]:
        """Flush the last boundary snapshot on interrupt; ``None`` when
        checkpointing is off or no boundary was reached yet."""
        resil = self.resilience
        if resil is None or resil.checkpoint_path is None \
                or self._ckpt_state is None:
            return None
        return self._write_checkpoint()

    # ------------------------------------------------------------------ #
    # The scan as a whole
    # ------------------------------------------------------------------ #

    def report_progress(self, remaining: Optional[int] = None) -> None:
        """Emit a progress snapshot if one is due at the current time."""
        progress = self.progress
        now = self.clock.now
        if progress is None or not progress.due(now):
            return
        result = self.result
        fields = {"tool": result.tool}
        if result.rounds:
            fields["round"] = result.rounds
        fields["probes"] = result.probes_sent
        fields["responses"] = result.responses
        fields["pps"] = result.probes_sent / now if now > 0 else 0.0
        if remaining is not None:
            fields["remaining"] = remaining
        fields["interfaces"] = result.interface_count()
        progress.report(now, fields)

    def span_begin(self, kind: str, name: str, **args) -> None:
        """Open a trace span at the current virtual time, if tracing."""
        if self.tracer is not None:
            self.tracer.begin(kind, name, self.clock.now, **args)

    def span_end(self, kind: str, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.end(kind, name, self.clock.now, **args)

    def run(self, policy: Callable[..., None], *args) -> ScanResult:
        """Run ``policy(*args)`` (the engine's whole probing schedule)
        inside the scan span, then finalize and return the result.

        A ``KeyboardInterrupt`` flushes the last boundary checkpoint and
        becomes :class:`ScanInterrupted`; with no checkpoint to write it
        propagates unchanged.
        """
        self.span_begin("scan", self.result.tool,
                        targets=self.result.num_targets, rate_pps=self.rate)
        try:
            policy(*args)
        except KeyboardInterrupt:
            path = self._interrupt_checkpoint()
            if path is not None:
                raise ScanInterrupted(path, self.boundaries) from None
            raise
        finally:
            # Dropping the engine's bound methods breaks the engine <->
            # runtime cycle: scan state is freed on return, not by a GC pass.
            self.on_response = self.policy_state = None
        result = self.result
        result.duration = self.clock.now
        if self.tracer is not None:
            self.span_end("scan", result.tool, probes=result.probes_sent,
                          responses=result.responses,
                          interfaces=result.interface_count())
        self._fold_resilience_metrics()
        if self.telemetry is not None:
            self.telemetry.record_result(result)
        return result

    def _fold_resilience_metrics(self) -> None:
        reg = self.reg
        if reg is None:
            return
        if self.retries:
            reg.inc("scan.retries.sent", self.retries_sent)
            reg.inc("scan.retries.recovered", self.retries_recovered)
            reg.inc("scan.retries.exhausted", self.retries_exhausted)
        if self.controller is not None:
            reg.inc("scan.adaptive.backoffs", self.controller.backoffs)
            reg.inc("scan.adaptive.recoveries", self.controller.recoveries)
        if self._checkpoints_written:
            reg.inc("scan.checkpoints.written", self._checkpoints_written)
