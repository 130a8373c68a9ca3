"""The FlashRoute probing engine (paper §3.2–§3.4).

A scan proceeds in three stages over a virtual clock:

1. **Preprobing** (optional): one TTL-32 probe per destination measures hop
   distances; proximity-span prediction extends them to neighbours; the
   distances become per-destination split points.  When the default split
   TTL equals the preprobing TTL and preprobing used the same targets as
   the main phase, the preprobe round *is* the first main round (§3.3.5).
2. **Main rounds**: each round walks the DCB ring in permuted order and
   issues up to two probes per live destination — the next backward hop
   (toward the vantage point) and the next forward hop (toward the target).
   Backward probing ends at TTL 1 or, with redundancy removal, at a
   previously discovered interface (the Doubletree stop set); forward
   probing ends at the target or after ``GapLimit`` consecutive silent
   hops.  Rounds last at least one second, giving responses time to adjust
   the strategy before the destination is visited again.
3. **Finalization**: the clock advances past the last possible arrival and
   remaining responses are drained.

Sending and receiving are decoupled exactly as in the paper: the sender
shares with the "receiving thread" only the visited destination's own DCB,
so the ring walk drains the response queue (up to the current virtual send
time) before a scheduling decision only when that destination is owed a
response (``ScanRuntime.owes``), and otherwise gathers its probes into
bursts of at most ``BURST_PROBES``.  That is exact, not approximate; the
argument is in DESIGN.md §6 and docs/probing-algorithms.md.

The walk is the first of the probe path's three loops (gather, emit,
deliver): a visit is a handful of reads and writes on the DCB columns,
bound once per scan, plus the ``rt.owes(offset)`` call.
"""

from __future__ import annotations

from functools import partial
from operator import add
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..net.icmp import IcmpResponse, ResponseKind, distance_from_unreachable
from ..obs.telemetry import record_scan_ring
from ..simnet.network import SimulatedNetwork
from ..simnet.topology import Topology
from .config import FlashRouteConfig, PreprobeMode
from .dcb import FLAG_DEST_REACHED, FLAG_REMOVED, DCBArray, ring_order
from .preprobe import PreprobeOutcome, clamp_distance, predict_distances
from .resilience import RETRY_TIMEOUT, CheckpointError, RetryTracker
from .results import ScanResult
from .runtime import BURST_PROBES, ScanRuntime, checkpointed_result
from .targets import random_targets

_PREPROBE_TTL = 32
#: Safety valve: abort scans that somehow exceed this many rounds.
MAX_ROUNDS = 4096


def _own_hitlist(topology: Topology, blocks: Iterable[int],
                 granularity: int) -> Dict[int, int]:
    """:func:`~repro.core.targets.hitlist_targets` restricted to
    ``blocks`` (the scan's own), built in O(blocks): every sub-block
    inherits its /24's hitlist address."""
    shift = granularity - 24
    hosts = topology.hitlist_host
    hitlist: Dict[int, int] = {}
    for block in blocks:
        prefix = block >> shift
        offset = prefix - topology.base_prefix
        if 0 <= offset < len(hosts):
            hitlist[block] = (prefix << 8) | hosts[offset]
    return hitlist


def _check_family(config: FlashRouteConfig, topology) -> None:
    """Refuse, before any probe, a config that does not fit the address
    family of ``topology``."""
    v6 = topology.address_bits == 128
    where = f"an IPv{6 if v6 else 4} topology ({type(topology).__name__})"
    if (config.granularity == 64) != v6:
        raise ValueError(f"granularity /{config.granularity} does not fit "
                         f"{where}")
    if v6 and config.preprobe is PreprobeMode.HITLIST:
        raise ValueError(f"preprobe mode 'hitlist' does not fit {where}: "
                         f"its seed list already holds one known address "
                         f"per /64, so §5.4 preprobes the targets")
    if v6 and config.probing_rate is None:
        raise ValueError(f"probing_rate None does not fit {where}: the "
                         f"paper's rate scales with the IPv4 /24 space, "
                         f"which a /64 seed list does not sample")


def _measured_distance(response: IcmpResponse, dst: int,
                       ttl: int) -> Optional[int]:
    """Destination distance FlashRoute reads off a response: only a port
    unreachable (or RST) from the target itself measures it — a
    host-unreachable says the target is not there, not how far it is."""
    if response.kind.is_unreachable \
            and response.kind is not ResponseKind.HOST_UNREACHABLE \
            and response.responder == dst:
        return distance_from_unreachable(response, ttl)
    return None


class FlashRoute:
    """FlashRoute scanner: create once, call :meth:`scan` per run."""

    def __init__(self, config: Optional[FlashRouteConfig] = None,
                 telemetry=None) -> None:
        self.config = config if config is not None else FlashRouteConfig()
        #: Optional :class:`repro.obs.Telemetry`; ``None`` keeps every
        #: path byte-identical to the pre-telemetry engine.
        self.telemetry = telemetry

    def scan(self, network: SimulatedNetwork,
             targets: Optional[Dict[int, int]] = None,
             preprobe_targets: Optional[Dict[int, int]] = None,
             stop_set: Optional[Set[int]] = None,
             start_ttls: Optional[Dict[int, int]] = None,
             tool_name: Optional[str] = None,
             excluded: Optional[Iterable[int]] = None) -> ScanResult:
        """Run one full scan; returns the :class:`ScanResult`.

        Args:
            network: the (simulated) network to probe.
            targets: /24 prefix -> representative address for the main
                phase; defaults to a seeded random draw per prefix (over
                an IPv6 topology: /64 -> its seed list).
            preprobe_targets: representatives for the preprobing phase;
                defaults to ``targets`` (the hitlist mode supplies the
                synthesized hitlist here automatically).
            stop_set: externally shared Doubletree stop set; the
                discovery-optimized mode passes one set across all its
                scans so extra scans stop at anything already seen (§5.2).
            start_ttls: per-prefix split-point override (used by the extra
                scans' randomized starting TTLs); wins over preprobing.
            tool_name: label recorded in the result.
            excluded: prefixes to leave out of the ring (exclusion list).
        """
        run = _ScanRun(self.config, network, targets, preprobe_targets,
                       stop_set, start_ttls, tool_name, excluded,
                       telemetry=self.telemetry)
        return run.execute()

    def resume(self, network: SimulatedNetwork, state: dict) -> ScanResult:
        """Continue a checkpointed scan to completion.

        ``state`` is the ``"state"`` section of a checkpoint document
        (see :func:`repro.core.resilience.load_checkpoint`).  The network
        must be built over the same topology (and fault model) as the
        interrupted run; the configuration must match the one the
        checkpoint was taken under — both are recorded in the document's
        ``invocation`` block by the CLI.  The returned ``ScanResult`` is
        byte-identical to an uninterrupted same-seed run.
        """
        partial_result = checkpointed_result(state, "flashroute")
        run = _ScanRun(self.config, network, dict(partial_result.targets),
                       None, None, None, partial_result.tool, None,
                       telemetry=self.telemetry)
        run.restore_state(state)
        return run.execute(skip_preprobe=True)


class _ScanRun:
    """FlashRoute's probing policy for a single scan (one-shot): the DCB
    ring, preprobing and split points, backward/forward stopping and the
    in-ring retry ledger, over a :class:`ScanRuntime`."""

    def __init__(self, config: FlashRouteConfig, network: SimulatedNetwork,
                 targets: Optional[Dict[int, int]],
                 preprobe_targets: Optional[Dict[int, int]],
                 stop_set: Optional[Set[int]],
                 start_ttls: Optional[Dict[int, int]],
                 tool_name: Optional[str],
                 excluded: Optional[Iterable[int]],
                 telemetry=None) -> None:
        self.config = config
        topology = network.topology
        _check_family(config, topology)
        if targets is None:
            targets = (random_targets(topology, config.seed,
                                      granularity=config.granularity)
                       if topology.address_bits == 32
                       else topology.seed_targets())
        self.targets = targets
        if preprobe_targets is None:
            if config.preprobe is PreprobeMode.HITLIST:
                preprobe_targets = _own_hitlist(topology, targets,
                                                config.granularity)
            else:
                preprobe_targets = targets
        self.preprobe_targets = preprobe_targets

        #: Folding preprobing into the first main round is only sound when
        #: the preprobe targets are the main targets and the default split
        #: TTL equals the preprobing TTL (§3.3.5, §4.1.3).
        self.fold_preprobe = (
            config.preprobe is PreprobeMode.RANDOM
            and config.split_ttl == _PREPROBE_TTL
            and config.max_ttl == _PREPROBE_TTL)

        # Block granularity (paper §5.4): the control-state array holds one
        # DCB per /granularity block; at the default 24 a block is a /24.
        self.rt = rt = ScanRuntime(
            network, tool_name if tool_name is not None
            else f"FlashRoute-{config.split_ttl}", targets,
            config.probing_rate, telemetry=telemetry,
            resilience=config.resilience, engine="flashroute",
            on_response=self._on_response, policy_state=self._policy_state,
            event_distance=_measured_distance,
            block_shift=topology.address_bits - config.granularity,
            scan_offset=config.scan_offset, verify_quotes=True,
            rtt_ledger=True, fold_preprobe=self.fold_preprobe)
        self.num_prefixes = rt.num_prefixes
        self.stop_set: Set[int] = stop_set if stop_set is not None else set()
        self.dcb = self._build_dcbs(excluded or (), start_ttls or {})
        self.preprobe_outcome = PreprobeOutcome()
        #: Unanswered-probe ledger (``docs/robustness.md``); ``None``
        #: without a retry budget, which keeps the ring walk on its seed
        #: path.
        self._retry: Optional[RetryTracker] = (
            RetryTracker(rt.retries, RETRY_TIMEOUT)
            if rt.retries > 0 else None)
        #: The ``(dst, ttl)`` probes gathered for the next burst and, with
        #: a retry ledger, their attempts and ring offsets alongside.
        self._burst: List[Tuple[int, int]] = []
        self._attempts: List[int] = []
        self._offsets: List[int] = []

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _build_dcbs(self, excluded: Iterable[int],
                    start_ttls: Dict[int, int]) -> DCBArray:
        """The DCB array over the whole block space, ringed through the
        scan's own targets: apart from C-level fills of the columns, the
        work is O(targets), so a shard slice pays for its slice."""
        base, size = self.rt.base_prefix, self.num_prefixes
        block_shift = self.rt.block_shift
        index = self.rt.block_index
        # Block -> ring offset: arithmetic in the dense IPv4 space, through
        # the target index in the sparse IPv6 one (-1: no slot).
        offset_of = (partial(add, -base) if index is None
                     else lambda prefix: index.get(prefix, -1))
        # A block without a target keeps its base address (never probed).
        destinations = list(range(base << block_shift,
                                  (base + size) << block_shift,
                                  1 << block_shift))
        banned = {offset_of(prefix) for prefix in excluded}
        members = []
        for prefix, addr in self.targets.items():
            offset = offset_of(prefix)
            if 0 <= offset < size:
                destinations[offset] = addr
                if offset not in banned:
                    members.append(offset)
        dcb = DCBArray(destinations, self.config.split_ttl,
                       self.config.gap_limit)
        if not members:
            raise ValueError("every prefix is excluded; nothing to scan")
        dcb.link_ring(ring_order(size, self.config.seed ^ 0x0D0B0D0B,
                                 members))
        for prefix, ttl in start_ttls.items():
            offset = offset_of(prefix)
            if 0 <= offset < size:
                dcb.set_distance(offset, ttl, predicted=False)
                horizon = min(ttl + self.config.gap_limit, 255)
                dcb.forward_horizon[offset] = horizon
        return dcb

    # ------------------------------------------------------------------ #
    # Response policy
    # ------------------------------------------------------------------ #

    def _on_response(self, response: IcmpResponse, dst: int, ttl: int,
                     is_preprobe: bool, offset: int) -> None:
        if is_preprobe:
            if response.kind is ResponseKind.PORT_UNREACHABLE \
                    and response.responder == dst:
                distance = distance_from_unreachable(response, _PREPROBE_TTL)
                clamped = (clamp_distance(distance, self.config.max_ttl)
                           if distance is not None else None)
                if clamped is not None:
                    self.preprobe_outcome.measured[offset] = clamped
            if not self.fold_preprobe:
                return
        elif self._retry is not None:
            # Any answer — original or retry, whatever its kind — settles
            # the outstanding (destination, ttl) probe.
            self._retry.record_response(offset, ttl)

        dcb = self.dcb
        config = self.config
        rt = self.rt
        reg = rt.reg
        events = rt.events
        prefix = rt.block_keys[offset]
        kind = response.kind

        if kind is ResponseKind.TTL_EXCEEDED:
            responder = response.responder
            self._add_key(prefix)
            self._add_ttl(ttl)
            self._add_responder(responder)
            horizon = ttl + config.gap_limit
            if horizon > 255:
                horizon = 255
            if horizon > dcb.forward_horizon[offset]:
                dcb.forward_horizon[offset] = horizon
            if ttl <= dcb.split[offset] and dcb.next_backward[offset] > 0:
                reason = None
                if ttl == 1:
                    reason = "ttl1"
                elif (config.redundancy_removal
                      and responder in self.stop_set):
                    reason = "stop_set"
                if reason is not None:
                    dcb.next_backward[offset] = 0
                    if reg is not None:
                        reg.inc(f"scan.backward_stops.{reason}")
                    if events is not None:
                        events.stop_decision(response.arrival_time, prefix,
                                             reason, ttl)
            self.stop_set.add(responder)
            return

        if kind.is_unreachable:
            if (reg is not None or events is not None) \
                    and not dcb.dest_reached(offset):
                if reg is not None:
                    reg.inc("scan.forward_stops.dest_reached")
                if events is not None:
                    events.stop_decision(response.arrival_time, prefix,
                                         "dest_reached", ttl)
            dcb.mark_dest_reached(offset)
            distance = _measured_distance(response, dst, ttl)
            if distance is not None:
                rt.result.record_destination(prefix, distance)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #

    def _run_preprobe(self) -> None:
        rt = self.rt
        started = rt.clock.now
        rt.span_begin("phase", "preprobe", folded=self.fold_preprobe)
        burst = self._burst
        keys = rt.block_keys
        for offset in self.dcb.iter_ring():
            target = self.preprobe_targets.get(keys[offset])
            if target is None:
                continue
            if rt.owes(offset) or len(burst) == BURST_PROBES:
                self._send_burst(preprobe=True)
            burst.append((target, _PREPROBE_TTL))
        self._send_burst(preprobe=True)
        rt.settle()

        outcome = self.preprobe_outcome
        outcome.probes = rt.result.preprobe_probes
        outcome.duration = rt.clock.now - started
        # Only ring members are predicted: a block outside the ring (another
        # slice's, or excluded) is never probed, so a prediction for it
        # would only skew the ledger below.
        flags = self.dcb.flags
        outcome.predicted = {
            offset: distance for offset, distance in predict_distances(
                outcome.measured, self.num_prefixes,
                self.config.proximity_span).items()
            if not flags[offset] & FLAG_REMOVED}
        self._apply_split_points(outcome)
        if rt.reg is not None:
            # Prediction ledger (§3.3.4) over the ring: measured = a
            # preprobe answered, predicted = proximity-span extension,
            # unresolved = neither (the default split TTL applies).
            rt.reg.inc("scan.preprobe.measured", len(outcome.measured))
            rt.reg.inc("scan.preprobe.predicted", len(outcome.predicted))
            rt.reg.inc("scan.preprobe.unresolved",
                       len(self.dcb) - len(outcome.measured)
                       - len(outcome.predicted))
        rt.span_end("phase", "preprobe", probes=outcome.probes,
                    measured=len(outcome.measured),
                    predicted=len(outcome.predicted))

    def _apply_split_points(self, outcome: PreprobeOutcome) -> None:
        gap_limit = self.config.gap_limit
        events = self.rt.events
        now = self.rt.clock.now
        for source, distances in (("measured", outcome.measured),
                                  ("predicted", outcome.predicted)):
            for offset, distance in distances.items():
                self.dcb.set_distance(offset, distance,
                                      predicted=source == "predicted")
                self.dcb.forward_horizon[offset] = min(distance + gap_limit,
                                                       255)
                if events is not None:
                    events.preprobe_predict(now, self.rt.block_keys[offset],
                                            distance, source)
        if self.fold_preprobe:
            # Preprobing was the first main round: destinations without a
            # measured distance continue downward from TTL 31 (§3.3.5).
            for offset in self.dcb.iter_ring():
                if offset not in outcome.measured \
                        and offset not in outcome.predicted:
                    self.dcb.next_backward[offset] = _PREPROBE_TTL - 1

    def _destination_finished(self, offset: int) -> bool:
        dcb = self.dcb
        if self._retry is not None and self._retry.has_open(offset):
            # Outstanding (pending or re-armed) probes keep the
            # destination in the ring until they settle or exhaust.
            return False
        if dcb.next_backward[offset] > 0:
            return False
        if dcb.dest_reached(offset):
            return True
        limit = min(dcb.forward_horizon[offset], self.config.max_ttl)
        return dcb.next_forward[offset] > limit

    def _remove_finished(self, offset: int) -> None:
        """Retire a finished destination, attributing the forward-probing
        stop reason (telemetry only; removal itself is unconditional)."""
        dcb = self.dcb
        reg = self.rt.reg
        events = self.rt.events
        now = self.rt.clock.now
        if (reg is not None or events is not None) \
                and not dcb.dest_reached(offset):
            # The forward walk ran out without an answer from the target:
            # a horizon below max_ttl means GapLimit silent hops in a row
            # cut it short (§3.4), otherwise it simply hit the TTL cap.
            limit = min(dcb.forward_horizon[offset], self.config.max_ttl)
            reason = ("gap_limit" if limit < self.config.max_ttl
                      else "max_ttl")
            if reg is not None:
                reg.inc(f"scan.forward_stops.{reason}")
            if events is not None:
                events.stop_decision(now, self.rt.block_keys[offset], reason,
                                     limit)
        dcb.remove(offset)
        if events is not None:
            events.dcb_release(now, self.rt.block_keys[offset])

    def _send_burst(self, preprobe: bool = False) -> None:
        """Emit the probes gathered since the last burst, then deliver
        what has arrived by then (so the queue, like the burst, holds
        little that outlives the collector's young generations).  Probes
        enter the retry ledger before the delivery, or a response would
        meet an empty ledger."""
        burst, attempts = self._burst, self._attempts
        if burst:
            sent = self.rt.emit(burst, "preprobe" if preprobe else "main",
                                attempts or None, preprobe=preprobe)
            for offset, probe, attempt in zip(self._offsets, sent, attempts):
                self._retry.record_sent(offset, probe[1], probe[2], attempt)
            burst.clear()
            attempts.clear()
            self._offsets.clear()
        self.rt.drain()

    def _run_main_rounds(self) -> None:
        config = self.config
        dcb = self.dcb
        rt = self.rt
        clock = rt.clock
        retry = self._retry
        result = rt.result
        # The sender does not wait for the receiver (§3.2): a visit only
        # queues its probes, and they leave as one burst — ahead of a
        # delivery the visited block is owed, when the next visit's
        # probes would not fit, and at round end.
        burst, attempts, offsets = self._burst, self._attempts, self._offsets
        # The columns a visit reads and writes (already restored on resume).
        destinations, dcb_flags = dcb.destination, dcb.flags
        next_backward, next_forward = dcb.next_backward, dcb.next_forward
        horizons = dcb.forward_horizon
        owes = rt.owes
        max_ttl = config.max_ttl
        rt.open_window()
        while len(dcb) > 0:
            if result.rounds >= MAX_ROUNDS:
                result.aborted = True
                break
            result.rounds += 1
            round_start = clock.now
            occupancy = len(dcb)
            if rt.reg is not None:
                record_scan_ring(rt.reg, occupancy)
            rt.span_begin("round", f"round-{result.rounds}",
                          occupancy=occupancy)
            probes_before = result.probes_sent
            for offset in dcb.iter_ring():
                if owes(offset):
                    self._send_burst()
                flags = dcb_flags[offset]
                if flags & FLAG_REMOVED:
                    continue
                destination = destinations[offset]
                pair: List[Tuple[int, int]] = []
                if retry is not None:
                    # Re-armed probes lead, lowest TTL first, ahead of
                    # the round's regular pair.
                    due = retry.take_due(offset)
                    pair.extend((destination, ttl) for ttl, _ in due)
                backward = next_backward[offset]
                if backward >= 1:
                    pair.append((destination, backward))
                    next_backward[offset] = backward - 1
                if not flags & FLAG_DEST_REACHED:
                    forward = next_forward[offset]
                    if forward <= max_ttl and forward <= horizons[offset]:
                        pair.append((destination, forward))
                        next_forward[offset] = forward + 1
                if pair:
                    # A visit's probes share a burst (and with it one
                    # route-table lookup).
                    if len(burst) + len(pair) > BURST_PROBES:
                        self._send_burst()
                    burst += pair
                    if retry is not None:
                        attempts += [attempt for _, attempt in due]
                        attempts += [0] * (len(pair) - len(due))
                        offsets += [offset] * len(pair)
                elif self._destination_finished(offset):
                    self._remove_finished(offset)
            self._send_burst()
            clock.advance_to(round_start + config.round_seconds)
            rt.drain()
            if retry is not None:
                retry.sweep(clock.now)
            rt.span_end("round", f"round-{result.rounds}",
                        probes=result.probes_sent - probes_before,
                        remaining=len(dcb))
            rt.report_progress(remaining=len(dcb))
            rt.boundary()

    # ------------------------------------------------------------------ #
    # Checkpoint/resume: the policy half (the runtime holds the rest)
    # ------------------------------------------------------------------ #

    def _policy_state(self) -> dict:
        return {
            "granularity": self.config.granularity,
            "rounds_done": self.rt.result.rounds,
            "stop_set": sorted(self.stop_set),
            "dcb": self.dcb.state_dict(),
            "retry": (self._retry.state_dict()
                      if self._retry is not None else None),
        }

    def restore_state(self, state: dict) -> None:
        """Load a checkpoint snapshot (resume path)."""
        if state["granularity"] != self.config.granularity:
            raise CheckpointError(
                f"checkpoint granularity /{state['granularity']} does not "
                f"match this scan's /{self.config.granularity}")
        self.rt.restore_state(state)
        self.rt.boundaries = state["rounds_done"]
        self.stop_set.clear()
        self.stop_set.update(state["stop_set"])
        self.dcb.restore_state(state["dcb"])
        if state.get("retry") is not None and self._retry is not None:
            self._retry.restore_state(state["retry"])

    def execute(self, skip_preprobe: bool = False) -> ScanResult:
        hops = self.rt.result.hops  # read after a resume replaced it
        self._add_key, self._add_ttl, self._add_responder = hops.appenders()
        return self.rt.run(self._scan, skip_preprobe)

    def _scan(self, skip_preprobe: bool) -> None:
        rt = self.rt
        if not skip_preprobe \
                and self.config.preprobe is not PreprobeMode.NONE:
            self._run_preprobe()
        rt.span_begin("phase", "main")
        self._run_main_rounds()
        rt.settle()
        rt.span_end("phase", "main", rounds=rt.result.rounds)
        if self._retry is not None:
            rt.retries_sent = self._retry.sent
            rt.retries_recovered = self._retry.recovered
            rt.retries_exhausted = self._retry.exhausted


# --------------------------------------------------------------------- #
# Scanner registry entries (see repro.core.scanner)
# --------------------------------------------------------------------- #

from .scanner import register_scanner  # noqa: E402


def _flashroute_factory(default_split: int):
    def build(request, telemetry, resilience) -> FlashRoute:
        return FlashRoute(FlashRouteConfig(
            split_ttl=(request.split_ttl if request.split_ttl is not None
                       else default_split),
            gap_limit=(request.gap_limit if request.gap_limit is not None
                       else 5),
            preprobe=(PreprobeMode(request.preprobe)
                      if request.preprobe is not None
                      else PreprobeMode.HITLIST),
            probing_rate=request.rate, resilience=resilience),
            telemetry=telemetry)
    return build


register_scanner("flashroute-16", _flashroute_factory(16))
register_scanner("flashroute-32", _flashroute_factory(32))


@register_scanner("yarrp-32-udp-sim")
def _build_yarrp32_udp_sim(request, telemetry, resilience) -> FlashRoute:
    return FlashRoute(FlashRouteConfig.yarrp32_udp_simulation(
        probing_rate=request.rate, resilience=resilience),
        telemetry=telemetry)
