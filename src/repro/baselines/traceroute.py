"""Classic sequential traceroute.

The paper uses the conventional probe-every-TTL-and-wait approach as the
reference for validating the one-probe hop-distance measurement (§3.3.2):
probes with TTLs 1..32 are sent toward a destination and the first TTL that
elicits an ICMP port-unreachable — the *triggering TTL* — is the
traceroute-measured distance.  This module implements that reference tool,
one destination at a time, which is also the library's simplest example of
a probing engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..net.icmp import IcmpResponse, ResponseKind, distance_from_unreachable
from ..obs.telemetry import Telemetry
from ..simnet.network import SimulatedNetwork
from ..core.results import ScanResult
from ..core.runtime import ScanRuntime
from ..core.targets import random_targets


@dataclass
class TracerouteResult:
    """Hops and destination info measured for one target."""

    dst: int
    #: ttl -> responder address for TTL-exceeded responses.
    hops: Dict[int, int] = field(default_factory=dict)
    #: First TTL that elicited port-unreachable, or None.
    triggering_ttl: Optional[int] = None
    #: Distance implied by the residual TTL of the unreachable response.
    residual_distance: Optional[int] = None
    probes: int = 0
    #: Responses observed, injected duplicates included.
    responses: int = 0


def _unreachable_distance(response: IcmpResponse, dst: int,
                          ttl: int) -> Optional[int]:
    """Classic traceroute takes the first unreachable of any kind — a
    gateway's included — as the end of the path."""
    if response.kind.is_unreachable:
        return distance_from_unreachable(response, ttl)
    return None


def _runtime(network: SimulatedNetwork, tool: str, targets: Dict[int, int],
             inter_probe_gap: float, **options) -> ScanRuntime:
    rt = ScanRuntime(network, tool, targets, 1.0 / inter_probe_gap,
                     event_distance=_unreachable_distance, **options)
    # Configured by its gap, not a rate: keep the gap to the last bit.
    rt.send_gap = inter_probe_gap
    return rt


def _trace(rt: ScanRuntime, dst: int, max_ttl: int) -> TracerouteResult:
    """The TTL 1..max_ttl walk toward ``dst``, low to high, one hop at a
    time: each ``probe_hop`` waits out the round trip (or the pacing gap,
    whichever is longer) and re-sends a silent probe in place.  The
    first unreachable ends the walk."""
    result = TracerouteResult(dst=dst)
    probes_before = rt.result.probes_sent
    responses_before = rt.result.responses
    for ttl in range(1, max_ttl + 1):
        response = rt.probe_hop(dst, ttl, wait=True)
        if response is None:
            continue
        if response.kind is ResponseKind.TTL_EXCEEDED:
            result.hops[ttl] = response.responder
        elif response.kind.is_unreachable:
            result.triggering_ttl = ttl
            result.residual_distance = distance_from_unreachable(
                response, ttl)
            break
    if rt.events is not None:
        reached = result.triggering_ttl is not None
        rt.events.stop_decision(rt.clock.now, dst >> 8,
                                "dest_reached" if reached else "max_ttl",
                                ttl if reached else max_ttl)
    result.probes = rt.result.probes_sent - probes_before
    result.responses = rt.result.responses - responses_before
    return result


class ClassicTraceroute:
    """Sequential per-hop traceroute over the simulated network.

    Unlike the massive-scan engines, this waits for each response before
    deciding the next step — the behaviour whose slowness motivated Yarrp
    and FlashRoute in the first place.
    """

    def __init__(self, network: SimulatedNetwork, max_ttl: int = 32,
                 inter_probe_gap: float = 0.02,
                 start_time: float = 0.0,
                 retries: int = 0,
                 registry=None, events=None) -> None:
        if max_ttl < 1:
            raise ValueError("max_ttl must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.network = network
        self.max_ttl = max_ttl
        self.inter_probe_gap = inter_probe_gap
        #: Re-sends per silent hop before moving on (classic traceroute
        #: sends 3 probes per hop; 0 — the default — matches the paper's
        #: one-probe-per-hop comparison setup).
        self.retries = retries
        #: ``registry``/``events`` are optional observability sinks (a
        #: MetricsRegistry and an EventRecorder).
        self.runtime = _runtime(
            network, "Traceroute", {}, inter_probe_gap,
            telemetry=Telemetry(registry, events=events, metrics=False),
            retries=retries, start_time=start_time)
        self.clock = self.runtime.clock

    def trace(self, dst: int) -> TracerouteResult:
        """Probe ``dst`` at TTL 1..max_ttl, low to high, one at a time."""
        return _trace(self.runtime, dst, self.max_ttl)

    def triggering_ttl(self, dst: int) -> Optional[int]:
        """Just the first TTL that triggers port-unreachable (Fig. 3)."""
        return self.trace(dst).triggering_ttl


class TracerouteScanner:
    """Classic traceroute dressed as a :class:`~repro.core.scanner.Scanner`.

    Traces every target sequentially on one continuous clock and folds the
    per-destination :class:`TracerouteResult`s into one
    :class:`~repro.core.results.ScanResult`, so the reference tool can sit
    in the same experiment tables as the massive scanners.  Orders of
    magnitude slower in virtual time, exactly as in reality.
    """

    def __init__(self, max_ttl: int = 32, inter_probe_gap: float = 0.02,
                 seed: int = 1, retries: int = 0, telemetry=None) -> None:
        self.max_ttl = max_ttl
        self.inter_probe_gap = inter_probe_gap
        self.seed = seed
        self.retries = retries
        self.telemetry = telemetry

    def scan(self, network: SimulatedNetwork,
             targets: Optional[Dict[int, int]] = None,
             tool_name: str = "Traceroute") -> ScanResult:
        if targets is None:
            targets = random_targets(network.topology, self.seed)
        rt = _runtime(network, tool_name, targets, self.inter_probe_gap,
                      telemetry=self.telemetry, retries=self.retries)
        result = rt.result

        def trace_all() -> None:
            for prefix in sorted(targets):
                trace = _trace(rt, targets[prefix], self.max_ttl)
                for ttl, responder in trace.hops.items():
                    result.add_hop(prefix, ttl, responder)
                if trace.residual_distance is not None:
                    result.record_destination(prefix,
                                              trace.residual_distance)
                rt.report_progress()

        return rt.run(trace_all)


# --------------------------------------------------------------------- #
# Scanner registry entry (see repro.core.scanner)
# --------------------------------------------------------------------- #

from ..core.scanner import register_scanner  # noqa: E402


@register_scanner("traceroute")
def _build_traceroute(request, telemetry, resilience) -> TracerouteScanner:
    overrides = {}
    if request.rate is not None:
        # Classic traceroute has no global rate; the closest analogue is
        # the pacing gap between sequential probes.
        overrides["inter_probe_gap"] = 1.0 / request.rate
    if resilience is not None:
        # Classic traceroute re-probes each silent hop synchronously;
        # there is no cross-trace state worth checkpointing.
        overrides["retries"] = resilience.retries
    return TracerouteScanner(telemetry=telemetry, **overrides)
