"""Scamper baseline (Luckie, IMC 2010), as configured in the paper.

Scamper is CAIDA's long-running traceroute engine: Paris-UDP probes, the
Doubletree optimization, first-TTL 16, gap limit 5, max TTL 32, at most
10 Kpps, one probe per hop (retries disabled to match FlashRoute/Yarrp).

The paper found (Fig. 7) that Scamper's backward probing does not implement
textbook Doubletree: it "starts removing redundancy one hop later, and then
preserves a certain level of probing redundancy until the TTL reduces to 6",
where it plunges back to full redundancy elimination.  We model that
empirical behaviour directly with two constants:

* :data:`STOP_LAG`: after the first stop-set hit above the window, Scamper
  probes one more hop before terminating;
* :data:`NO_STOP_WINDOW`: a TTL interval, (6, 14], inside which stop-set
  hits do not terminate backward probing at all.

The net effect matches the paper's measurement: ~35 % more probes than
FlashRoute-16 and slightly more interfaces, found on the redundantly probed
middle hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..net.icmp import ResponseKind
from ..simnet.config import scaled_probing_rate
from ..simnet.network import SimulatedNetwork
from ..core.permutation import FeistelPermutation
from ..core.results import ScanResult
from ..core.runtime import ScanRuntime, destination_distance
from ..core.targets import random_targets

#: Empirical backward-probing quirks (see module docstring / Fig. 7).
STOP_LAG = 1
NO_STOP_WINDOW = (6, 14)


@dataclass
class ScamperConfig:
    """Scamper's trace options as used in the paper (§4.2.1)."""

    first_ttl: int = 16
    max_ttl: int = 32
    gap_limit: int = 5

    #: Scamper caps its probing rate at 10 Kpps; ``None`` scales that cap to
    #: the simulated prefix count.
    probing_rate: Optional[float] = None

    seed: int = 1

    #: Extra attempts per silent hop (real scamper's ``-q`` is attempts
    #: per hop; the paper runs it with retries disabled to match
    #: FlashRoute/Yarrp, which stays the default).  Each retry re-probes
    #: the same (dst, ttl) synchronously before the trace moves on.
    retries: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.first_ttl <= self.max_ttl <= 32:
            raise ValueError("need 1 <= first_ttl <= max_ttl <= 32")
        if self.gap_limit < 0:
            raise ValueError("gap_limit must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    @classmethod
    def scamper_16(cls, **overrides) -> "ScamperConfig":
        """Scamper-16 (Table 3): first TTL 16, gap 5, max 32."""
        return cls(**overrides)


class Scamper:
    """The Scamper model: per-destination Doubletree at a bounded rate.

    Probing is synchronous per destination (Scamper waits for a response or
    timeout before the next hop of a trace), but the virtual clock charges
    the global rate cap, which is what determines total scan time — at
    10 Kpps the inter-probe gap dwarfs any RTT.
    """

    def __init__(self, config: Optional[ScamperConfig] = None,
                 telemetry=None) -> None:
        self.config = config if config is not None else ScamperConfig()
        self.telemetry = telemetry

    def scan(self, network: SimulatedNetwork,
             targets: Optional[Dict[int, int]] = None,
             tool_name: str = "Scamper-16") -> ScanResult:
        config = self.config
        if targets is None:
            targets = random_targets(network.topology, config.seed)
        rt = ScanRuntime(
            network, tool_name, targets,
            config.probing_rate if config.probing_rate is not None
            else scaled_probing_rate(len(targets), paper_rate=10_000.0),
            telemetry=self.telemetry, retries=config.retries)
        stop_set: Set[int] = set()

        def trace_all() -> None:
            prefixes = sorted(targets)
            for position in FeistelPermutation(len(targets),
                                               config.seed ^ 0x5CA9):
                prefix = prefixes[position]
                self._trace_one(rt, targets[prefix], prefix, stop_set)
                rt.report_progress()

        return rt.run(trace_all)

    def _trace_one(self, rt: ScanRuntime, dst: int, prefix: int,
                   stop_set: Set[int]) -> None:
        """One destination's lagged-Doubletree walk.  Every hop is one
        ``probe_hop``: Scamper waits synchronously per hop, so a silent
        probe is re-sent in place (real scamper's ``-q`` attempts) before
        the trace decides the hop is silent."""
        config = self.config
        result = rt.result
        events = rt.events

        # Forward from the split point toward the target.
        silent_streak = 0
        reached = False
        ttl = config.first_ttl
        while ttl <= config.max_ttl and silent_streak < config.gap_limit:
            response = rt.probe_hop(dst, ttl, retry_event_first=True)
            if response is None:
                silent_streak += 1
            elif response.kind is ResponseKind.TTL_EXCEEDED:
                silent_streak = 0
                result.add_hop(prefix, ttl, response.responder)
                stop_set.add(response.responder)
            elif response.kind.is_unreachable:
                distance = destination_distance(response, dst, ttl)
                if distance is not None:
                    result.record_destination(prefix, distance)
                reached = True
                break
            ttl += 1
        if events is not None:
            if reached:
                events.stop_decision(rt.clock.now, prefix, "dest_reached",
                                     ttl)
            elif silent_streak >= config.gap_limit:
                events.stop_decision(rt.clock.now, prefix, "gap_limit",
                                     ttl - 1)
            else:
                events.stop_decision(rt.clock.now, prefix, "max_ttl",
                                     config.max_ttl)

        # Backward from the split point toward the vantage point, with
        # Scamper's empirically observed redundancy-elimination behaviour.
        low, high = NO_STOP_WINDOW
        lag_remaining: Optional[int] = None
        stopped_at: Optional[int] = None
        ttl = config.first_ttl - 1
        while ttl >= 1:
            if lag_remaining is not None:
                if lag_remaining == 0:
                    stopped_at = ttl
                    break
                lag_remaining -= 1
            response = rt.probe_hop(dst, ttl, retry_event_first=True)
            if response is not None:
                if response.kind is ResponseKind.TTL_EXCEEDED:
                    hit = response.responder in stop_set
                    result.add_hop(prefix, ttl, response.responder)
                    stop_set.add(response.responder)
                    if hit:
                        if ttl <= low:
                            stopped_at = ttl
                            break
                        if ttl > high and lag_remaining is None:
                            lag_remaining = STOP_LAG
                else:
                    distance = destination_distance(response, dst, ttl)
                    if distance is not None:
                        result.record_destination(prefix, distance)
            ttl -= 1
        if events is not None and config.first_ttl > 1:
            if stopped_at is not None:
                events.stop_decision(rt.clock.now, prefix, "stop_set",
                                     stopped_at)
            else:
                events.stop_decision(rt.clock.now, prefix, "ttl1", 1)


# --------------------------------------------------------------------- #
# Scanner registry entries (see repro.core.scanner)
# --------------------------------------------------------------------- #

from ..core.scanner import register_scanner  # noqa: E402


@register_scanner("scamper-16")
def _build_scamper_16(request, telemetry, resilience) -> Scamper:
    overrides = {"probing_rate": request.rate}
    if request.gap_limit is not None:
        overrides["gap_limit"] = request.gap_limit
    if request.split_ttl is not None:
        overrides["first_ttl"] = request.split_ttl
    if resilience is not None:
        # Scamper's synchronous model has no ring to checkpoint; it
        # honours the retry budget (real scamper's -q attempts).
        overrides["retries"] = resilience.retries
    return Scamper(ScamperConfig.scamper_16(**overrides),
                   telemetry=telemetry)
