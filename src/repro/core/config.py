"""FlashRoute configuration.

Field names follow the paper's terminology: *split TTL* (§3.2), *GapLimit*
(§3.2), *preprobing* mode and *proximity span* (§3.3), *redundancy removal*
(§4.1.1).  The named constructors at the bottom give the exact
configurations evaluated in the paper's tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional


class PreprobeMode(enum.Enum):
    """Where preprobing targets come from (paper §4.1.3)."""

    NONE = "none"
    #: Preprobe the same randomly drawn per-/24 representative the main
    #: phase will trace; enables the fold-into-first-round optimization
    #: when the default split TTL is 32 (§3.3.5).
    RANDOM = "random"
    #: Preprobe the ISI-hitlist address of each /24 but trace a random
    #: representative, avoiding the hitlist bias in discovered topology
    #: (§4.1.3, §5.1).
    HITLIST = "hitlist"


@dataclass
class FlashRouteConfig:
    """All knobs of a FlashRoute scan."""

    #: Default split TTL: where backward+forward exploration starts when no
    #: measured/predicted distance is available.
    split_ttl: int = 16

    #: Forward probing stops after this many consecutive silent hops.
    gap_limit: int = 5

    #: Maximum TTL ever probed (Yarrp's bound; very few paths exceed it).
    max_ttl: int = 32

    #: Preprobing mode.
    preprobe: PreprobeMode = PreprobeMode.HITLIST

    #: Measured distances predict the distances of this many /24 blocks on
    #: each side (§3.3.3).
    proximity_span: int = 5

    #: Terminate backward probing at previously discovered interfaces
    #: (Doubletree redundancy elimination; ablated in Table 1).
    redundancy_removal: bool = True

    #: Probes per second.  ``None`` scales the paper's 100 Kpps to the
    #: simulated prefix count (see ``repro.simnet.scaled_probing_rate``).
    probing_rate: Optional[float] = None

    #: Minimum duration of one probing round, seconds (§3.2).
    round_seconds: float = 1.0

    #: Seed for target selection and the DCB-ring permutation.
    seed: int = 1

    #: Source-port offset for discovery-optimized extra scans (§5.2).
    scan_offset: int = 0

    #: Scanning granularity in prefix bits: 24 traces one address per /24
    #: (the paper's default); up to 30 traces one per /30, the paper's
    #: §5.4 proposal for discovering distinct internal paths inside a /24
    #: at the cost of an exponentially larger control-state array.  64: one
    #: per IPv6 /64, over an IPv6 topology.
    granularity: int = 24

    #: Optional :class:`repro.core.resilience.ResilienceConfig` enabling
    #: probe retransmission, adaptive rate backoff and checkpoint/resume
    #: (see ``docs/robustness.md``).  ``None`` — or an inert config with
    #: the default knobs — keeps the scan byte-identical to the seed
    #: behaviour.  Typed loosely to keep this module import-light.
    resilience: Optional[object] = None

    def __post_init__(self) -> None:
        if not 1 <= self.split_ttl <= self.max_ttl:
            raise ValueError("split_ttl must be within [1, max_ttl]")
        if self.gap_limit < 0:
            raise ValueError("gap_limit must be non-negative")
        if not 1 <= self.max_ttl <= 32:
            raise ValueError("max_ttl must be within [1, 32] (5-bit encoding)")
        if self.proximity_span < 0:
            raise ValueError("proximity_span must be non-negative")
        if self.probing_rate is not None \
                and not 0 < self.probing_rate < math.inf:
            raise ValueError("probing_rate must be a positive finite number")
        if not 0 <= self.round_seconds < math.inf:
            raise ValueError(
                "round_seconds must be a non-negative finite number")
        if not (24 <= self.granularity <= 30 or self.granularity == 64):
            raise ValueError("granularity must be within [24, 30], or 64")
        if isinstance(self.preprobe, str):
            self.preprobe = PreprobeMode(self.preprobe)

    # ------------------------------------------------------------------ #
    # Paper configurations
    # ------------------------------------------------------------------ #

    @classmethod
    def flashroute_16(cls, **overrides) -> "FlashRouteConfig":
        """FlashRoute-16 (Table 3): split 16, gap 5, hitlist preprobing."""
        return replace(cls(split_ttl=16, preprobe=PreprobeMode.HITLIST),
                       **overrides)

    @classmethod
    def flashroute_32(cls, **overrides) -> "FlashRouteConfig":
        """FlashRoute-32 (Table 3): split 32, otherwise as FlashRoute-16."""
        return replace(cls(split_ttl=32, preprobe=PreprobeMode.HITLIST),
                       **overrides)

    @classmethod
    def flashroute_16_v6(cls, **overrides) -> "FlashRouteConfig":
        """FlashRoute-16 over IPv6 /64s with §5.4's differences: no proximity
        span, the seed list preprobed as it is traced, 1,000 pps."""
        return replace(cls(split_ttl=16, preprobe=PreprobeMode.RANDOM,
                           proximity_span=0, probing_rate=1000.0,
                           granularity=64), **overrides)

    @classmethod
    def yarrp32_udp_simulation(cls, **overrides) -> "FlashRouteConfig":
        """The paper's Yarrp-32-UDP simulation (§4.2.1): no preprobing, no
        forward probing, no convergence termination — one probe to every hop
        1..32 for every destination."""
        return replace(cls(split_ttl=32, gap_limit=0,
                           preprobe=PreprobeMode.NONE,
                           redundancy_removal=False), **overrides)
