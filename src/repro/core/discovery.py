"""Discovery-optimized mode (paper §5.2).

A normal FlashRoute-32 scan builds a stop set containing the majority of
discovered interfaces.  The mode then runs a configurable number of *extra*
scans, backward probing only, each starting from a random TTL in [1, 32]
per destination and using source port ``P + i`` (``P`` being the
checksum-derived base port) so per-flow load balancers route the probes
through alternative diamond branches.  Extra scans share the stop set, so
they only explore previously unseen route sections and finish quickly.

The paper's §5.4 sketches a refinement — pick the random starting TTL near
the route length measured by the main scan instead of uniformly in [1, 32]
("length-guided" here); both policies are implemented and compared by the
``test_ablation_discovery_start`` benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from ..simnet.network import SimulatedNetwork
from .config import FlashRouteConfig, PreprobeMode
from .prober import FlashRoute
from .results import ScanResult, union_interfaces


@dataclass
class DiscoveryOptimizedResult:
    """The main scan, the extra scans, and the combined discovery."""

    main: ScanResult
    extras: List[ScanResult] = field(default_factory=list)

    def all_scans(self) -> List[ScanResult]:
        return [self.main] + self.extras

    def interfaces(self) -> frozenset:
        return union_interfaces(self.all_scans())

    def total_probes(self) -> int:
        return sum(result.probes_sent for result in self.all_scans())

    def total_duration(self) -> float:
        return sum(result.duration for result in self.all_scans())

    def summary(self) -> str:
        return (f"discovery-optimized: interfaces={len(self.interfaces()):,} "
                f"probes={self.total_probes():,} "
                f"scans=1+{len(self.extras)}")


def _random_start_ttls(targets: Dict[int, int], rng: random.Random,
                       max_ttl: int) -> Dict[int, int]:
    """Uniform random starting TTL in [1, max_ttl] per destination."""
    return {prefix: rng.randint(1, max_ttl) for prefix in targets}


def _length_guided_start_ttls(targets: Dict[int, int], main: ScanResult,
                              rng: random.Random, max_ttl: int,
                              slack: int = 5) -> Dict[int, int]:
    """Starting TTL in [1, route_length + slack], per §5.4's proposal."""
    start: Dict[int, int] = {}
    lengths = main.route_lengths()
    for prefix in targets:
        length = lengths.get(prefix)
        upper = min(length + slack, max_ttl) if length is not None else max_ttl
        start[prefix] = rng.randint(1, max(upper, 1))
    return start


def run_discovery_optimized(network: SimulatedNetwork,
                            config: Optional[FlashRouteConfig] = None,
                            extra_scans: int = 3,
                            targets: Optional[Dict[int, int]] = None,
                            length_guided: bool = False,
                            vary_destination: bool = False,
                            seed: int = 5) -> DiscoveryOptimizedResult:
    """Run a FlashRoute-32 scan plus ``extra_scans`` port-varied extra scans.

    Returns the individual scan results; the combined interface set is the
    mode's discovery output.  ``length_guided`` switches the starting-TTL
    policy to the paper's future-work heuristic; ``vary_destination``
    enables the paper's other §5.4 proposal — each extra scan traces a
    *different* random address within every block, hunting distinct
    internal paths rather than (only) load-balanced alternatives.
    """
    if extra_scans < 0:
        raise ValueError("extra_scans must be non-negative")
    base = config if config is not None else FlashRouteConfig.flashroute_32()
    stop_set: Set[int] = set()
    rng = random.Random(seed)

    main = FlashRoute(base).scan(network, targets=targets, stop_set=stop_set,
                                 tool_name="FlashRoute-32 (main)")
    if targets is None:
        targets = dict(main.targets)

    extras: List[ScanResult] = []
    for index in range(1, extra_scans + 1):
        if vary_destination:
            from .targets import random_targets

            extra_targets = random_targets(network.topology,
                                           seed=seed * 7919 + index,
                                           granularity=base.granularity)
        else:
            extra_targets = targets
        if length_guided:
            start_ttls = _length_guided_start_ttls(extra_targets, main, rng,
                                                   base.max_ttl)
        else:
            start_ttls = _random_start_ttls(extra_targets, rng, base.max_ttl)
        extra_config = replace(base,
                               preprobe=PreprobeMode.NONE,
                               gap_limit=0,  # backward probing only
                               scan_offset=index,
                               seed=base.seed + index)
        extra = FlashRoute(extra_config).scan(
            network, targets=extra_targets, stop_set=stop_set,
            start_ttls=start_ttls, tool_name=f"extra-scan-{index}")
        extras.append(extra)
    return DiscoveryOptimizedResult(main=main, extras=extras)
