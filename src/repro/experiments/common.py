"""Shared scaffolding for the experiment drivers.

Every experiment runs against a seeded topology sized by the
``REPRO_BENCH_PREFIXES`` environment variable (default 4096) so the whole
benchmark suite can be scaled up or down without touching code.  Targets
are drawn once per topology (seed 1) so every tool traces the same
representatives, as in the paper's methodology.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

from ..core.targets import hitlist_targets, random_targets
from ..simnet.config import TopologyConfig
from ..simnet.faults import FaultModel
from ..simnet.network import SimulatedNetwork
from ..simnet.topology import Topology

#: The paper's probing rates.
PAPER_FLASHROUTE_RATE = 100_000.0
PAPER_SCAMPER_RATE = 10_000.0
PAPER_RATE_LIMIT = 500

DEFAULT_BENCH_PREFIXES = 4096
_ENV_PREFIXES = "REPRO_BENCH_PREFIXES"
_ENV_SEED = "REPRO_BENCH_SEED"


def bench_prefix_count() -> int:
    """Scanned-space size for benchmarks, from the environment."""
    value = os.environ.get(_ENV_PREFIXES)
    if value is None:
        return DEFAULT_BENCH_PREFIXES
    count = int(value)
    if count <= 0:
        raise ValueError(f"{_ENV_PREFIXES} must be positive, got {value!r}")
    return count


def bench_seed() -> int:
    return int(os.environ.get(_ENV_SEED, "20201027"))


@lru_cache(maxsize=4)
def _cached_topology(num_prefixes: int, seed: int) -> Topology:
    return Topology(TopologyConfig(num_prefixes=num_prefixes, seed=seed))


def bench_topology(num_prefixes: Optional[int] = None,
                   seed: Optional[int] = None) -> Topology:
    """The (cached) benchmark topology; one instance per size+seed."""
    return _cached_topology(
        num_prefixes if num_prefixes is not None else bench_prefix_count(),
        seed if seed is not None else bench_seed())


@dataclass
class ExperimentContext:
    """A topology plus the shared target draws every tool traces."""

    topology: Topology
    target_seed: int = 1
    random_targets: Dict[int, int] = field(default_factory=dict)
    hitlist: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.random_targets:
            self.random_targets = random_targets(self.topology,
                                                 self.target_seed)
        if not self.hitlist:
            self.hitlist = hitlist_targets(self.topology)

    def network(self, log_probes: bool = False,
                rate_limit: Optional[int] = None,
                faults: Optional[FaultModel] = None) -> SimulatedNetwork:
        """A fresh per-scan network (clean rate-limit bins and counters)."""
        return SimulatedNetwork(self.topology, log_probes=log_probes,
                                rate_limit=rate_limit, faults=faults)

    @classmethod
    def for_bench(cls, num_prefixes: Optional[int] = None) -> "ExperimentContext":
        return cls(topology=bench_topology(num_prefixes))
