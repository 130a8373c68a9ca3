"""Configuration of the simulated Internet.

Every behavioural knob the FlashRoute paper's evaluation depends on is a
field here, with defaults calibrated so that a generated topology shows the
same qualitative structure the paper measured on the real Internet from the
CWRU vantage point: tree-like routes with heavy sharing near the source,
route lengths centred in the mid-teens, sparse destination responsiveness,
spatially correlated hop distances, load-balancer diamonds, silent stretches,
TTL-normalizing middleboxes, and an ICMP rate limit of 500 responses per
second per interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..net.addr import ip_to_int
from .faults import FaultModel


@dataclass
class TopologyConfig:
    """Parameters of the synthetic routed topology.

    The scanned destination space is ``num_prefixes`` contiguous /24 blocks
    starting at ``base_prefix_addr`` (the paper scans all 2^24 /24s; we scan
    a scaled, contiguous slice and keep all algorithms identical).
    """

    #: Number of /24 destination prefixes in the scanned space.
    num_prefixes: int = 4096

    #: First address of the scanned space; must be /24-aligned.
    base_prefix_addr: int = field(default_factory=lambda: ip_to_int("20.0.0.0"))

    #: Seed for the topology generator; everything downstream is
    #: deterministic in this seed.
    seed: int = 20201027  # IMC '20 started Oct 27 2020

    #: Address family the topology is probed in: 32 (IPv4), or 128 for
    #: the IPv6 address plan over the same routed structure (each stub a
    #: /48 site, each of its /24 blocks a sparsely numbered /64; see
    #: ``docs/simulator.md``).
    address_bits: int = 32

    # ------------------------------------------------------------------ #
    # Stub networks
    # ------------------------------------------------------------------ #

    #: Distribution of stub block sizes in /24 units: (size, weight) pairs.
    #: Models stub networks advertising /24 .. /16 blocks; adjacent /24s in
    #: one block share their transit path, which is what makes proximity-span
    #: distance prediction work (paper §3.3.3).
    stub_block_sizes: Tuple[Tuple[int, int], ...] = (
        (1, 12), (2, 12), (4, 16), (8, 18), (16, 16), (32, 12), (64, 8),
        (128, 4), (256, 2),
    )

    #: Host activity is clustered at the stub level (whole networks are
    #: responsive or dark, which is also why measured preprobe distances
    #: cluster in the address space): a stub is "active" with the first
    #: probability; within an active stub each /24 holds active hosts with
    #: the second.  The marginal per-prefix rate is their product (~0.27).
    stub_active_probability: float = 0.32
    prefix_active_within_active_stub: float = 0.85

    #: Given an active prefix, density of active host octets (expected
    #: fraction of the 254 usable addresses that answer UDP:33434).
    host_density: float = 0.135

    #: Per-*stub* distribution of internal (intra-stub) hops behind the
    #: gateway: (hop_count, weight).  All /24s of a stub share this depth —
    #: that uniformity is what makes proximity-span prediction accurate
    #: (Fig. 4) — up to a small per-prefix jitter.
    internal_hops: Tuple[Tuple[int, int], ...] = (
        (0, 14), (1, 18), (2, 22), (3, 18), (4, 14), (5, 9), (6, 5),
    )

    #: Probability that one /24 deviates by +-1 hop from its stub's
    #: interior depth.
    internal_hop_jitter: float = 0.22

    #: Probability that a /24 with interior hops is split across two
    #: last-hop routers (lower/upper host halves).  Two representatives of
    #: the same prefix then see different final hops — the source of the
    #: near-destination divergence in Fig. 8.
    alt_last_hop_probability: float = 0.65

    #: Fraction of stubs whose internal routers never answer (firewalled
    #: interior); creates the "silent tail" routes that make GapLimit matter.
    dark_interior_probability: float = 0.12

    #: Responsiveness of internal (intra-stub) routers in non-dark stubs.
    internal_responsiveness: float = 0.82

    #: Fraction of prefixes holding hosts that answer pings but not UDP
    #: high ports (hitlist candidates invisible to preprobing).
    ping_only_prefix_probability: float = 0.30

    #: Given an active prefix without an in-prefix appliance, probability
    #: that the hitlist's most-ping-responsive pick is also a UDP responder.
    hitlist_prefers_udp_responder: float = 0.30

    #: Probability that a gateway/internal appliance answers UDP:33434
    #: aimed *at itself* with port-unreachable (appliances typically respond
    #: to pings and generate TTL-exceeded but firewall their own UDP high
    #: ports).  Keeps directly measured preprobe distances from being
    #: dominated by uniformly spread gateways.
    appliance_udp_unreachable: float = 0.20

    #: Fraction of stubs that forward packets for unassigned addresses along
    #: a default route back to the ISP, creating a forwarding loop
    #: (paper §5.1 measures 1.7 % of such routes containing loops).
    default_route_loop_probability: float = 0.02

    #: Fraction of stubs fronted by a TTL-normalizing middlebox
    #: (paper §3.3.2, Fig. 3: ~3.3 % of one-probe distance measurements are
    #: off by more than one hop).
    ttl_reset_middlebox_probability: float = 0.033

    #: TTL value such middleboxes raise low incoming TTLs to.
    ttl_reset_value: int = 30

    #: Fraction of stubs fronted by a destination-rewriting middlebox
    #: (paper §5.3 observes 0.007–0.054 % of responses with a mismatched
    #: quoted destination).
    rewrite_middlebox_probability: float = 0.012

    #: Fraction of stubs that answer unassigned addresses with ICMP
    #: host-unreachable from the gateway instead of silence.
    host_unreachable_probability: float = 0.05

    #: Probability that an active host answers a TCP-ACK probe with a RST
    #: (lower than UDP responsiveness; UDP probing discovers more, §4.2.1).
    host_tcp_rst: float = 0.75

    #: Fraction of destinations whose route length flaps by one hop over
    #: time (route dynamicity; the paper attributes most ±1-hop distance
    #: discrepancies to it, Fig. 3).
    route_flap_probability: float = 0.14

    # ------------------------------------------------------------------ #
    # Core / transit tree
    # ------------------------------------------------------------------ #

    #: Target depth (TTL of the stub gateway) distribution: (depth, weight).
    #: Centred in the mid-teens with a tail beyond 20, matching typical
    #: vantage-point distance distributions; the tail is what differentiates
    #: split-TTL 16 from 32.
    gateway_depth_weights: Tuple[Tuple[int, int], ...] = (
        (8, 1), (9, 2), (10, 3), (11, 5), (12, 7), (13, 9), (14, 11),
        (15, 12), (16, 11), (17, 10), (18, 9), (19, 8), (20, 7), (21, 6),
        (22, 5), (23, 4), (24, 3), (25, 2), (26, 2), (27, 1), (28, 1),
        (30, 1),
    )

    #: Probability of branching to a brand-new child while walking the core
    #: tree at depth ``d`` is ``min(1, branch_base + (d / branch_depth_scale)
    #: ** branch_exponent)``: tiny near the root (heavy path sharing, the
    #: Doubletree premise), exploding toward the edge, where most *unique*
    #: interfaces therefore live — which is what makes Yarrp-16's fill mode
    #: lose a large share of them (§4.2.1).
    branch_base: float = 0.02
    branch_depth_scale: float = 22.0
    branch_exponent: float = 3.0

    #: Fraction of core routers that answer UDP probes with TTL-exceeded.
    core_udp_responsiveness: float = 0.88

    #: Routers within this many hops of the vantage point respond at the
    #: higher near-core rate and never sit in silent tunnels: the campus /
    #: regional first hops answer reliably, and at small simulation scales a
    #: single silent funnel node would otherwise distort every backward
    #: probing comparison.
    near_core_depth: int = 6
    near_core_responsiveness: float = 0.97

    #: Transit routers at or beyond this depth respond at the lower rate:
    #: metro/last-mile segments are markedly less responsive than the core.
    #: This is the main reason Yarrp-16's fill mode (inherent gap limit 1)
    #: loses so many of the deep interfaces that FlashRoute's GapLimit-5
    #: forward probing still reaches.
    deep_responsiveness_knee: int = 14
    deep_udp_responsiveness: float = 0.60

    #: Additional fraction of the UDP-responsive routers that ignore TCP
    #: probes (UDP discovers more interfaces, paper §4.2.1 / [16]).
    tcp_silent_extra: float = 0.035

    #: Probability that a newly created transit router starts an MPLS-like
    #: silent tunnel, and the tunnel length distribution.  Correlated silent
    #: runs are what give the GapLimit curve (Fig. 6) its knee at 5.
    silent_run_probability: float = 0.105
    silent_run_lengths: Tuple[Tuple[int, int], ...] = (
        (1, 28), (2, 26), (3, 20), (4, 13), (5, 8), (6, 4), (8, 1),
    )

    #: Fraction of transit routers that are per-flow load balancers, and the
    #: number of parallel branches in each diamond.
    load_balancer_probability: float = 0.09
    load_balancer_branches: Tuple[Tuple[int, int], ...] = ((2, 60), (3, 30), (4, 10))

    #: Diamonds span several hops (MDA studies find multi-level diamonds
    #: common); distribution of the diamond depth in hops.
    load_balancer_depths: Tuple[Tuple[int, int], ...] = ((1, 40), (2, 35), (3, 25))

    #: First address of the infrastructure (router interface) space; kept
    #: disjoint from the scanned destination space.
    infrastructure_base_addr: int = field(
        default_factory=lambda: ip_to_int("60.0.0.0"))

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    #: ICMP responses allowed per interface per one-second bin
    #: (paper §4.2.2, upper bound from [19]).
    icmp_rate_limit: int = 500

    #: One-way per-hop latency in seconds, and jitter span.
    hop_latency: float = 0.002
    latency_jitter: float = 0.004

    #: Seconds per route-dynamics epoch (flappy routes change length when
    #: the epoch counter changes parity).  Long enough that most routes are
    #: stable within one scan — churn acts mainly *between* measurement
    #: passes, as in the paper's Fig. 3 comparison.
    flap_epoch_seconds: float = 1800.0

    #: Injected faults (probe/response loss, reordering, duplicates,
    #: blackouts); the default model injects nothing.  Seeded independently
    #: of the topology seed so one topology can be scanned under many fault
    #: draws.  A :class:`~repro.simnet.network.SimulatedNetwork` can also
    #: override this per-instance via its ``faults=`` argument.
    faults: FaultModel = field(default_factory=FaultModel)

    def __post_init__(self) -> None:
        if self.num_prefixes <= 0:
            raise ValueError("num_prefixes must be positive")
        if self.base_prefix_addr & 0xFF:
            raise ValueError("base_prefix_addr must be /24-aligned")
        if self.base_prefix_addr // 256 + self.num_prefixes > 2**24:
            raise ValueError("scanned space extends past the IPv4 space")
        overlap_start = self.infrastructure_base_addr
        scan_end = self.base_prefix_addr + self.num_prefixes * 256
        if self.base_prefix_addr <= overlap_start < scan_end:
            raise ValueError("infrastructure space overlaps the scanned space")
        if self.address_bits not in (32, 128):
            raise ValueError("address_bits must be 32 or 128")
        if not 0 < self.icmp_rate_limit:
            raise ValueError("icmp_rate_limit must be positive")


def weighted_choice(rng, pairs: Tuple[Tuple[int, int], ...]) -> int:
    """Draw from a ``(value, weight)`` table using ``rng``."""
    total = sum(weight for _value, weight in pairs)
    point = rng.random() * total
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if point < acc:
            return value
    return pairs[-1][0]


def scaled_probing_rate(num_prefixes: int, paper_rate: float = 100_000.0,
                        paper_prefixes: int = 2**24) -> float:
    """Scale the paper's probing rate to a smaller scanned space.

    The paper probes 100 Kpps against ~2^24 /24s; virtual scan *times* keep
    the paper's ratios when the rate shrinks with the address space.  A floor
    keeps round pacing from degenerating on tiny test topologies.
    """
    rate = paper_rate * num_prefixes / paper_prefixes
    return max(rate, 1.0)


#: Named scenario presets used by the experiment drivers.
SCENARIOS: Dict[str, TopologyConfig] = {
    "tiny": TopologyConfig(num_prefixes=256, seed=7),
    "small": TopologyConfig(num_prefixes=1024, seed=11),
    "default": TopologyConfig(num_prefixes=4096, seed=20201027),
    "bench": TopologyConfig(num_prefixes=8192, seed=20201027),
}
