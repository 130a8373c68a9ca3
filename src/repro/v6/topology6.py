"""Sparse IPv6 topology and probe oracle.

IPv6 scanning is target-list-driven: there is no enumerable /24-style
space, only seed addresses from hitlists, passive traces and DNS (Yarrp6's
approach, which the paper's §5.4 extension would follow).  The simulated
v6 Internet therefore consists of *sites* (each a /48, the common end-site
allocation) that announce a handful of sparsely numbered /64 subnets; the
"seed list" is one known address per announced subnet.

Routes reuse the IPv4 simulator's structure — a shared transit tree, a
site border router, a subnet router — with IPv6 addresses (128-bit ints)
throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..net.addr6 import addr_in_subnet64, ip6_to_int
from ..net.icmp import IcmpResponse, ResponseKind
from ..net.packets import PROTO_UDP, UDP_HEADER_LEN, ProbeHeader
from ..simnet.latency import LatencyModel
from ..simnet.ratelimit import IcmpRateLimiter

#: Documentation prefix for the simulated sites (2001:db8::/32).
SITE_SPACE_BASE = ip6_to_int("2001:db8::")
#: Infrastructure (router interface) space, disjoint from site space.
INFRA_SPACE_BASE = ip6_to_int("2001:db8:ffff::")

_FLOW_HASH_MULT = 2654435761


@dataclass
class TopologyConfig6:
    """Knobs of the simulated IPv6 Internet."""

    num_sites: int = 64
    seed: int = 2018  # Yarrp6's IMC year

    #: Announced /64 subnets per site: (count, weight).
    subnets_per_site: Tuple[Tuple[int, int], ...] = (
        (1, 30), (2, 30), (4, 25), (8, 12), (16, 3),
    )

    #: Border-router depth distribution (v6 paths skew slightly longer).
    border_depth_weights: Tuple[Tuple[int, int], ...] = (
        (8, 2), (10, 5), (12, 9), (14, 12), (16, 12), (18, 10), (20, 7),
        (22, 4), (24, 2), (26, 1),
    )

    #: Tree branching, as in the IPv4 generator.
    branch_base: float = 0.02
    branch_depth_scale: float = 22.0
    branch_exponent: float = 3.0

    router_responsiveness: float = 0.85
    #: Fraction of seed targets that answer UDP probes directly.
    target_responsiveness: float = 0.45

    icmp_rate_limit: int = 500
    hop_latency: float = 0.002
    latency_jitter: float = 0.004

    def __post_init__(self) -> None:
        if self.num_sites <= 0:
            raise ValueError("num_sites must be positive")


class _Node:
    __slots__ = ("iface", "depth", "children")

    def __init__(self, iface: int, depth: int) -> None:
        self.iface = iface
        self.depth = depth
        self.children: List["_Node"] = []


@dataclass
class Subnet6:
    """One announced /64: its router interface and the seed target."""

    __slots__ = ("subnet", "site_id", "router_iface", "target",
                 "target_responds")

    subnet: int
    site_id: int
    router_iface: int
    target: int
    target_responds: bool


@dataclass
class Site6:
    """A /48 end site: shared transit path plus a border router."""

    __slots__ = ("site_id", "prefix48", "transit", "border_iface",
                 "border_depth")

    site_id: int
    prefix48: int
    transit: Tuple[int, ...]
    border_iface: int
    border_depth: int


class Topology6:
    """The generated IPv6 ground truth."""

    #: The address family a scan over this topology probes (IPv6).
    address_bits = 128

    def __init__(self, config: TopologyConfig6) -> None:
        self.config = config
        self.iface_addrs: List[int] = []
        self.iface_depth: List[int] = []
        self.responsive = bytearray()
        self.sites: List[Site6] = []
        #: /64 subnet index -> Subnet6.
        self.subnets: Dict[int, Subnet6] = {}
        self.vantage_addr = INFRA_SPACE_BASE - 1
        self._next_infra = INFRA_SPACE_BASE
        self._generate(random.Random(config.seed))

    # ------------------------------------------------------------------ #

    def _new_iface(self, addr: int, depth: int, responds: bool) -> int:
        iface = len(self.iface_addrs)
        self.iface_addrs.append(addr)
        self.iface_depth.append(depth)
        self.responsive.append(1 if responds else 0)
        return iface

    def _new_infra_iface(self, depth: int, rng: random.Random,
                         always: bool = False) -> int:
        addr = self._next_infra
        self._next_infra += 1
        responds = always or rng.random() < self.config.router_responsiveness
        return self._new_iface(addr, depth, responds)

    def _branch_probability(self, depth: int) -> float:
        cfg = self.config
        return min(1.0, cfg.branch_base
                   + (depth / cfg.branch_depth_scale) ** cfg.branch_exponent)

    def _generate(self, rng: random.Random) -> None:
        from ..simnet.config import weighted_choice

        cfg = self.config
        root = _Node(self._new_infra_iface(1, rng, always=True), 1)

        for site_id in range(cfg.num_sites):
            border_depth = weighted_choice(rng, cfg.border_depth_weights)
            node = root
            tokens = [root.iface]
            for depth in range(2, border_depth):
                if not node.children or \
                        rng.random() < self._branch_probability(depth):
                    child = _Node(self._new_infra_iface(depth, rng), depth)
                    node.children.append(child)
                else:
                    child = rng.choice(node.children)
                tokens.append(child.iface)
                node = child

            prefix48 = SITE_SPACE_BASE + (site_id << 80)
            border_addr = prefix48 | 1
            border_iface = self._new_iface(
                border_addr, border_depth,
                rng.random() < cfg.router_responsiveness)
            site = Site6(site_id=site_id, prefix48=prefix48,
                         transit=tuple(tokens), border_iface=border_iface,
                         border_depth=border_depth)
            self.sites.append(site)

            # Sparse subnet numbering: the announced /64s sit at scattered
            # 16-bit subnet ids, not 0..k — the sparsity [20] that rules
            # out array-indexed control state.
            count = weighted_choice(rng, cfg.subnets_per_site)
            subnet_ids = rng.sample(range(1, 0xFFFF), count)
            for subnet_id in subnet_ids:
                subnet_prefix = (prefix48 | (subnet_id << 64)) >> 64
                router_addr = addr_in_subnet64(subnet_prefix, 1)
                router_iface = self._new_iface(
                    router_addr, border_depth + 1,
                    rng.random() < cfg.router_responsiveness)
                # The seed target: a stable address in the subnet (what a
                # hitlist/trace would have revealed).
                target = addr_in_subnet64(subnet_prefix,
                                          rng.getrandbits(64) | 0x1)
                self.subnets[subnet_prefix] = Subnet6(
                    subnet=subnet_prefix, site_id=site_id,
                    router_iface=router_iface, target=target,
                    target_responds=(rng.random()
                                     < cfg.target_responsiveness))

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #

    def seed_targets(self) -> Dict[int, int]:
        """/64 subnet index -> the seed target address (the 'hitlist')."""
        return {subnet: record.target
                for subnet, record in self.subnets.items()}

    def destination_distance(self, dst: int) -> Optional[int]:
        record = self.subnets.get(dst >> 64)
        if record is None or not record.target_responds:
            return None
        if dst != record.target:
            return None
        return self.sites[record.site_id].border_depth + 2

    def hop_iface_at(self, dst: int, ttl: int) -> Optional[int]:
        """Interface id at ``ttl`` toward ``dst``; None when off-route or
        at/beyond the destination."""
        record = self.subnets.get(dst >> 64)
        if record is None or ttl < 1:
            return None
        site = self.sites[record.site_id]
        if ttl < site.border_depth:
            transit = site.transit
            return transit[ttl - 1] if ttl <= len(transit) else None
        if ttl == site.border_depth:
            return site.border_iface
        if ttl == site.border_depth + 1:
            return record.router_iface
        return None

    def reachable_interfaces(self) -> set:
        found = set()
        for site in self.sites:
            for iface in site.transit:
                if self.responsive[iface]:
                    found.add(iface)
            if self.responsive[site.border_iface]:
                found.add(site.border_iface)
        for record in self.subnets.values():
            if self.responsive[record.router_iface]:
                found.add(record.router_iface)
        return found


class SimulatedNetwork6:
    """Probe oracle over a :class:`Topology6`, with the IPv4 network's
    probe and response types.

    IPv6 has no identification field, so the §3.1 marking word rides the
    first two bytes of the UDP payload, which an ICMPv6 error quotes back
    whole.  The quotation returns it in the ``ipid`` slot of the quoted
    :class:`~repro.net.packets.ProbeHeader`, so the receive path reads one
    marking for both families."""

    def __init__(self, topology: Topology6,
                 rate_limit: Optional[int] = None) -> None:
        self.topology = topology
        cfg = topology.config
        self.latency = LatencyModel(cfg.hop_latency, cfg.latency_jitter)
        self.rate_limiter = IcmpRateLimiter(
            rate_limit if rate_limit is not None else cfg.icmp_rate_limit,
            num_interfaces=len(topology.iface_addrs))
        self.probes_sent = 0
        self.responses_generated = 0

    def send_probes(self, probes: Iterable[tuple], dst_port: int = 33434,
                    proto: int = PROTO_UDP, flow: Optional[int] = None
                    ) -> List[Optional[IcmpResponse]]:
        """One response slot per ``(dst, hop_limit, send_time, src_port,
        ipid, udp_length)`` probe: the IPv4 network's batch contract.
        Routes come from a flat per-site structure, so a burst only
        amortizes the call."""
        send_one = self.send_probe
        return [send_one(*probe) for probe in probes]

    def send_probe(self, dst: int, hop_limit: int, send_time: float,
                   src_port: int, ipid: int = 0,
                   udp_length: int = UDP_HEADER_LEN,
                   single: bool = False) -> Optional[IcmpResponse]:
        """One probe (``single``, the IPv4 route cache's hint, has no
        cache to spare here)."""
        self.probes_sent += 1
        topo = self.topology
        record = topo.subnets.get(dst >> 64)
        if record is None:
            return None
        site = topo.sites[record.site_id]
        dest_depth = site.border_depth + 2
        jitter_key = dst & 0xFFFFFFFF

        if hop_limit < dest_depth:
            iface = topo.hop_iface_at(dst, hop_limit)
            if iface is None or not topo.responsive[iface]:
                return None
            arrival = send_time + self.latency.one_way(hop_limit, jitter_key,
                                                       hop_limit)
            if not self.rate_limiter.allow(iface, arrival):
                return None
            responder, residual, depth = topo.iface_addrs[iface], 1, hop_limit
            kind = ResponseKind.TTL_EXCEEDED
        elif dst == record.target and record.target_responds:
            responder, residual = dst, hop_limit - dest_depth + 1
            depth = dest_depth
            kind = ResponseKind.PORT_UNREACHABLE
        else:
            return None
        self.responses_generated += 1
        quoted = ProbeHeader(src=topo.vantage_addr, dst=dst, ttl=residual,
                             ipid=ipid, src_port=src_port,
                             udp_length=udp_length)
        return IcmpResponse(
            kind=kind, responder=responder, quoted=quoted,
            arrival_time=send_time + self.latency.round_trip(
                depth, jitter_key, hop_limit),
            quoted_residual_ttl=residual)
