"""The object-form topology: the generator as it stood before columns.

For every /24 it builds a :class:`PrefixRecord` holding a tuple of interior
interface ids, two frozensets of host octets and a dict of in-prefix router
interfaces, plus an ``addr_to_iface`` dict over every interface.  That form
costs ~1.8 KB per /24, but each query reads like its specification, so it is
kept here as the reference :mod:`repro.simnet.topology` is compared against
(``tests/test_topology_oracle.py``): same config, same RNG draws, so every
column, view and ground-truth answer must match.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.addr import prefix24_base
from repro.simnet.config import TopologyConfig, weighted_choice
from repro.simnet.entities import (
    VOID_HOP,
    HopKind,
    HopResult,
    Stub,
    lb_group_id,
    lb_offset,
    lb_token,
)

_FLOW_HASH_MULT = 2654435761
_GROUP_HASH_MULT = 40503


class PrefixRecord:
    """Per-/24 state as objects: stub, interior chain, hosts, specials."""

    __slots__ = ("stub_id", "internal_ifaces", "active_hosts", "ping_hosts",
                 "special_hosts", "flap", "hitlist_host", "alt_last_hop")

    def __init__(self, stub_id: int, internal_ifaces: Tuple[int, ...],
                 active_hosts: FrozenSet[int], ping_hosts: FrozenSet[int],
                 special_hosts: Dict[int, int], flap: bool,
                 alt_last_hop: int) -> None:
        self.stub_id = stub_id
        self.internal_ifaces = internal_ifaces
        self.active_hosts = active_hosts
        self.ping_hosts = ping_hosts
        self.special_hosts = special_hosts
        self.flap = flap
        self.hitlist_host = 0
        self.alt_last_hop = alt_last_hop


class _TreeNode:
    __slots__ = ("token", "depth", "children")

    def __init__(self, token: int, depth: int) -> None:
        self.token = token
        self.depth = depth
        self.children: List["_TreeNode"] = []


class OracleTopology:
    """The object-form generator and its ground-truth queries."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.base_prefix = config.base_prefix_addr >> 8
        self.num_prefixes = config.num_prefixes
        self.vantage_addr = config.infrastructure_base_addr - 1
        self.iface_addrs: List[int] = []
        self.iface_depth: List[int] = []
        self.udp_resp = bytearray()
        self.tcp_resp = bytearray()
        self.dest_resp = bytearray()
        self.lb_groups: List[Tuple[Tuple[int, ...], ...]] = []
        self.stubs: List[Stub] = []
        self.prefixes: List[PrefixRecord] = []
        self.addr_to_iface: Dict[int, int] = {}
        self._next_infra_addr = config.infrastructure_base_addr
        self._generate(random.Random(config.seed))

    # -- generation ---------------------------------------------------- #

    def _new_iface(self, addr: int, depth: int, udp: bool, tcp: bool,
                   dest: Optional[bool] = None) -> int:
        iface = len(self.iface_addrs)
        self.iface_addrs.append(addr)
        self.iface_depth.append(depth)
        self.udp_resp.append(1 if udp else 0)
        self.tcp_resp.append(1 if tcp else 0)
        self.dest_resp.append(1 if (udp if dest is None else dest) else 0)
        self.addr_to_iface[addr] = iface
        return iface

    def _new_infra_iface(self, depth: int, udp: bool, tcp: bool) -> int:
        addr = self._next_infra_addr
        self._next_infra_addr += 1
        return self._new_iface(addr, depth, udp, tcp)

    def _draw_responsiveness(self, rng: random.Random, silent: bool,
                             depth: int = 1) -> Tuple[bool, bool]:
        if silent:
            return False, False
        cfg = self.config
        if depth <= cfg.near_core_depth:
            rate = cfg.near_core_responsiveness
        elif depth >= cfg.deep_responsiveness_knee:
            rate = cfg.deep_udp_responsiveness
        else:
            rate = cfg.core_udp_responsiveness
        udp = rng.random() < rate
        tcp = udp and rng.random() >= cfg.tcp_silent_extra
        return udp, tcp

    def _new_transit_node(self, depth: int, rng: random.Random,
                          silent_run: List[int]) -> _TreeNode:
        cfg = self.config
        if depth <= cfg.near_core_depth:
            silent = False
        elif silent_run[0] > 0:
            silent_run[0] -= 1
            silent = True
        elif rng.random() < cfg.silent_run_probability:
            silent_run[0] = weighted_choice(rng, cfg.silent_run_lengths) - 1
            silent = True
        else:
            silent = False
        udp, tcp = self._draw_responsiveness(rng, silent, depth)
        return _TreeNode(self._new_infra_iface(depth, udp, tcp), depth)

    def _new_diamond(self, depth: int, levels: int,
                     rng: random.Random) -> List[_TreeNode]:
        cfg = self.config
        branch_count = weighted_choice(rng, cfg.load_balancer_branches)
        branches = []
        for _branch in range(branch_count):
            ifaces = []
            for level in range(levels):
                udp, tcp = self._draw_responsiveness(rng, False, depth + level)
                ifaces.append(self._new_infra_iface(depth + level, udp, tcp))
            branches.append(tuple(ifaces))
        group_id = len(self.lb_groups)
        self.lb_groups.append(tuple(branches))
        return [_TreeNode(lb_token(group_id, level), depth + level)
                for level in range(levels)]

    def _branch_probability(self, depth: int) -> float:
        cfg = self.config
        grown = (depth / cfg.branch_depth_scale) ** cfg.branch_exponent
        return min(1.0, cfg.branch_base + grown)

    def _walk_transit(self, root: _TreeNode, gateway_depth: int,
                      rng: random.Random) -> Tuple[int, ...]:
        tokens = [root.token]
        node = root
        silent_run = [0]
        depth = 2
        while depth < gateway_depth:
            if not node.children or rng.random() < self._branch_probability(depth):
                remaining = gateway_depth - depth
                if (remaining >= 1 and depth > self.config.near_core_depth
                        and rng.random() < self.config.load_balancer_probability):
                    levels = min(
                        weighted_choice(rng, self.config.load_balancer_depths),
                        remaining)
                    chain = self._new_diamond(depth, levels, rng)
                    node.children.append(chain[0])
                    for upper, lower in zip(chain, chain[1:]):
                        upper.children.append(lower)
                    for link in chain:
                        tokens.append(link.token)
                    node = chain[-1]
                    depth += levels
                    continue
                child = self._new_transit_node(depth, rng, silent_run)
                node.children.append(child)
            else:
                child = rng.choice(node.children)
                silent_run[0] = 0
            tokens.append(child.token)
            node = child
            depth += 1
        return tuple(tokens)

    def _sample_active_hosts(self, rng: random.Random,
                             forbidden: Set[int]) -> FrozenSet[int]:
        cfg = self.config
        usable = 254
        mean = usable * cfg.host_density
        sigma = max(1.0, mean ** 0.5)
        count = int(rng.gauss(mean, sigma) + 0.5)
        count = max(1, min(count, usable - len(forbidden) - 4))
        pool = [octet for octet in range(2, 250) if octet not in forbidden]
        return frozenset(rng.sample(pool, min(count, len(pool))))

    def _generate(self, rng: random.Random) -> None:
        cfg = self.config
        root = _TreeNode(self._new_infra_iface(1, True, True), 1)
        offset = 0
        while offset < self.num_prefixes:
            block = weighted_choice(rng, cfg.stub_block_sizes)
            block = min(block, self.num_prefixes - offset)
            gateway_depth = max(3, weighted_choice(rng, cfg.gateway_depth_weights))
            transit = self._walk_transit(root, gateway_depth, rng)

            first_prefix = self.base_prefix + offset
            gateway_addr = prefix24_base(first_prefix) | 0x01
            gw_udp = rng.random() < cfg.core_udp_responsiveness
            gw_tcp = gw_udp and rng.random() >= cfg.tcp_silent_extra
            gw_dest = gw_udp and rng.random() < cfg.appliance_udp_unreachable
            gateway_iface = self._new_iface(gateway_addr, gateway_depth,
                                            gw_udp, gw_tcp, dest=gw_dest)
            stub = Stub(
                stub_id=len(self.stubs),
                first_offset=offset,
                block_size=block,
                transit=transit,
                gateway_iface=gateway_iface,
                gateway_depth=gateway_depth,
                dark_interior=rng.random() < cfg.dark_interior_probability,
                loop_unassigned=rng.random() < cfg.default_route_loop_probability,
                ttl_reset=rng.random() < cfg.ttl_reset_middlebox_probability,
                rewrite=rng.random() < cfg.rewrite_middlebox_probability,
                host_unreachable=rng.random() < cfg.host_unreachable_probability,
            )
            self.stubs.append(stub)
            stub_active = rng.random() < cfg.stub_active_probability
            stub_hops = weighted_choice(rng, cfg.internal_hops)

            for local in range(block):
                prefix_base = prefix24_base(first_prefix + local)
                special: Dict[int, int] = {}
                if local == 0:
                    special[0x01] = gateway_iface
                hop_count = stub_hops
                jitter = rng.random()
                if jitter < cfg.internal_hop_jitter / 2:
                    hop_count = max(0, hop_count - 1)
                elif jitter < cfg.internal_hop_jitter:
                    hop_count += 1
                internals: List[int] = []
                for j in range(hop_count):
                    octet = 254 - j
                    udp = (not stub.dark_interior
                           and rng.random() < cfg.internal_responsiveness)
                    tcp = udp and rng.random() >= cfg.tcp_silent_extra
                    dest = udp and rng.random() < cfg.appliance_udp_unreachable
                    iface = self._new_iface(prefix_base | octet,
                                            gateway_depth + 1 + j, udp, tcp,
                                            dest=dest)
                    internals.append(iface)
                    special[octet] = iface

                alt_last_hop = -1
                if internals and rng.random() < cfg.alt_last_hop_probability:
                    octet = 240
                    udp = (not stub.dark_interior
                           and rng.random() < cfg.internal_responsiveness)
                    tcp = udp and rng.random() >= cfg.tcp_silent_extra
                    dest = udp and rng.random() < cfg.appliance_udp_unreachable
                    alt_last_hop = self._new_iface(
                        prefix_base | octet,
                        self.iface_depth[internals[-1]], udp, tcp, dest=dest)
                    special[octet] = alt_last_hop

                forbidden = set(special)
                if stub_active and rng.random() < cfg.prefix_active_within_active_stub:
                    active = self._sample_active_hosts(rng, forbidden)
                else:
                    active = frozenset()
                if rng.random() < cfg.ping_only_prefix_probability:
                    pool = [octet for octet in range(2, 250)
                            if octet not in forbidden and octet not in active]
                    ping = frozenset(rng.sample(pool, min(3, len(pool))))
                else:
                    ping = frozenset()
                self.prefixes.append(PrefixRecord(
                    stub_id=stub.stub_id,
                    internal_ifaces=tuple(internals),
                    active_hosts=active,
                    ping_hosts=ping,
                    special_hosts=special,
                    flap=rng.random() < cfg.route_flap_probability,
                    alt_last_hop=alt_last_hop,
                ))
            offset += block
        self._synthesize_hitlist(random.Random(cfg.seed ^ 0x48495453))

    def _synthesize_hitlist(self, rng: random.Random) -> None:
        cfg = self.config
        for record in self.prefixes:
            stub = self.stubs[record.stub_id]
            pick = None
            gateway_octet = None
            appliance_octets: List[int] = []
            for octet, iface in record.special_hosts.items():
                if iface == stub.gateway_iface:
                    gateway_octet = octet
                else:
                    appliance_octets.append(octet)
            if gateway_octet is not None and self.udp_resp[stub.gateway_iface]:
                pick = gateway_octet
            elif appliance_octets and rng.random() < 0.45:
                responsive = [octet for octet in sorted(appliance_octets)
                              if self.udp_resp[record.special_hosts[octet]]]
                if responsive:
                    pick = responsive[0]
            if pick is None and record.active_hosts:
                if rng.random() < cfg.hitlist_prefers_udp_responder:
                    pick = min(record.active_hosts)
            if pick is None and record.ping_hosts:
                pick = min(record.ping_hosts)
            if pick is None:
                pick = rng.randrange(2, 250)
            record.hitlist_host = pick

    def hitlist_addresses(self) -> Dict[int, int]:
        return {self.base_prefix + offset:
                ((self.base_prefix + offset) << 8) | record.hitlist_host
                for offset, record in enumerate(self.prefixes)}

    # -- ground truth -------------------------------------------------- #

    def resolve_token(self, token: int, flow: int) -> int:
        if token >= 0:
            return token
        group_id = lb_group_id(token)
        branches = self.lb_groups[group_id]
        digest = ((flow * _FLOW_HASH_MULT) ^ (group_id * _GROUP_HASH_MULT))
        branch = branches[(digest & 0x7FFFFFFF) % len(branches)]
        return branch[lb_offset(token)]

    def prefix_offset(self, dst: int) -> int:
        offset = (dst >> 8) - self.base_prefix
        if 0 <= offset < self.num_prefixes:
            return offset
        return -1

    def _destination_depth(self, record: PrefixRecord, stub: Stub,
                           octet: int, shift: int) -> Tuple[int, bool]:
        iface = record.special_hosts.get(octet)
        if iface is not None:
            return self.iface_depth[iface] + shift, bool(self.dest_resp[iface])
        depth = (stub.gateway_depth + shift + len(record.internal_ifaces) + 1)
        return depth, octet in record.active_hosts

    def hop_at(self, dst: int, ttl: int, flow: int = 0,
               epoch: int = 0) -> HopResult:
        if ttl < 1:
            return VOID_HOP
        offset = self.prefix_offset(dst)
        if offset < 0:
            return VOID_HOP
        record = self.prefixes[offset]
        stub = self.stubs[record.stub_id]
        shift = 1 if (record.flap and (epoch & 1)) else 0
        octet = dst & 0xFF
        dest_depth, assigned = self._destination_depth(record, stub, octet, shift)
        transit_len = len(stub.transit)
        gateway_depth = stub.gateway_depth + shift

        if ttl <= transit_len:
            iface = self.resolve_token(stub.transit[ttl - 1], flow)
            return HopResult(HopKind.ROUTER, iface, dest_depth=dest_depth)
        if ttl < gateway_depth:
            return VOID_HOP
        if ttl == gateway_depth:
            if dest_depth == gateway_depth:
                if assigned:
                    return HopResult(HopKind.DESTINATION, stub.gateway_iface,
                                     residual_ttl=1, dest_depth=dest_depth)
                return VOID_HOP
            return HopResult(HopKind.ROUTER, stub.gateway_iface,
                             dest_depth=dest_depth)
        if stub.ttl_reset:
            if not assigned:
                return VOID_HOP
            boosted = max(ttl - gateway_depth, self.config.ttl_reset_value)
            residual = boosted - (dest_depth - gateway_depth - 1)
            return HopResult(HopKind.DESTINATION, -1,
                             residual_ttl=max(residual, 1),
                             dest_depth=dest_depth)
        if ttl < dest_depth:
            index = ttl - gateway_depth - 1
            internals = record.internal_ifaces
            if 0 <= index < len(internals):
                iface = internals[index]
                if (index == len(internals) - 1
                        and record.alt_last_hop >= 0
                        and octet >= 128
                        and octet not in record.special_hosts):
                    iface = record.alt_last_hop
                return HopResult(HopKind.ROUTER, iface,
                                 dest_depth=dest_depth)
            return VOID_HOP
        if not assigned:
            if stub.loop_unassigned and stub.transit:
                if record.internal_ifaces:
                    last_hop = record.internal_ifaces[-1]
                    upstream = (record.internal_ifaces[-2]
                                if len(record.internal_ifaces) > 1
                                else stub.gateway_iface)
                else:
                    last_hop = stub.gateway_iface
                    upstream = self.resolve_token(stub.transit[-1], flow)
                hops_in = ttl - dest_depth
                iface = last_hop if hops_in % 2 == 0 else upstream
                return HopResult(HopKind.LOOP_ROUTER, iface)
            if stub.host_unreachable:
                last_hop = (record.internal_ifaces[-1]
                            if record.internal_ifaces else stub.gateway_iface)
                return HopResult(HopKind.GATEWAY_UNREACHABLE, last_hop)
            return VOID_HOP
        iface = record.special_hosts.get(octet, -1)
        return HopResult(HopKind.DESTINATION, iface,
                         residual_ttl=ttl - dest_depth + 1,
                         dest_depth=dest_depth)

    def true_route(self, dst: int, flow: int = 0, epoch: int = 0,
                   max_ttl: int = 32) -> List[Optional[int]]:
        route: List[Optional[int]] = []
        for ttl in range(1, max_ttl + 1):
            hop = self.hop_at(dst, ttl, flow=flow, epoch=epoch)
            if hop.kind in (HopKind.ROUTER, HopKind.LOOP_ROUTER) \
                    and self.udp_resp[hop.iface]:
                route.append(self.iface_addrs[hop.iface])
            else:
                route.append(None)
        return route

    def destination_distance(self, dst: int, epoch: int = 0) -> Optional[int]:
        offset = self.prefix_offset(dst)
        if offset < 0:
            return None
        record = self.prefixes[offset]
        stub = self.stubs[record.stub_id]
        shift = 1 if (record.flap and (epoch & 1)) else 0
        depth, assigned = self._destination_depth(record, stub, dst & 0xFF,
                                                  shift)
        return depth if assigned else None

    def reachable_interfaces(self, max_ttl: int = 32,
                             include_lb_alternates: bool = True,
                             udp: bool = True) -> Set[int]:
        resp = self.udp_resp if udp else self.tcp_resp
        found: Set[int] = set()

        def _add(iface: int) -> None:
            if resp[iface] and self.iface_depth[iface] <= max_ttl:
                found.add(iface)

        for stub in self.stubs:
            for token in stub.transit:
                if token >= 0:
                    _add(token)
                elif include_lb_alternates:
                    for branch in self.lb_groups[lb_group_id(token)]:
                        _add(branch[lb_offset(token)])
                else:
                    _add(self.lb_groups[lb_group_id(token)][0][lb_offset(token)])
            _add(stub.gateway_iface)
        for record in self.prefixes:
            stub = self.stubs[record.stub_id]
            if stub.ttl_reset:
                continue
            for iface in record.internal_ifaces:
                _add(iface)
            if record.alt_last_hop >= 0:
                _add(record.alt_last_hop)
        return found
