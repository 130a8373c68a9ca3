"""Synthetic Internet topology generator and ground-truth oracle.

The generator grows a routed tree from the vantage point by biased random
walks — heavy path sharing near the root (the Doubletree premise backward
probing exploits), branching that accelerates with depth, per-flow
load-balancer diamonds, MPLS-like silent runs — and attaches stub networks
owning contiguous runs of /24 prefixes at the leaves.  The resulting
:class:`Topology` object is the immutable ground truth: :meth:`hop_at`
answers, in O(1), what a probe with a given destination, TTL and flow
identifier hits.

All randomness is drawn from a single seeded ``random.Random``; two
topologies built from equal configs are identical.

Layout
------
Per-interface and per-/24 facts live in flat columns (``array``/
``bytearray``), the way :mod:`repro.core.dcb` keeps the scanner's state, so
the simulated Internet costs bytes per /24 rather than objects.  What the
layout already determines is derived, not stored:

* infrastructure (transit and diamond) addresses are consecutive from
  ``infrastructure_base_addr`` in allocation order;
* a /24's interior chain and its alternate last hop are allocated
  consecutively, so ``chain_start`` plus ``chain_len`` names all of them;
* in-prefix router addresses are ``prefix_base | octet``: octet 1 is the
  stub gateway on a stub's first /24, octet ``254 - j`` the chain's j-th
  hop, octet 240 the alternate last hop — which takes the octet over when
  a chain of 15 or more hops reaches it.

Only stubs and load-balancer diamonds are objects; they grow with stubs,
not with /24s.  ``prefixes[i]`` builds a :class:`PrefixInfo` view from the
columns for analysis and tests; nothing on the probe or set-up path reads
through it.  ``tests/oracle/topology.py`` keeps the object form this
replaced, and ``tests/test_topology_oracle.py`` holds the two equal.

IPv6 address plan
-----------------
With ``TopologyConfig.address_bits == 128`` the same structure is
addressed in IPv6 (§5.4): each stub is a /48 site under 2001:db8::/32 and
each of its /24 blocks a /64 at a sparse 16-bit subnet ID, drawn from its
own RNG stream after everything above, so the columns are the IPv4
topology's.  An in-block address ``prefix_base | octet`` is ``/64 | octet``;
infrastructure interfaces count up from 2001:db8:ffff::, the vantage just
below.  :meth:`internal_addr` and :meth:`external_addr` translate; the
public queries (:meth:`true_route`, :meth:`destination_distance`,
:meth:`seed_targets`) take and give IPv6 addresses, while :meth:`hop_at`
and every column stay in the internal IPv4 form.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..net.addr import prefix24_base
from ..net.addr6 import ip6_to_int
from .config import TopologyConfig, weighted_choice
from .entities import (
    VOID_HOP,
    HopKind,
    HopResult,
    PrefixInfo,
    Stub,
    lb_group_id,
    lb_offset,
    lb_token,
)

_FLOW_HASH_MULT = 2654435761  # Knuth multiplicative hash constant
_GROUP_HASH_MULT = 40503

#: ``prefix_flags`` bits.
ALT_LAST_HOP = 0x01
FLAP = 0x02

#: Octets a /24's ordinary hosts are drawn from, in draw order.
_HOST_OCTETS = bytes(range(2, 250))
#: The in-prefix router octets of the layout (see the module docstring).
_GATEWAY_OCTET = 0x01
_ALT_OCTET = 240
_CHAIN_TOP = 254

#: The IPv6 plan: sites are /48s of 2001:db8::/32 (site ID in bits 16-31 of
#: the /64 key), infrastructure counts up from 2001:db8:ffff::, which
#: reserves site 0xFFFF.
_SITE6_KEY = ip6_to_int("2001:db8::") >> 64
_INFRA6_BASE = ip6_to_int("2001:db8:ffff::")
_MAX_SITES6 = 0xFFFF
_IID_MASK = (1 << 64) - 1
_PLAN6_SALT = 0x36363636


def _host_pool(taken: Set[int]) -> bytes:
    """:data:`_HOST_OCTETS` without ``taken``, order kept (a sample draws
    by position, so any sequence of the same octets draws the same)."""
    return _HOST_OCTETS.translate(None, bytes(taken))


class _TreeNode:
    """A node of the transit tree used only during generation."""

    __slots__ = ("token", "depth", "children")

    def __init__(self, token: int, depth: int) -> None:
        self.token = token
        self.depth = depth
        self.children: List["_TreeNode"] = []


class PrefixRecords(Sequence):
    """``Topology.prefixes``: a read-only sequence that builds one
    :class:`PrefixInfo` view per item access."""

    __slots__ = ("_topology",)

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology

    def __len__(self) -> int:
        return self._topology.num_prefixes

    def __getitem__(self, index: int) -> PrefixInfo:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("prefix offset out of range")
        return self._topology.prefix_info(index)


class Topology:
    """Immutable simulated topology plus ground-truth query methods."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        #: The address family a scan over this topology probes.
        self.address_bits = config.address_bits
        self.base_prefix = config.base_prefix_addr >> 8
        self.num_prefixes = config.num_prefixes
        self.vantage_addr = config.infrastructure_base_addr - 1

        # Per-interface columns, indexed by interface id.
        self.iface_addrs = array("I")
        self.iface_depth = array("B")
        self.udp_resp = bytearray()
        self.tcp_resp = bytearray()
        #: Whether the interface, probed *as a destination*, answers UDP
        #: high ports with port-unreachable (appliances often do not even
        #: when they generate TTL-exceeded).
        self.dest_resp = bytearray()
        #: Infrastructure interface ids in address order: the k-th holds
        #: ``infrastructure_base_addr + k``.
        self.infra_ifaces = array("I")

        #: Diamond id -> branches; each branch is a tuple of interface ids,
        #: one per hop level of the diamond.
        self.lb_groups: List[Tuple[Tuple[int, ...], ...]] = []
        self.stubs: List[Stub] = []

        # Per-/24 columns, indexed by scanned-prefix offset.
        self.prefix_stub = array("I")
        #: Interface id of the first interior hop (the chain runs
        #: ``chain_start .. chain_start + chain_len - 1``; the alternate
        #: last hop, when ``ALT_LAST_HOP`` is set, is the id after it).
        self.chain_start = array("I")
        self.chain_len = bytearray()
        self.prefix_flags = bytearray()
        #: Host octet the synthesized ISI-style hitlist lists (hitlist.py).
        self.hitlist_host = bytearray(config.num_prefixes)
        #: Sorted host octets answering UDP (``active``) or only pings
        #: (``ping``), all /24s concatenated: offset p's run is
        #: ``active_octets[active_start[p]:active_start[p + 1]]``.
        self.active_start = array("I", (0,))
        self.active_octets = bytearray()
        self.ping_start = array("I", (0,))
        self.ping_octets = bytearray()

        self._generate(random.Random(config.seed))
        if self.address_bits == 128:
            self._draw_address_plan(random.Random(config.seed ^ _PLAN6_SALT))

    @property
    def prefixes(self) -> PrefixRecords:
        """Per-/24 :class:`PrefixInfo` views, built on access (analysis and
        tests; the probe and set-up paths read the columns)."""
        return PrefixRecords(self)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def _new_iface(self, addr: int, depth: int, udp: bool, tcp: bool,
                   dest: Optional[bool] = None) -> int:
        iface = len(self.iface_addrs)
        self.iface_addrs.append(addr)
        self.iface_depth.append(depth)
        self.udp_resp.append(1 if udp else 0)
        self.tcp_resp.append(1 if tcp else 0)
        self.dest_resp.append(1 if (udp if dest is None else dest) else 0)
        return iface

    def _new_infra_iface(self, depth: int, udp: bool, tcp: bool) -> int:
        cfg = self.config
        addr = cfg.infrastructure_base_addr + len(self.infra_ifaces)
        if (cfg.base_prefix_addr <= addr
                < cfg.base_prefix_addr + self.num_prefixes * 256):
            raise ValueError("infrastructure space overlaps the scanned space")
        self.infra_ifaces.append(len(self.iface_addrs))
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
        """Create one plain transit node (diamonds are built separately)."""
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
        primary = self._new_infra_iface(depth, udp, tcp)
        return _TreeNode(primary, depth)

    def _new_diamond(self, depth: int, levels: int,
                     rng: random.Random) -> List[_TreeNode]:
        """Create a per-flow load-balancer diamond: ``branches`` parallel
        paths of ``levels`` hops each that fork and rejoin around the tree
        path (paper §3.2.1, Fig. 2).  Returns the chain of tree nodes
        carrying the diamond's hop tokens."""
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
        """Walk (and grow) the tree from the root to depth gateway_depth-1,
        returning the hop tokens at TTL 1 .. gateway_depth - 1."""
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
                             forbidden: Set[int]) -> List[int]:
        cfg = self.config
        usable = 254
        mean = usable * cfg.host_density
        sigma = max(1.0, mean ** 0.5)
        count = int(rng.gauss(mean, sigma) + 0.5)
        count = max(1, min(count, usable - len(forbidden) - 4))
        pool = _host_pool(forbidden)
        return rng.sample(pool, min(count, len(pool)))

    def _generate(self, rng: random.Random) -> None:
        cfg = self.config
        # TTL-1 router: the campus gateway; always responsive so backward
        # probing can terminate at hop 1 (paper §3.2).
        root = _TreeNode(self._new_infra_iface(1, True, True), 1)

        offset = 0
        while offset < self.num_prefixes:
            block = weighted_choice(rng, cfg.stub_block_sizes)
            block = min(block, self.num_prefixes - offset)
            gateway_depth = max(3, weighted_choice(rng, cfg.gateway_depth_weights))
            transit = self._walk_transit(root, gateway_depth, rng)

            first_prefix = self.base_prefix + offset
            gateway_addr = prefix24_base(first_prefix) | _GATEWAY_OCTET
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
            # Interior depth is a property of the stub's architecture: all
            # its /24s sit behind (nearly) the same number of internal hops,
            # which is what makes adjacent blocks share hop distances and
            # proximity-span prediction accurate (paper §3.3.4).
            stub_hops = weighted_choice(rng, cfg.internal_hops)

            for local in range(block):
                prefix_base = prefix24_base(first_prefix + local)
                # Octets holding a router interface: no host is drawn there.
                forbidden = {_GATEWAY_OCTET} if local == 0 else set()

                hop_count = stub_hops
                jitter = rng.random()
                if jitter < cfg.internal_hop_jitter / 2:
                    hop_count = max(0, hop_count - 1)
                elif jitter < cfg.internal_hop_jitter:
                    hop_count += 1
                chain_start = len(self.iface_addrs)
                for j in range(hop_count):
                    octet = _CHAIN_TOP - j
                    udp = (not stub.dark_interior
                           and rng.random() < cfg.internal_responsiveness)
                    tcp = udp and rng.random() >= cfg.tcp_silent_extra
                    dest = udp and rng.random() < cfg.appliance_udp_unreachable
                    self._new_iface(prefix_base | octet,
                                    gateway_depth + 1 + j, udp, tcp, dest=dest)
                    forbidden.add(octet)

                flags = 0
                if hop_count and rng.random() < cfg.alt_last_hop_probability:
                    udp = (not stub.dark_interior
                           and rng.random() < cfg.internal_responsiveness)
                    tcp = udp and rng.random() >= cfg.tcp_silent_extra
                    dest = udp and rng.random() < cfg.appliance_udp_unreachable
                    self._new_iface(prefix_base | _ALT_OCTET,
                                    gateway_depth + hop_count, udp, tcp,
                                    dest=dest)
                    forbidden.add(_ALT_OCTET)
                    flags = ALT_LAST_HOP

                active: List[int] = []
                if stub_active and rng.random() < cfg.prefix_active_within_active_stub:
                    active = self._sample_active_hosts(rng, forbidden)
                    self.active_octets.extend(sorted(active))
                if rng.random() < cfg.ping_only_prefix_probability:
                    pool = _host_pool(forbidden.union(active))
                    self.ping_octets.extend(
                        sorted(rng.sample(pool, min(3, len(pool)))))
                if rng.random() < cfg.route_flap_probability:
                    flags |= FLAP

                self.prefix_stub.append(stub.stub_id)
                self.chain_start.append(chain_start)
                self.chain_len.append(hop_count)
                self.prefix_flags.append(flags)
                self.active_start.append(len(self.active_octets))
                self.ping_start.append(len(self.ping_octets))
            offset += block

        # Fill hitlist picks (synthesized ISI hitlist; see hitlist.py for
        # the preference rule and the bias discussion).
        from .hitlist import synthesize_hitlist  # local import: avoids cycle
        synthesize_hitlist(self, random.Random(cfg.seed ^ 0x48495453))

    def _draw_address_plan(self, rng: random.Random) -> None:
        """Number each stub's blocks as /64s of its /48 site: sparse
        subnet IDs, not 0..k (the sparsity [20] that rules out
        array-indexed control state)."""
        if len(self.stubs) > _MAX_SITES6:
            raise ValueError(f"{len(self.stubs)} stubs do not fit the "
                             f"IPv6 plan's {_MAX_SITES6} /48 sites")
        #: Block offset -> its /64 key (``subnets`` maps back).
        self.subnet_keys = keys = array("Q")
        for stub in self.stubs:
            site = _SITE6_KEY | stub.stub_id << 16
            keys.extend(site | subnet_id for subnet_id
                        in rng.sample(range(1, 0xFFFF), stub.block_size))
        self.subnets: Dict[int, int] = {
            key: offset for offset, key in enumerate(keys)}

    # ------------------------------------------------------------------ #
    # Column reads
    # ------------------------------------------------------------------ #

    def special_iface(self, offset: int, octet: int) -> int:
        """Interface id of the router whose address is ``octet`` in the
        /24 at ``offset`` (gateway, interior hop, alternate last hop), or
        -1 for a host octet."""
        if octet == _GATEWAY_OCTET:
            stub = self.stubs[self.prefix_stub[offset]]
            return stub.gateway_iface if stub.first_offset == offset else -1
        count = self.chain_len[offset]
        if octet == _ALT_OCTET and self.prefix_flags[offset] & ALT_LAST_HOP:
            return self.chain_start[offset] + count
        j = _CHAIN_TOP - octet
        if 0 <= j < count:
            return self.chain_start[offset] + j
        return -1

    def special_octets(self, offset: int) -> List[int]:
        """The octets :meth:`special_iface` names a router for, ascending."""
        count = self.chain_len[offset]
        octets = list(range(_CHAIN_TOP + 1 - count, _CHAIN_TOP + 1))
        if (self.prefix_flags[offset] & ALT_LAST_HOP
                and _ALT_OCTET < _CHAIN_TOP + 1 - count):
            octets.insert(0, _ALT_OCTET)
        if self.stubs[self.prefix_stub[offset]].first_offset == offset:
            octets.insert(0, _GATEWAY_OCTET)
        return octets

    def iface_of(self, addr: int) -> Optional[int]:
        """The interface holding ``addr``, or ``None``: derived from the
        layout (infrastructure addresses are consecutive, in-prefix ones
        are ``prefix_base | octet``)."""
        infra = addr - self.config.infrastructure_base_addr
        if 0 <= infra < len(self.infra_ifaces):
            return self.infra_ifaces[infra]
        offset = self.prefix_offset(addr)
        if offset >= 0:
            iface = self.special_iface(offset, addr & 0xFF)
            if iface >= 0:
                return iface
        return None

    def prefix_info(self, offset: int) -> PrefixInfo:
        """A :class:`PrefixInfo` view of the /24 at ``offset``."""
        first = self.chain_start[offset]
        count = self.chain_len[offset]
        flags = self.prefix_flags[offset]
        return PrefixInfo(
            stub_id=self.prefix_stub[offset],
            internal_ifaces=tuple(range(first, first + count)),
            active_hosts=frozenset(self.active_octets[
                self.active_start[offset]:self.active_start[offset + 1]]),
            ping_hosts=frozenset(self.ping_octets[
                self.ping_start[offset]:self.ping_start[offset + 1]]),
            special_hosts={octet: self.special_iface(offset, octet)
                           for octet in self.special_octets(offset)},
            flap=bool(flags & FLAP),
            hitlist_host=self.hitlist_host[offset],
            alt_last_hop=first + count if flags & ALT_LAST_HOP else -1)

    # ------------------------------------------------------------------ #
    # The IPv6 address plan (128-bit topologies only)
    # ------------------------------------------------------------------ #

    def internal_addr(self, addr: int) -> int:
        """The internal IPv4 form of an IPv6 destination, or -1 when its
        /64 is not announced or its interface ID is above 255."""
        offset = self.subnets.get(addr >> 64)
        iid = addr & _IID_MASK
        if offset is None or iid > 0xFF:
            return -1
        return (self.base_prefix + offset) << 8 | iid

    def external_addr(self, addr: int) -> int:
        """The IPv6 form of an internal address: an in-block one keeps
        its octet in its /64, infrastructure (and the vantage, just below
        it) maps in order from 2001:db8:ffff::."""
        offset = (addr >> 8) - self.base_prefix
        if 0 <= offset < self.num_prefixes:
            return self.subnet_keys[offset] << 64 | addr & 0xFF
        return _INFRA6_BASE + addr - self.config.infrastructure_base_addr

    def seed_targets(self) -> Dict[int, int]:
        """/64 key -> one known address in it, at its block's hitlist
        octet: Yarrp6's seed list of one address per announced /64."""
        hosts = self.hitlist_host
        return {key: key << 64 | hosts[offset]
                for key, offset in self.subnets.items()}

    # ------------------------------------------------------------------ #
    # Ground-truth queries
    # ------------------------------------------------------------------ #

    def resolve_token(self, token: int, flow: int) -> int:
        """Resolve a hop token to an interface id for a given flow."""
        if token >= 0:
            return token
        group_id = lb_group_id(token)
        branches = self.lb_groups[group_id]
        digest = ((flow * _FLOW_HASH_MULT) ^ (group_id * _GROUP_HASH_MULT))
        branch = branches[(digest & 0x7FFFFFFF) % len(branches)]
        return branch[lb_offset(token)]

    def prefix_offset(self, dst: int) -> int:
        """Offset of ``dst``'s /24 in the scanned space, or -1 if outside."""
        offset = (dst >> 8) - self.base_prefix
        if 0 <= offset < self.num_prefixes:
            return offset
        return -1

    def _destination(self, offset: int, stub: Stub, octet: int,
                     shift: int) -> Tuple[int, int, bool]:
        """(router interface at ``octet`` or -1, depth, is_assigned) of the
        address ``octet`` in the /24 at ``offset`` under a flap ``shift``.
        A host is assigned when a binary search finds it in the /24's
        sorted run of active octets."""
        iface = self.special_iface(offset, octet)
        if iface >= 0:
            return (iface, self.iface_depth[iface] + shift,
                    bool(self.dest_resp[iface]))
        depth = stub.gateway_depth + shift + self.chain_len[offset] + 1
        octets = self.active_octets
        end = self.active_start[offset + 1]
        index = bisect_left(octets, octet, self.active_start[offset], end)
        return -1, depth, index < end and octets[index] == octet

    def hop_at(self, dst: int, ttl: int, flow: int = 0,
               epoch: int = 0) -> HopResult:
        """Ground truth for a probe: what sits at ``ttl`` toward ``dst``.

        ``flow`` selects load-balancer branches (FlashRoute uses the
        checksum-derived source port, so the flow is constant per
        destination within a scan).  ``epoch`` indexes route-dynamics
        epochs; flappy prefixes gain one silent hop in odd epochs.
        """
        if ttl < 1:
            return VOID_HOP
        offset = self.prefix_offset(dst)
        if offset < 0:
            return VOID_HOP
        stub = self.stubs[self.prefix_stub[offset]]
        flags = self.prefix_flags[offset]
        shift = 1 if (flags & FLAP and (epoch & 1)) else 0
        octet = dst & 0xFF
        special, dest_depth, assigned = self._destination(offset, stub, octet,
                                                         shift)
        transit_len = len(stub.transit)
        gateway_depth = stub.gateway_depth + shift

        if ttl <= transit_len:
            iface = self.resolve_token(stub.transit[ttl - 1], flow)
            return HopResult(HopKind.ROUTER, iface, dest_depth=dest_depth)
        if ttl < gateway_depth:
            # The flap-inserted silent hop between transit and gateway.
            return VOID_HOP
        if ttl == gateway_depth:
            if dest_depth == gateway_depth:
                # The gateway itself is the destination: the packet is
                # delivered, not expired, so the outcome is its own
                # destination responsiveness.
                if assigned:
                    return HopResult(HopKind.DESTINATION, stub.gateway_iface,
                                     residual_ttl=1, dest_depth=dest_depth)
                return VOID_HOP
            return HopResult(HopKind.ROUTER, stub.gateway_iface,
                             dest_depth=dest_depth)

        # Beyond the gateway.  Packets to *any* address of the prefix —
        # assigned or not — are forwarded down the prefix's interior chain
        # (the subnet routers exist regardless of whether the final host
        # does); unassigned addresses die at the last-hop router.  This is
        # what lets scans of random (mostly dead) addresses discover
        # interior interfaces that gateway-addressed hitlist targets hide
        # (paper §5.1).
        if stub.ttl_reset:
            # The middlebox normalizes low TTLs upward: every probe that
            # crosses the gateway reaches the destination; interior routers
            # never see an expiry.
            if not assigned:
                return VOID_HOP
            boosted = max(ttl - gateway_depth, self.config.ttl_reset_value)
            residual = boosted - (dest_depth - gateway_depth - 1)
            return HopResult(HopKind.DESTINATION, -1,
                             residual_ttl=max(residual, 1),
                             dest_depth=dest_depth)
        count = self.chain_len[offset]
        if ttl < dest_depth:
            index = ttl - gateway_depth - 1
            if index < count:
                if (index == count - 1 and flags & ALT_LAST_HOP
                        and octet >= 128 and special < 0):
                    # The upper host half sits behind the other last-hop
                    # router (VLAN split; see PrefixInfo.alt_last_hop).
                    index = count
                return HopResult(HopKind.ROUTER,
                                 self.chain_start[offset] + index,
                                 dest_depth=dest_depth)
            return VOID_HOP
        if not assigned:
            return self._unassigned_at_last_hop(offset, stub, ttl,
                                                dest_depth, flow)
        return HopResult(HopKind.DESTINATION, special,
                         residual_ttl=ttl - dest_depth + 1,
                         dest_depth=dest_depth)

    def _unassigned_at_last_hop(self, offset: int, stub: Stub, ttl: int,
                                dest_depth: int, flow: int) -> HopResult:
        """Behaviour at/past the would-be host position of an unassigned
        address: the last-hop router gives up on it."""
        count = self.chain_len[offset]
        last_hop = (self.chain_start[offset] + count - 1 if count
                    else stub.gateway_iface)
        if stub.loop_unassigned and stub.transit:
            # Default route bounces packets between the last-hop router and
            # its upstream; probes keep expiring inside the loop.
            if count > 1:
                upstream = last_hop - 1
            elif count:
                upstream = stub.gateway_iface
            else:
                upstream = self.resolve_token(stub.transit[-1], flow)
            hops_in = ttl - dest_depth
            iface = last_hop if hops_in % 2 == 0 else upstream
            return HopResult(HopKind.LOOP_ROUTER, iface)
        if stub.host_unreachable:
            return HopResult(HopKind.GATEWAY_UNREACHABLE, last_hop)
        return VOID_HOP

    # ------------------------------------------------------------------ #
    # Convenience views (analysis, tests)
    # ------------------------------------------------------------------ #

    def true_route(self, dst: int, flow: int = 0, epoch: int = 0,
                   max_ttl: int = 32) -> List[Optional[int]]:
        """Interface *addresses* at TTL 1..max_ttl toward ``dst``.

        ``None`` marks hops where nothing would ever answer (void, silent
        router, or the destination itself occupying that TTL and beyond).
        Responsiveness is applied: silent routers appear as ``None``.
        On a 128-bit topology ``dst`` and the route are IPv6.
        """
        v6 = self.address_bits == 128
        if v6:
            dst = self.internal_addr(dst)
        route: List[Optional[int]] = []
        for ttl in range(1, max_ttl + 1):
            hop = self.hop_at(dst, ttl, flow=flow, epoch=epoch)
            if hop.kind in (HopKind.ROUTER, HopKind.LOOP_ROUTER) \
                    and self.udp_resp[hop.iface]:
                addr = self.iface_addrs[hop.iface]
                route.append(self.external_addr(addr) if v6 else addr)
            else:
                route.append(None)
        return route

    def destination_distance(self, dst: int, epoch: int = 0) -> Optional[int]:
        """True hop distance of ``dst`` if it is assigned, else ``None``
        (an IPv6 ``dst`` on a 128-bit topology)."""
        if self.address_bits == 128:
            dst = self.internal_addr(dst)
        offset = self.prefix_offset(dst)
        if offset < 0:
            return None
        stub = self.stubs[self.prefix_stub[offset]]
        shift = 1 if (self.prefix_flags[offset] & FLAP and (epoch & 1)) else 0
        _iface, depth, assigned = self._destination(offset, stub, dst & 0xFF,
                                                   shift)
        return depth if assigned else None

    def reachable_interfaces(self, max_ttl: int = 32,
                             include_lb_alternates: bool = True,
                             udp: bool = True) -> Set[int]:
        """Upper bound on discoverable interface ids within ``max_ttl``.

        Includes transit hops (all diamond members when
        ``include_lb_alternates``), gateways, and the interiors of prefixes
        that have an assigned address behind them.
        """
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
            if stub.ttl_reset:
                continue  # interiors hidden behind the middlebox
            for offset in range(stub.first_offset,
                                stub.first_offset + stub.block_size):
                # The chain and, right after it, the alternate last hop.
                first = self.chain_start[offset]
                end = first + self.chain_len[offset]
                if self.prefix_flags[offset] & ALT_LAST_HOP:
                    end += 1
                for iface in range(first, end):
                    _add(iface)
        return found

    def scanned_prefixes(self) -> Iterable[int]:
        """The /24 prefix indexes of the scanned space, in address order."""
        return range(self.base_prefix, self.base_prefix + self.num_prefixes)

