"""Static entities of the simulated topology.

The topology is stored in flat, index-addressed columns (``array`` and
``bytearray`` keyed by interface id and scanned-prefix offset) rather than
object graphs: a scan resolves one hop per probe on its hot path, and a
/24 must cost bytes, not objects, for one host to hold a large scan.  The
objects here are the ones that grow with stubs rather than with /24s
(:class:`Stub`, and the diamonds' branch tuples), the per-probe
:class:`HopResult`, and :class:`PrefixInfo`, a view built on demand from a
/24's columns.

Hop tokens
----------
A transit path is a tuple of *hop tokens*.  A token ``>= 0`` is an interface
id; a token ``< 0`` encodes a load-balancer diamond: group id ``-(token + 1)``
whose member interface is selected per flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple


#: Maximum depth (hop count) of a load-balancer diamond; bounds the token
#: encoding below.
MAX_DIAMOND_DEPTH = 8


def lb_token(group_id: int, offset: int = 0) -> int:
    """Encode a (diamond id, hop offset within the diamond) as a negative
    hop token.  Real per-flow diamonds span several hops; every hop level of
    the diamond carries its own token."""
    if not 0 <= offset < MAX_DIAMOND_DEPTH:
        raise ValueError(f"diamond offset out of range: {offset}")
    return -(group_id * MAX_DIAMOND_DEPTH + offset + 1)


def lb_group_id(token: int) -> int:
    """Decode a negative hop token back into a load-balancer group id."""
    if token >= 0:
        raise ValueError(f"{token} is a plain interface token")
    return (-token - 1) // MAX_DIAMOND_DEPTH


def lb_offset(token: int) -> int:
    """Decode the hop offset within the diamond from a negative token."""
    if token >= 0:
        raise ValueError(f"{token} is a plain interface token")
    return (-token - 1) % MAX_DIAMOND_DEPTH


@dataclass
class Stub:
    """A stub network owning a contiguous run of /24 prefixes.

    ``transit`` holds the hop tokens at TTL ``1 .. len(transit)``; the
    gateway interface sits at TTL ``len(transit) + 1``.
    """

    __slots__ = ("stub_id", "first_offset", "block_size", "transit",
                 "gateway_iface", "gateway_depth", "dark_interior",
                 "loop_unassigned", "ttl_reset", "rewrite",
                 "host_unreachable")

    stub_id: int
    first_offset: int
    block_size: int
    transit: Tuple[int, ...]
    gateway_iface: int
    gateway_depth: int
    dark_interior: bool
    loop_unassigned: bool
    ttl_reset: bool
    rewrite: bool
    host_unreachable: bool


class PrefixInfo:
    """Per-/24 state: which stub it belongs to, its interior, its hosts.

    A snapshot view: ``Topology.prefixes[i]`` builds one from the /24's
    columns on every access, and writing to it changes nothing in the
    topology.  Analysis and tests read it; the probe and set-up paths read
    the columns instead.

    Attributes:
        stub_id: owning stub.
        internal_ifaces: interface ids of intra-stub routers at depths
            ``gateway_depth + 1 .. gateway_depth + k`` traversed by packets
            to this prefix's ordinary hosts.
        active_hosts: host octets that answer UDP high-port probes with
            ICMP port-unreachable.
        ping_hosts: host octets that answer pings but not UDP (hitlist
            candidates that look dead to FlashRoute's preprobing).
        special_hosts: host octet -> interface id for router interfaces
            whose address lives inside this prefix (the stub gateway and
            this prefix's internal routers, the alternate last hop at
            octet 240 taking that octet over from a 15-hop chain).
        flap: whether routes to this prefix gain a silent hop in odd
            route-dynamics epochs.
        hitlist_host: host octet the synthesized ISI-style hitlist lists for
            this prefix (always set; may be unresponsive).
    """

    __slots__ = ("stub_id", "internal_ifaces", "active_hosts", "ping_hosts",
                 "special_hosts", "flap", "hitlist_host", "alt_last_hop")

    def __init__(self, stub_id: int, internal_ifaces: Tuple[int, ...],
                 active_hosts: FrozenSet[int], ping_hosts: FrozenSet[int],
                 special_hosts: Dict[int, int], flap: bool,
                 hitlist_host: int = 0, alt_last_hop: int = -1) -> None:
        self.stub_id = stub_id
        self.internal_ifaces = internal_ifaces
        self.active_hosts = active_hosts
        self.ping_hosts = ping_hosts
        self.special_hosts = special_hosts
        self.flap = flap
        self.hitlist_host = hitlist_host
        #: Interface id of a second last-hop router serving the upper half
        #: of the /24's host space (VLAN split), or -1.  Different
        #: addresses of one prefix can therefore sit behind different
        #: last-hop routers — the source of the near-destination
        #: interface-set divergence in the paper's Fig. 8.
        self.alt_last_hop = alt_last_hop


class HopKind(enum.Enum):
    """What a probe with a given (destination, TTL, flow) hits."""

    #: Expired at a router; ``iface`` identifies it (it may still stay
    #: silent if the interface is unresponsive or rate limited).
    ROUTER = "router"
    #: Reached the destination, which answers (port unreachable / RST).
    DESTINATION = "destination"
    #: Reached a gateway that answers host-unreachable for an unassigned
    #: address.
    GATEWAY_UNREACHABLE = "gateway_unreachable"
    #: Expired inside a forwarding loop between the stub and its ISP.
    LOOP_ROUTER = "loop_router"
    #: Fell off the route (beyond an unassigned destination's drop point, or
    #: past a TTL-normalizing middlebox); nothing will ever answer.
    VOID = "void"


@dataclass
class HopResult:
    """Ground-truth outcome of one probe, before responsiveness filters.

    ``residual_ttl`` is only meaningful for destination-reaching kinds: the
    TTL the probe carried on arrival (after any middlebox normalization),
    which is what gets quoted back and drives the one-probe distance
    measurement.
    """

    __slots__ = ("kind", "iface", "residual_ttl", "dest_depth")

    kind: HopKind
    iface: int
    residual_ttl: int
    dest_depth: int

    def __init__(self, kind: HopKind, iface: int = -1, residual_ttl: int = 0,
                 dest_depth: int = 0) -> None:
        self.kind = kind
        self.iface = iface
        self.residual_ttl = residual_ttl
        self.dest_depth = dest_depth


#: Singleton for the common silent outcome, to avoid allocating on misses.
VOID_HOP = HopResult(HopKind.VOID)
