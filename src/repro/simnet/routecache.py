"""Flat route tables: the simulator's probe fast path.

**A slot is read once per scan; the route is what repeats.**  A scan
probes each ``(destination, TTL)`` exactly once — a 16,384-prefix
``flashroute-16`` scan sends 179,712 probes to 179,712 distinct slots —
so anything computed per slot (responder address, delays, jitter) has
zero reuse and is derived at lookup, never stored.  What *is* reused is
the route: every probe of a destination walks the same hops, and routes
from one vantage point form a tree (Donnet et al., "Efficient Route
Tracing from a Single Source") whose interface ids the
:class:`Topology` already owns.

An *outcome table* is therefore just the route: one 32-slot list per
``(dst, flow, parity)``, built by concatenation, whose slots are

* an ``int`` — the interface id a probe of that TTL expires at: the
  stub's own objects for its transit template and gateway, and, for the
  prefix's interior chain and loop routers, ids derived from the /24's
  ``chain_start``/``chain_len`` columns, so a table costs its list plus
  a few small ints;
* ``None`` — nothing will ever answer (flap gap, void, silent host);
* the table's single :class:`Tail` — shared by every at/past-destination
  slot that is not a plain router expiry.

``SimulatedNetwork`` turns a slot into a response at lookup: for an
interface id it reads responsiveness and the responder address from the
topology and computes the two delays with :class:`LatencyModel`'s
expressions, operation for operation (the jitter hash is integer
arithmetic, the float operations keep their order), so every float is
bit-identical to the uncached path's; for the tail it calls
:meth:`Tail.outcome`.  Tables are immutable once built and nothing is
written back, so sessions share them freely.

Cache keys and epoch-awareness
------------------------------
Outcome tables are keyed ``(dst, flow, epoch & 1)`` *without*
normalization: deriving the flow-class or the flap flag would itself cost
a prefix-record lookup per probe.  The parity bit is a conservative
over-split — a stable prefix registers its one table under both parities,
a flappy one owns two — so an epoch change *invalidates by key*, never by
flushing.  UDP and TCP keep separate dicts: destination behaviour (and
so the tail) differs by protocol; interface responsiveness is read per
protocol at lookup.

The cache is a pure function of the immutable :class:`Topology`.  The
tests' reference network (``tests/oracle/network.py``) bypasses it
entirely, to check it against.  Fault injection (:mod:`repro.simnet.faults`) never touches it: the network
applies the stateless fault filter *after* the lookup, so tables stay
shareable across fault models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..net.icmp import ResponseKind
from ..net.packets import PROTO_TCP
from .latency import _HASH_MULT, _JITTER_INC, _JITTER_MULT, LatencyModel
from .topology import ALT_LAST_HOP, FLAP, Topology

#: TTLs materialized per cache entry: the 5-bit probe encoding bounds
#: probed TTLs to 1..32.  Larger TTLs fall back to the uncached path.
ROUTE_CACHE_TTLS = 32

_HOST_HASH_MULT = 2654435761


def host_answers_tcp(dst: int, host_tcp_rst: float) -> bool:
    """Deterministic per-host coin flip: does ``dst`` answer TCP-ACK with a
    RST?  (Shared with the uncached ``SimulatedNetwork`` path.)"""
    digest = ((dst * _HOST_HASH_MULT) >> 13) & 0xFFFF
    return digest / 65536.0 < host_tcp_rst


def rewritten_dst(dst: int) -> int:
    """Destination as rewritten by a stub's middlebox (same /24, different
    host octet, so the checksum-derived source port no longer matches,
    paper §5.3).  Shared with the uncached path."""
    return (dst & 0xFFFFFF00) | ((dst + 97) & 0xFF)


class Tail:
    """The at/past-destination region of one outcome table.

    Three regions are not a plain router expiry, and within each only the
    residual TTL and the per-TTL jitter vary, so one object serves all of
    a table's slots there and computes the outcome per call:

    ===================  ==========  =========  =========  ==============
    region               responder   ``gate``   ``floor``  ``inner``
    ===================  ==========  =========  =========  ==============
    destination reached  ``dst``     gateway    ``None``   interior hops
    TTL-reset middlebox  ``dst``     gateway    reset TTL  interior hops
    host unreachable     last hop    gateway    ``None``   ``≥ 32``
    ===================  ==========  =========  =========  ==============

    The quoted residual TTL is ``max(crossed - inner, 1)`` with ``crossed =
    ttl - gate`` hops spent past the gateway: the TTL the probe carried on
    arrival at the destination, or 1 for an expiry report.  A TTL-reset
    middlebox raises ``crossed`` to at least ``floor`` and its deliveries
    charge no interface; the gateway-is-destination slot (``crossed == 0``)
    never crosses it and charges ``iface`` like any router probed directly.
    """

    __slots__ = ("kind", "responder", "iface", "ow_base", "rt_base", "gate",
                 "floor", "inner", "quoted_dst", "rewrite", "half_span",
                 "span")

    def __init__(self, kind: ResponseKind, responder: int, iface: int,
                 ow_base: float, rt_base: float, gate: int,
                 floor: Optional[int], inner: int, quoted_dst: int,
                 rewrite: bool, half_span: float, span: float) -> None:
        self.kind = kind
        self.responder = responder
        self.iface = iface
        self.ow_base = ow_base
        self.rt_base = rt_base
        self.gate = gate
        self.floor = floor
        self.inner = inner
        self.quoted_dst = quoted_dst
        self.rewrite = rewrite
        self.half_span = half_span
        self.span = span

    def outcome(self, dst: int, ttl: int) -> Tuple[
            ResponseKind, int, int, float, float, int, int, bool]:
        """(kind, responder address, rate-limited interface id or -1,
        one-way delay, round-trip delay, quoted residual TTL, quoted
        destination, middlebox-rewrite flag) for the probe ``(dst, ttl)``.
        The delays are :class:`LatencyModel`'s expressions verbatim."""
        iface = self.iface
        crossed = ttl - self.gate
        if crossed > 0 and self.floor is not None:
            crossed = max(crossed, self.floor)
            iface = -1
        h = dst * _JITTER_MULT + _JITTER_INC + ttl * _HASH_MULT
        return (self.kind, self.responder, iface,
                self.ow_base + self.half_span
                * (((h >> 8) & 0xFFFF) / 65536.0),
                self.rt_base + self.span
                * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                max(crossed - self.inner, 1), self.quoted_dst, self.rewrite)


#: One slot of an outcome table: the interface id a probe of that TTL
#: expires at, the table's :class:`Tail`, or ``None`` for silence.
Slot = Union[int, Tail, None]

#: Shared all-silent table served for destinations outside the scanned
#: space (the uncached path returns ``None`` for them too).
SILENT_TABLE: Sequence[Slot] = (None,) * ROUTE_CACHE_TTLS


class RouteCache:
    """Memoized flat route tables over an immutable :class:`Topology`.

    ``udp_tables``/``tcp_tables`` are deliberately public plain dicts:
    ``SimulatedNetwork`` keeps direct references and probes them inline,
    calling back into :meth:`outcome_table` only on a miss.

    ``responders`` holds one shared ``int`` per interface that has
    answered, filled from ``Topology.iface_addrs`` on first use
    (:meth:`responder`): an ``array`` column allocates a new ``int`` on
    every read, and a scan's results, stop set and seen-interface set
    keep every responder they are handed.  The list lives here, not on
    the topology, because the topology is read-only (shard workers
    receive it prebuilt) and each value is a pure function of it.
    """

    __slots__ = ("_topology", "_latency", "_stub_lb_slots",
                 "_host_tcp_rst", "udp_tables", "tcp_tables", "responders",
                 "external_responders", "hits", "misses")

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        cfg = topology.config
        #: Same parameters as the network's model -> identical floats.
        self._latency = LatencyModel(cfg.hop_latency, cfg.latency_jitter)
        #: Per stub, the transit indices holding load-balancer tokens.
        #: Only those depend on the flow: the rest of ``stub.transit`` is
        #: interface ids already, so a stub's transit is its own template
        #: and a diamond-free stub collapses every flow to one class.
        self._stub_lb_slots = tuple(
            tuple(i for i, token in enumerate(stub.transit) if token < 0)
            for stub in topology.stubs)
        self._host_tcp_rst = cfg.host_tcp_rst
        #: (dst, flow, epoch & 1) -> outcome table, per probe protocol.
        self.udp_tables: Dict[Tuple[int, int, int], Sequence[Slot]] = {}
        self.tcp_tables: Dict[Tuple[int, int, int], Sequence[Slot]] = {}
        #: Interface id -> its address as one shared ``int``, or ``None``
        #: until the interface first answers.
        self.responders: List[Optional[int]] = \
            [None] * len(topology.iface_addrs)
        #: Internal responder address -> its shared IPv6 form (the IPv6
        #: edge's translation, filled as responders first answer).
        self.external_responders: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (for benchmarks and reports).

        ``hits``/``misses`` count at *table* granularity: a miss per
        outcome-table build, a hit per lookup served from an already-built
        table.  A ``send_probes`` burst looks a table up once per run of
        probes to one key, so a scan's hits undercount its probes by
        design; a scalar caller is a one-probe burst, so every
        table-served ``send_probe`` is a hit (a trace reads 1 miss + ~20
        hits).  ``entries`` is always 0: the key stays because recorded
        metrics digests include it."""
        return {"entries": 0,
                "udp_tables": len(self.udp_tables),
                "tcp_tables": len(self.tcp_tables),
                "hits": self.hits, "misses": self.misses}

    def responder(self, iface: int) -> int:
        """The shared ``int`` address of interface ``iface``."""
        addr = self.responders[iface]
        if addr is None:
            addr = self.responders[iface] = self._topology.iface_addrs[iface]
        return addr

    def drop(self, dst: int, flow: int) -> None:
        """Forget the tables of one route, both parities and protocols
        (a later lookup rebuilds them; they are pure functions of the
        topology)."""
        for tables in (self.udp_tables, self.tcp_tables):
            tables.pop((dst, flow, 0), None)
            tables.pop((dst, flow, 1), None)

    # ------------------------------------------------------------------ #
    # Outcome tables (the send_probe fast path)
    # ------------------------------------------------------------------ #

    def outcome_table(self, dst: int, flow: int, parity: int,
                      proto: int) -> Sequence[Slot]:
        """Build, store and return the outcome table for one hot-path key
        ``(dst, flow, parity)``.  Called by the network on a table miss.

        The TTL axis partitions into contiguous segments — transit → flap
        gap → gateway → interior → at/past destination — so the table is
        the concatenation of the route's pieces, each a run of interface
        ids the topology already holds.  The segment boundaries reproduce
        :meth:`Topology.hop_at`'s branch priority: transit wins
        below ``len(transit)``, the gateway slot only exists above it,
        everything beyond starts after both.  The equivalence tests compare
        the result against the uncached path probe-for-probe.
        """
        self.misses += 1
        tcp = proto == PROTO_TCP
        tables = self.tcp_tables if tcp else self.udp_tables
        topo = self._topology
        offset = (dst >> 8) - topo.base_prefix
        if offset < 0 or offset >= topo.num_prefixes:
            # Epoch-independent: serve both parities from the one table.
            tables[(dst, flow, 0)] = SILENT_TABLE
            tables[(dst, flow, 1)] = SILENT_TABLE
            return SILENT_TABLE
        stub_id = topo.prefix_stub[offset]
        stub = topo.stubs[stub_id]
        flags = topo.prefix_flags[offset]
        shift = 1 if (flags & FLAP and parity) else 0
        octet = dst & 0xFF
        special, dest_depth, assigned = topo._destination(offset, stub, octet,
                                                         shift)
        gateway_depth = stub.gateway_depth + shift
        gateway_iface = stub.gateway_iface
        #: The interior chain: ids ``first .. first + count - 1``.
        first = topo.chain_start[offset]
        count = topo.chain_len[offset]
        last_hop = first + count - 1 if count else gateway_iface
        #: Interior hops in front of the destination (-1: the gateway is it).
        inner = dest_depth - gateway_depth - 1

        table = list(stub.transit)
        for i in self._stub_lb_slots[stub_id]:
            # Per-flow fix-up of just the load-balancer slots.
            table[i] = topo.resolve_token(table[i], flow)

        # What answers at and past the destination: one Tail, a two-router
        # loop, or nothing.
        tail = None
        loop = ()
        if assigned:
            if not tcp or host_answers_tcp(dst, self._host_tcp_rst):
                tail = self._tail(
                    ResponseKind.TCP_RST if tcp
                    else ResponseKind.PORT_UNREACHABLE,
                    dst, dst, special, dest_depth, gateway_depth,
                    topo.config.ttl_reset_value if stub.ttl_reset else None,
                    inner, stub.rewrite)
        elif stub.ttl_reset:
            pass  # the middlebox swallows probes to unassigned addresses
        elif stub.loop_unassigned and table:
            # Default-route loop: probes keep expiring between the last-hop
            # router and its upstream (the *flow-resolved* last transit hop
            # when the gateway is the last hop), alternating by hop parity.
            if count:
                loop = (last_hop, last_hop - 1 if count > 1
                        else gateway_iface)
            else:
                loop = (gateway_iface, table[-1])
        elif stub.host_unreachable:
            if (topo.tcp_resp if tcp else topo.udp_resp)[last_hop]:
                # An expiry-style report (residual 1) from the last hop;
                # the uncached path charges the *unshifted* gateway depth
                # for its latency.
                tail = self._tail(
                    ResponseKind.HOST_UNREACHABLE, dst,
                    self.responder(last_hop), last_hop, stub.gateway_depth,
                    gateway_depth, None, ROUTE_CACHE_TTLS, stub.rewrite)

        if len(table) < gateway_depth:
            # The flap-inserted gap stays silent; a gateway that is itself
            # the destination delivers instead of expiring.
            table += [None] * (gateway_depth - len(table) - 1)
            if dest_depth != gateway_depth:
                table.append(gateway_iface)
            else:
                table.append(tail if assigned else None)
        if not stub.ttl_reset:
            # Interior chain, with the VLAN-split alternate last hop for the
            # upper host half.  (A TTL-reset middlebox delivers everything
            # that crosses the gateway: no interior router sees an expiry.)
            if inner > 0:
                table += range(first + len(table) - gateway_depth,
                               first + inner)
                if flags & ALT_LAST_HOP and octet >= 128 and special < 0:
                    table[-1] = first + count
            table += [None] * (dest_depth - 1 - len(table))
        if loop:
            if (len(table) + 1 - dest_depth) % 2:
                loop = loop[::-1]
            table += loop * (ROUTE_CACHE_TTLS // 2)
        else:
            table += [tail] * (ROUTE_CACHE_TTLS - len(table))
        # A copy, so the list is allocated at exactly its 32 slots.
        result = table[:ROUTE_CACHE_TTLS]
        tables[(dst, flow, parity)] = result
        if not flags & FLAP:
            # Parity only matters through the flap shift: a stable prefix
            # shares one table across epochs, so a scan whose virtual time
            # crosses epoch boundaries never rebuilds.
            tables[(dst, flow, 1 - parity)] = result
        return result

    def _tail(self, kind: ResponseKind, dst: int, responder: int, iface: int,
              depth: int, gate: int, floor: Optional[int], inner: int,
              rewrite: bool) -> Tail:
        """A :class:`Tail` whose delays are charged for ``depth`` hops."""
        latency = self._latency
        ow_base = latency._one_way_base
        return Tail(
            kind, responder, iface,
            (ow_base[depth] if depth < len(ow_base)
             else latency.hop_latency * depth),
            (latency._round_trip_base[depth] if depth < len(ow_base)
             else (2.0 * latency.hop_latency) * depth),
            gate, floor, inner, rewritten_dst(dst) if rewrite else dst,
            rewrite, latency._half_span, latency.jitter_span)
