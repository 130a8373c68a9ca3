"""Flat route-resolution cache: the simulator's probe fast path.

Every probing engine funnels through ``SimulatedNetwork.send_probe`` →
``Topology.hop_at``, and a full scan probes each destination ~15–32 times
with an identical ``(prefix, flow, epoch)`` key — so re-resolving the
prefix record, stub, flap shift and load-balancer tokens per probe is
almost entirely redundant work.  Yarrp (Beverly, IMC 2016) and Doubletree
both hinge on keeping per-probe cost O(1) and tiny; this module gives the
simulator the same discipline.

On first touch of a key the cache resolves the *full hop vector* once —
one :class:`~repro.simnet.entities.HopResult` per TTL ``1..ROUTE_CACHE_TTLS``,
built by the exact same code path :meth:`Topology.hop_at` uses
(:meth:`Topology._resolved_hop`) so cached and uncached answers agree by
construction — and stores it as a flat, index-addressed table.  ``hop_at``
then serves every subsequent query for that key with a dict probe plus a
list index, returning the *pre-built* ``HopResult`` objects (the silent
outcome is the shared ``VOID_HOP`` singleton), i.e. zero allocations.

For ``send_probe`` the cache goes further: per probe protocol it derives
an *outcome table* that folds in every send-time-independent decision of
the response path — interface responsiveness, the responder's and quoted
addresses (middlebox rewrite applied), which interface is charged against
the ICMP rate limiter, the one-way and round-trip delays (jitter is keyed
on probe identity, so it is per-slot constant), and the quoted residual
TTL.  A probe that will never be answered costs one dict probe plus a
list index; a responding probe additionally pays only rate limiting and
the construction of its response object.

Cache keys and epoch-awareness
------------------------------
Hop vectors are stored under the *normalized* key
``(dst, flow-class, flap-shift)``:

* ``flow`` only influences routing through per-flow load-balancer
  diamonds, so stubs whose transit contains no diamond collapse every flow
  to class 0 (one shared vector per destination);
* route-flap epochs are folded to their observable effect — the 0/1 silent
  hop shift — so a flappy prefix owns exactly two vectors and an epoch
  change *invalidates by key*, never by flushing.

The per-protocol outcome tables (the ``send_probe`` hot path) are keyed
``(dst, flow, epoch & 1)`` *without* normalization: deriving the
flow-class or the flap flag would itself cost a prefix-record lookup per
probe.  The parity bit is a conservative over-split — a non-flappy
destination probed in both parities builds the same table twice — but a
real scan touches each destination with one flow and (at 100 Kpps) one or
two epochs, so the working set stays ~one table per destination while the
lookup is a single dict probe.

The cache is a pure function of the immutable :class:`Topology`; it is
safe to share across scans and never needs invalidation beyond the epoch
key.  ``SimulatedNetwork(use_route_cache=False)`` bypasses it entirely;
the equivalence tests and ``tools/bench_report.py`` are its callers.

Fault injection (:mod:`repro.simnet.faults`) never touches the cache:
outcome tables stay fault-free, and ``SimulatedNetwork`` applies the
fault filter *after* the lookup, to the response the table produced.
Fault decisions are stateless hashes of probe identity, so cached and
uncached serving modes see identical fault sequences for a given seed
and the tables remain shareable across fault models.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..net.icmp import ResponseKind
from ..net.packets import PROTO_TCP
from .entities import VOID_HOP, HopResult
from .latency import LatencyModel
from .latency import _HASH_MULT as _JITTER_TTL_MULT
from .latency import _JITTER_INC, _JITTER_MULT
from .topology import Topology

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


#: One slot of a per-protocol outcome table, or ``None`` for silence:
#: (response kind *value*, responder address, rate-limited interface id
#:  or -1, one-way delay, round-trip delay, quoted residual TTL, quoted
#:  destination address, middlebox-rewrite flag).  Atoms only (the kind as
#: its string, which ``SimulatedNetwork`` maps back), so the collector
#: untracks a slot on first sight instead of traversing ~10 of them per
#: probed destination in every later pass.
#: Slots in the at/past-destination region hold a shared
#: :class:`LazyDest` placeholder until their first probe realizes (and
#: memoizes) the concrete tuple.
Outcome = Optional[Tuple[str, int, int, float, float, int, int, bool]]

#: Shared all-silent table served for destinations outside the scanned
#: space (the uncached path returns ``None`` for them too).  A tuple, so
#: sharing one instance across keys is mutation-safe.
SILENT_TABLE: Sequence[Outcome] = (None,) * ROUTE_CACHE_TTLS


class _RouteEntry:
    """The materialized hop vector for one ``(dst, flow-class, shift)``."""

    __slots__ = ("hops",)

    def __init__(self, hops: Tuple[HopResult, ...]) -> None:
        #: Flat per-TTL table: ``hops[ttl - 1]`` is the ground-truth
        #: :class:`HopResult` (``VOID_HOP`` singleton for silence).
        self.hops = hops


class LazyDest:
    """Placeholder for the at/past-destination region of an outcome table.

    Once a probe's TTL reaches the destination, every higher TTL yields the
    same response except for the residual TTL and the per-TTL jitter — yet
    the region spans up to half the table while a scan typically probes
    only a few of its slots (the preprobe TTL and the first hits past the
    destination).  So the builder drops one shared ``LazyDest`` into all of
    the region's slots, and the network realizes the concrete outcome tuple
    per slot on first probe, memoizing it back into the (mutable) table.
    """

    __slots__ = ("kind", "dst", "iface", "ow_base", "rt_base", "dest_depth",
                 "quoted_dst", "rewrite", "jit", "half_span", "span")

    def __init__(self, kind: str, dst: int, iface: int,
                 ow_base: float, rt_base: float, dest_depth: int,
                 quoted_dst: int, rewrite: bool, jit: int,
                 half_span: float, span: float) -> None:
        self.kind = kind
        self.dst = dst
        self.iface = iface
        self.ow_base = ow_base
        self.rt_base = rt_base
        self.dest_depth = dest_depth
        self.quoted_dst = quoted_dst
        self.rewrite = rewrite
        self.jit = jit
        self.half_span = half_span
        self.span = span

    def realize(self, ttl: int) -> Tuple:
        """The concrete outcome tuple for one TTL of the region."""
        h = self.jit + ttl * _JITTER_TTL_MULT
        return (self.kind, self.dst, self.iface,
                self.ow_base + self.half_span
                * (((h >> 8) & 0xFFFF) / 65536.0),
                self.rt_base + self.span
                * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                ttl - self.dest_depth + 1, self.quoted_dst, self.rewrite)


class RouteCache:
    """Memoized flat route tables over an immutable :class:`Topology`.

    ``udp_tables``/``tcp_tables`` are deliberately public plain dicts:
    ``SimulatedNetwork`` keeps direct references and probes them inline,
    calling back into :meth:`outcome_table` only on a miss.
    """

    __slots__ = ("_topology", "_latency", "_entries", "_stub_has_lb",
                 "_host_tcp_rst", "_transit_templates", "udp_tables",
                 "tcp_tables", "hits", "misses")

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        cfg = topology.config
        #: Same parameters as the network's model -> identical floats.
        self._latency = LatencyModel(cfg.hop_latency, cfg.latency_jitter)
        self._entries: Dict[Tuple[int, int, int], _RouteEntry] = {}
        #: Flow only matters when the stub's transit contains a diamond.
        self._stub_has_lb = tuple(
            any(token < 0 for token in stub.transit)
            for stub in topology.stubs)
        self._host_tcp_rst = cfg.host_tcp_rst
        #: stub_id -> (transit ifaces with LB slots as -1, LB slot
        #: indices).  Only load-balancer tokens depend on the flow, so the
        #: rest of a stub's transit resolves once, not once per destination.
        self._transit_templates: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        #: (dst, flow, epoch & 1) -> outcome table, per probe protocol.
        self.udp_tables: Dict[Tuple[int, int, int],
                              Sequence[Outcome]] = {}
        self.tcp_tables: Dict[Tuple[int, int, int],
                              Sequence[Outcome]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def topology(self) -> Topology:
        return self._topology

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (for benchmarks and reports).

        ``hits``/``misses`` count at *table* granularity on the hot path:
        a miss per outcome-table build, a hit per lookup served from an
        already-built table.  The engines' last-key memo skips the lookup
        entirely for back-to-back probes of one destination, so hits
        undercount raw probes by design — the cheap path is not charged
        for its own accounting."""
        return {"entries": len(self._entries),
                "udp_tables": len(self.udp_tables),
                "tcp_tables": len(self.tcp_tables),
                "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        """Drop all entries (memory pressure valve; never required for
        correctness — epochs invalidate via the key)."""
        self._entries.clear()
        self._transit_templates.clear()
        self.udp_tables.clear()
        self.tcp_tables.clear()

    # ------------------------------------------------------------------ #
    # Hop vectors
    # ------------------------------------------------------------------ #

    def _entry(self, dst: int, flow: int, epoch: int) -> Optional[_RouteEntry]:
        """The hop-vector entry for a scanned destination, or ``None`` when
        ``dst`` lies outside the scanned space."""
        topo = self._topology
        offset = (dst >> 8) - topo.base_prefix
        if offset < 0 or offset >= topo.num_prefixes:
            return None
        record = topo.prefixes[offset]
        shift = 1 if (record.flap and (epoch & 1)) else 0
        flow_class = flow if self._stub_has_lb[record.stub_id] else 0
        key = (dst, flow_class, shift)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        stub = topo.stubs[record.stub_id]
        octet = dst & 0xFF
        dest_depth, assigned = topo._destination_depth(record, stub, octet,
                                                       shift)
        resolved = topo._resolved_hop
        entry = _RouteEntry(tuple(
            resolved(record, stub, octet, shift, dest_depth, assigned,
                     ttl, flow)
            for ttl in range(1, ROUTE_CACHE_TTLS + 1)))
        self._entries[key] = entry
        return entry

    def hop_at(self, dst: int, ttl: int, flow: int = 0,
               epoch: int = 0) -> HopResult:
        """Drop-in for :meth:`Topology.hop_at`, served from the flat
        tables (allocation-free after the first touch of a key)."""
        if ttl < 1:
            return VOID_HOP
        if ttl > ROUTE_CACHE_TTLS:
            return self._topology.hop_at(dst, ttl, flow=flow, epoch=epoch)
        entry = self._entry(dst, flow, epoch)
        if entry is None:
            return VOID_HOP
        return entry.hops[ttl - 1]

    # ------------------------------------------------------------------ #
    # Outcome tables (the send_probe fast path)
    # ------------------------------------------------------------------ #

    def outcome_table(self, dst: int, flow: int, parity: int,
                      proto: int) -> Sequence[Outcome]:
        """Build, store and return the outcome table for one hot-path key
        ``(dst, flow, parity)``.  Called by the network on a table miss.

        This is a *fused* single pass over the route structure: it walks
        transit → gateway → interior → destination directly (the same
        branch order as :meth:`Topology._resolved_hop`) and folds in
        responsiveness, addresses, rate-limiter charging, latency and
        middlebox rewriting slot by slot, without materializing
        intermediate :class:`HopResult` objects.  Delays are per-slot
        constants because the jitter is keyed on probe identity
        ``(dst, ttl)``, which the slot fixes; the inlined arithmetic below
        reproduces :class:`LatencyModel`'s expressions operation-for-
        operation, so the floats are bit-identical to the uncached path's.
        The equivalence tests compare both paths probe-for-probe and
        scan-for-scan.
        """
        self.misses += 1
        tables = self.tcp_tables if proto == PROTO_TCP else self.udp_tables
        topo = self._topology
        offset = (dst >> 8) - topo.base_prefix
        if offset < 0 or offset >= topo.num_prefixes:
            # Epoch-independent: serve both parities from the one table.
            tables[(dst, flow, 0)] = SILENT_TABLE
            tables[(dst, flow, 1)] = SILENT_TABLE
            return SILENT_TABLE
        record = topo.prefixes[offset]
        stub = topo.stubs[record.stub_id]
        shift = 1 if (record.flap and parity) else 0
        octet = dst & 0xFF
        dest_depth, assigned = topo._destination_depth(record, stub, octet,
                                                       shift)
        tcp = proto == PROTO_TCP
        resp = topo.tcp_resp if tcp else topo.udp_resp
        iface_addrs = topo.iface_addrs
        rewrite = stub.rewrite
        quoted_dst = rewritten_dst(dst) if rewrite else dst
        stub_id = record.stub_id
        template = self._transit_templates.get(stub_id)
        if template is None:
            tokens = stub.transit
            lb_slots = tuple(i for i, token in enumerate(tokens)
                             if token < 0)
            template = (tuple(token if token >= 0 else -1
                              for token in tokens), lb_slots)
            self._transit_templates[stub_id] = template
        transit, lb_slots = template
        if lb_slots:
            # Per-flow fix-up of just the load-balancer slots.
            resolve = topo.resolve_token
            tokens = stub.transit
            patched = list(transit)
            for i in lb_slots:
                patched[i] = resolve(tokens[i], flow)
            transit = patched
        transit_len = len(transit)
        gateway_depth = stub.gateway_depth + shift
        gateway_iface = stub.gateway_iface
        internals = record.internal_ifaces
        num_internals = len(internals)
        special_hosts = record.special_hosts
        if tcp:
            dest_silent = not host_answers_tcp(dst, self._host_tcp_rst)
            dest_kind = ResponseKind.TCP_RST.value
        else:
            dest_silent = False
            dest_kind = ResponseKind.PORT_UNREACHABLE.value
        ttl_exceeded = ResponseKind.TTL_EXCEEDED.value

        # Inlined LatencyModel.one_way/round_trip: base tables indexed by
        # depth plus the jitter hash with the dst term folded into `jit`
        # (integer addition is exact, so the floats are unchanged).
        latency = self._latency
        ow_base = latency._one_way_base
        rt_base = latency._round_trip_base
        half_span = latency._half_span
        span = latency.jitter_span
        jit = dst * _JITTER_MULT + _JITTER_INC
        # Destination delays vary only through the per-TTL jitter; the
        # depth-indexed bases are loop constants.
        dest_ow_base = (ow_base[dest_depth] if dest_depth < len(ow_base)
                        else latency.hop_latency * dest_depth)
        dest_rt_base = (rt_base[dest_depth] if dest_depth < len(rt_base)
                        else (2.0 * latency.hop_latency) * dest_depth)

        # The TTL axis partitions into contiguous segments (transit →
        # silent gap → gateway → interior → at/past destination), so
        # instead of a per-slot branch cascade the table starts all-silent
        # and each segment's loop fills only its responsive slots.  The
        # segment boundaries reproduce :meth:`Topology._resolved_hop`'s
        # branch priority: transit wins below ``transit_len``, the gateway
        # slot only exists above it, everything beyond starts after both.
        table: List[Outcome] = [None] * ROUTE_CACHE_TTLS

        # Transit routers: depth == ttl.
        for ttl in range(1, min(transit_len, ROUTE_CACHE_TTLS) + 1):
            iface = transit[ttl - 1]
            if resp[iface]:
                h = jit + ttl * _JITTER_TTL_MULT
                table[ttl - 1] = (
                    ttl_exceeded, iface_addrs[iface], iface,
                    ow_base[ttl] + half_span
                    * (((h >> 8) & 0xFFFF) / 65536.0),
                    rt_base[ttl] + span
                    * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                    1, dst, False)

        # The gateway slot (the flap-inserted gap below it stays silent).
        if transit_len < gateway_depth <= ROUTE_CACHE_TTLS:
            ttl = gateway_depth
            h = jit + ttl * _JITTER_TTL_MULT
            if dest_depth == gateway_depth:
                # The gateway itself is the destination: delivered, not
                # expired.
                if assigned and not dest_silent:
                    table[ttl - 1] = (
                        dest_kind, dst, gateway_iface,
                        dest_ow_base + half_span
                        * (((h >> 8) & 0xFFFF) / 65536.0),
                        dest_rt_base + span
                        * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                        1, quoted_dst, rewrite)
            elif resp[gateway_iface]:
                table[ttl - 1] = (
                    ttl_exceeded, iface_addrs[gateway_iface], gateway_iface,
                    ow_base[ttl] + half_span
                    * (((h >> 8) & 0xFFFF) / 65536.0),
                    rt_base[ttl] + span
                    * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                    1, dst, False)

        beyond = max(transit_len, gateway_depth) + 1

        if stub.ttl_reset:
            # TTL-normalizing middlebox: everything that crosses the
            # gateway is delivered; no limiter (no router expiry).
            if assigned and not dest_silent:
                reset_value = topo.config.ttl_reset_value
                interior_len = dest_depth - gateway_depth - 1
                for ttl in range(beyond, ROUTE_CACHE_TTLS + 1):
                    residual = max(ttl - gateway_depth, reset_value) \
                        - interior_len
                    h = jit + ttl * _JITTER_TTL_MULT
                    table[ttl - 1] = (
                        dest_kind, dst, -1,
                        dest_ow_base + half_span
                        * (((h >> 8) & 0xFFFF) / 65536.0),
                        dest_rt_base + span
                        * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                        max(residual, 1), quoted_dst, rewrite)
            result: Sequence[Outcome] = table
            tables[(dst, flow, parity)] = result
            if not record.flap:
                # Parity only matters through the flap shift: a stable
                # prefix shares one table across epochs, so a scan whose
                # virtual time crosses epoch boundaries never rebuilds.
                tables[(dst, flow, 1 - parity)] = result
            return result

        # Interior chain: internals[ttl - gateway_depth - 1], with the
        # VLAN-split alternate last hop for the upper host half.
        alt = (record.alt_last_hop if record.alt_last_hop >= 0
               and octet >= 128 and octet not in special_hosts else -1)
        for ttl in range(max(beyond, gateway_depth + 1),
                         min(dest_depth - 1, gateway_depth + num_internals,
                             ROUTE_CACHE_TTLS) + 1):
            index = ttl - gateway_depth - 1
            iface = internals[index]
            if index == num_internals - 1 and alt >= 0:
                iface = alt
            if resp[iface]:
                h = jit + ttl * _JITTER_TTL_MULT
                table[ttl - 1] = (
                    ttl_exceeded, iface_addrs[iface], iface,
                    ow_base[ttl] + half_span
                    * (((h >> 8) & 0xFFFF) / 65536.0),
                    rt_base[ttl] + span
                    * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                    1, dst, False)

        at_dest = max(beyond, dest_depth)
        if assigned:
            if not dest_silent and at_dest <= ROUTE_CACHE_TTLS:
                # The longest segment of the table, yet a scan probes only
                # a few of its slots (preprobe + first hits past the
                # destination): fill it with one shared placeholder that
                # the network realizes per slot on first probe.
                lazy = LazyDest(dest_kind, dst,
                                special_hosts.get(octet, -1),
                                dest_ow_base, dest_rt_base, dest_depth,
                                quoted_dst, rewrite, jit, half_span, span)
                table[at_dest - 1:] = \
                    [lazy] * (ROUTE_CACHE_TTLS - at_dest + 1)
        elif stub.loop_unassigned and transit_len:
            # Default-route loop: probes keep expiring between the last-hop
            # router and its upstream, alternating by hop parity.
            if internals:
                last_hop = internals[-1]
                upstream = (internals[-2] if num_internals > 1
                            else gateway_iface)
            else:
                last_hop = gateway_iface
                upstream = transit[-1]
            for ttl in range(at_dest, ROUTE_CACHE_TTLS + 1):
                iface = (last_hop if (ttl - dest_depth) % 2 == 0
                         else upstream)
                if resp[iface]:
                    h = jit + ttl * _JITTER_TTL_MULT
                    table[ttl - 1] = (
                        ttl_exceeded, iface_addrs[iface], iface,
                        ow_base[ttl] + half_span
                        * (((h >> 8) & 0xFFFF) / 65536.0),
                        rt_base[ttl] + span
                        * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                        1, dst, False)
        elif stub.host_unreachable:
            last_hop = internals[-1] if internals else gateway_iface
            if resp[last_hop]:
                # The uncached path charges the *unshifted* gateway depth
                # for latency here; the responder address and the delay
                # bases are per-slot constants, only the jitter varies.
                depth = stub.gateway_depth
                unreachable = ResponseKind.HOST_UNREACHABLE.value
                last_addr = iface_addrs[last_hop]
                gw_ow_base = ow_base[depth]
                gw_rt_base = rt_base[depth]
                for ttl in range(at_dest, ROUTE_CACHE_TTLS + 1):
                    h = jit + ttl * _JITTER_TTL_MULT
                    table[ttl - 1] = (
                        unreachable, last_addr, last_hop,
                        gw_ow_base + half_span
                        * (((h >> 8) & 0xFFFF) / 65536.0),
                        gw_rt_base + span
                        * ((((h + 1) >> 8) & 0xFFFF) / 65536.0),
                        1, quoted_dst, rewrite)
        result = table
        tables[(dst, flow, parity)] = result
        if not record.flap:
            tables[(dst, flow, 1 - parity)] = result
        return result
