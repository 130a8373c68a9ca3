"""The probe-answering network: topology + dynamics.

:class:`SimulatedNetwork` wraps the static :class:`~repro.simnet.topology.
Topology` ground truth with everything that varies at probe time: interface
responsiveness per probe protocol, per-interface ICMP rate limiting, latency,
route-dynamics epochs, destination-rewriting middleboxes, and an optional
probe log for the intrusiveness analysis.

``send_probes`` is the resolver every probing engine reaches: a burst of
probes none of which depends on a response to another (FlashRoute's ring
walk and Yarrp's bulk phase arrive in bursts of up to 64, Scamper and
classic traceroute in bursts of one).  Probes are plain tuples — no
per-probe object is allocated unless a response exists — because full scans
push through 10^5..10^7 of them.  By default it is served from a
:class:`~repro.simnet.routecache.RouteCache`.  A slot is read once per
scan; the route is what repeats — so the cache holds the route only, one
list of interface ids per ``(dst, flow, epoch parity)``, and a probe costs
a table lookup (once per run of probes to one key) plus, for responders
only, what is derived here at lookup (responsiveness, the responder's
address, the two delays with :class:`LatencyModel`'s exact expressions,
hence bit-identical floats), rate limiting and response construction.
Nothing is written back: tables are immutable.  ``send_probe`` is the
scalar door onto the same loop — a one-probe burst — for callers that
decide each probe from the last answer, and the one that takes the
``single`` hint.  ``_send_probe_uncached`` resolves one probe straight from
the topology: it answers a ``single`` miss and a TTL beyond the tables, and
the tests' reference network (``tests/oracle/network.py``) answers every
probe through it to check the tables against, probe-for-probe.

Fault injection (:mod:`repro.simnet.faults`) composes with both paths: when
a :class:`~repro.simnet.faults.FaultModel` is enabled, resolved responses
pass through :meth:`FaultInjector.filter` at the exact point they would be
returned, on the cached and the uncached path alike.  Fault decisions are
stateless per-probe hashes, so the same fault seed yields the same fault
sequence on either path and the cached-vs-uncached equivalence guarantee
extends to faulted scans.  A disabled (default) model costs the hot path
nothing beyond one ``is not None`` test per response.
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Sequence, Tuple

from ..net.icmp import IcmpResponse, ResponseKind
from ..net.packets import PROTO_TCP, PROTO_UDP, ProbeHeader, UDP_HEADER_LEN
from .engine import ProbeLog
from .entities import HopKind
from .faults import FaultInjector, FaultModel
from .latency import _HASH_MULT, _JITTER_INC, _JITTER_MULT, LatencyModel
from .ratelimit import _GENERATION_SHIFT, IcmpRateLimiter
from .routecache import (ROUTE_CACHE_TTLS, RouteCache, host_answers_tcp,
                         rewritten_dst)
from .topology import Topology

_TTL_EXCEEDED = ResponseKind.TTL_EXCEEDED

#: One probe of a ``send_probes`` batch: (dst, ttl, send_time, src_port,
#: ipid, udp_length).  Destination port, protocol and flow are per-batch.
BatchProbe = Tuple[int, int, float, int, int, int]


class SimulatedNetwork:
    """Answers probes against a topology, with dynamic per-scan state.

    Create one per scan (or call :meth:`reset` between scans) so rate-limit
    bins and counters start clean, mirroring independent real-world runs.
    """

    __slots__ = ("topology", "latency", "rate_limiter", "route_cache",
                 "probe_log", "probes_sent", "responses_generated",
                 "rewritten_responses", "_flap_epoch_seconds", "faults",
                 "_spare_limiters", "__weakref__")

    def __init__(self, topology: Topology, log_probes: bool = False,
                 rate_limit: Optional[int] = None,
                 faults: Optional[FaultModel] = None) -> None:
        cfg = topology.config
        self._open(topology,
                   LatencyModel(cfg.hop_latency, cfg.latency_jitter),
                   RouteCache(topology), faults, rate_limit, log_probes, [])

    def _open(self, topology: Topology, latency: LatencyModel,
              route_cache: RouteCache,
              faults: Optional[FaultModel], rate_limit: Optional[int],
              log_probes: bool, spare_limiters: list) -> None:
        """Bind the core a session shares (immutable topology, stateless
        latency model, route cache, the limiters its dead sessions left)
        and start its own dynamic state."""
        self.topology = topology
        cfg = topology.config
        model = faults if faults is not None else cfg.faults
        #: Fault-injection layer; ``None`` when the model injects nothing,
        #: so the default hot path pays only one attribute test.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(model) if model.enabled else None)
        self.latency = latency
        limit = rate_limit if rate_limit is not None else cfg.icmp_rate_limit
        if spare_limiters:
            # A dead session's limiter, emptied in O(1): its bins are sized
            # to the whole topology, and a trace session must not allocate
            # and zero them anew.
            self.rate_limiter = spare_limiters.pop()
            self.rate_limiter.reset(limit)
        else:
            self.rate_limiter = IcmpRateLimiter(limit,
                                                len(topology.iface_addrs))
        self._spare_limiters = spare_limiters
        self.route_cache = route_cache
        self.probe_log: Optional[ProbeLog] = ProbeLog() if log_probes else None
        self.probes_sent = 0
        self.responses_generated = 0
        self.rewritten_responses = 0
        self._flap_epoch_seconds = cfg.flap_epoch_seconds

    def reset(self) -> None:
        """Clear dynamic state between scans over the same topology.

        The route cache survives: it is a pure function of the immutable
        topology (epochs are part of its key), so it stays warm across
        back-to-back scans exactly like real routes persist between runs.
        """
        self.rate_limiter.reset()
        if self.probe_log is not None:
            self.probe_log = ProbeLog()
        if self.faults is not None:
            self.faults.reset_counters()
        self.probes_sent = 0
        self.responses_generated = 0
        self.rewritten_responses = 0

    def stats(self) -> dict:
        """One nested view of every counter this network accumulates —
        sends, route-cache effectiveness, rate-limiter stalls and fault
        draws — for :func:`repro.obs.record_network`, ``metrics-out``
        files and the CLI's fault-telemetry output.  Pure reads; calling
        it never perturbs the hot path."""
        return {
            "probes_sent": self.probes_sent,
            "responses_generated": self.responses_generated,
            "rewritten_responses": self.rewritten_responses,
            "ratelimit": self.rate_limiter.stats(),
            "route_cache": self.route_cache.stats(),
            "faults": (self.faults.stats()
                       if self.faults is not None else None),
        }

    @property
    def drop_count(self) -> int:
        """Rate-limiter drops so far (the adaptive-rate controller's
        per-round backoff signal)."""
        return self.rate_limiter.dropped

    def export_dynamic_state(self, now: float) -> dict:
        """Serialize the per-scan dynamic state for a checkpoint.

        Covers everything that influences future probe outcomes or the
        final fault/limiter statistics: send counters, live rate-limiter
        bins (via :meth:`IcmpRateLimiter.export_bins`) and fault-injector
        counters.  The route cache and its hit counters are deliberately
        excluded — they are pure functions of the immutable topology and
        only affect performance, never responses.
        """
        state = {
            "probes_sent": self.probes_sent,
            "responses_generated": self.responses_generated,
            "rewritten_responses": self.rewritten_responses,
            "ratelimit": self.rate_limiter.export_bins(now),
            "faults": None,
        }
        if self.faults is not None:
            state["faults"] = self.faults.stats()
        return state

    def restore_dynamic_state(self, state: dict) -> None:
        """Restore counters and limiter bins from
        :meth:`export_dynamic_state` (checkpoint resume)."""
        self.probes_sent = state["probes_sent"]
        self.responses_generated = state["responses_generated"]
        self.rewritten_responses = state["rewritten_responses"]
        self.rate_limiter.restore_bins(state["ratelimit"])
        fault_state = state.get("faults")
        if fault_state is not None and self.faults is not None:
            self.faults.restore_counters(fault_state)

    def open_session(self, faults: Optional[FaultModel] = None,
                     rate_limit: Optional[int] = None,
                     log_probes: bool = False) -> "SimulatedNetwork":
        """A per-scan *session view* over this network's warm core.

        The view shares the immutable :class:`Topology`, the stateless
        :class:`LatencyModel` and the warm :class:`RouteCache` (this
        network's serving mode) — everything that is a pure function of
        the topology — while owning every piece of dynamic per-scan state
        privately: fresh rate-limiter bins, zeroed send/response/fault
        counters and (when ``faults`` enables one) its own
        :class:`FaultInjector`.

        Sessions opened off one warm network are therefore **mutually
        invisible**: interleaving probes from two sessions — each on its
        own virtual clock, as the service daemon does — yields exactly
        the responses each session would see run back to back (pinned by
        ``tests/test_network_session.py``).  A bare shared network cannot
        promise that: its one-second rate-limiter bins are keyed by
        virtual send time, so two scans whose clocks overlap would fill
        each other's bins.

        Sharing the cache is safe: outcome tables are deterministic pure
        functions of the topology and immutable once built.  So is reusing
        a dead session's rate limiter: when a session is collected its
        limiter returns to the core, and the next session takes it with
        every bin invalidated by :meth:`IcmpRateLimiter.reset`.
        """
        session = SimulatedNetwork.__new__(SimulatedNetwork)
        spares = self._spare_limiters
        session._open(self.topology, self.latency, self.route_cache, faults,
                      rate_limit, log_probes, spares)
        weakref.finalize(session, spares.append, session.rate_limiter)
        return session

    # ------------------------------------------------------------------ #

    def _epoch(self, send_time: float) -> int:
        return int(send_time / self._flap_epoch_seconds)

    def send_probe(self, dst: int, ttl: int, send_time: float,
                   src_port: int, dst_port: int = 33434, ipid: int = 0,
                   udp_length: int = UDP_HEADER_LEN, proto: int = PROTO_UDP,
                   flow: Optional[int] = None,
                   single: bool = False) -> Optional[IcmpResponse]:
        """Inject one probe; return its response, or ``None`` for silence:
        a one-element :meth:`send_probes` burst.

        ``flow`` is the load-balancer flow identifier and defaults to the
        source port (per-flow balancers hash the 5-tuple; within one scan
        FlashRoute keeps ports constant per destination, so the flow only
        changes across discovery-optimized extra scans).

        ``single`` hints that no further probes will target this
        destination (e.g. a hitlist preprobe whose representative differs
        from the main-phase target): a cached outcome table is still used
        if one exists, but a miss resolves the probe directly instead of
        building a 32-slot table that nothing would amortize.  Purely a
        performance hint — responses are identical either way.
        """
        if single:
            cache = self.route_cache
            tables = (cache.tcp_tables if proto == PROTO_TCP
                      else cache.udp_tables)
            if (dst, src_port if flow is None else flow,
                    int(send_time / self._flap_epoch_seconds) & 1
                    ) not in tables:
                return self._send_probe_uncached(
                    dst, ttl, send_time, src_port, dst_port, ipid,
                    udp_length, proto, flow)
        return self.send_probes(
            ((dst, ttl, send_time, src_port, ipid, udp_length),),
            dst_port, proto, flow)[0]

    def send_probes(self, probes: Iterable[BatchProbe],
                    dst_port: int = 33434, proto: int = PROTO_UDP,
                    flow: Optional[int] = None
                    ) -> List[Optional[IcmpResponse]]:
        """Inject a burst of probes; return one response slot per probe.

        ``probes`` yields ``(dst, ttl, send_time, src_port, ipid,
        udp_length)`` tuples, already paced by the caller's clock.  No
        probe of the burst may depend on a response to an earlier one —
        batching never reorders or delays responses, it only amortizes the
        per-destination route lookups and the per-call set-up.
        :meth:`send_probe` is this method on a burst of one.
        """
        cache = self.route_cache
        results: List[Optional[IcmpResponse]] = []
        append = results.append
        log = self.probe_log
        topo = self.topology
        if proto == PROTO_TCP:
            tables = cache.tcp_tables
            resp = topo.tcp_resp
        else:
            tables = cache.udp_tables
            resp = topo.udp_resp
        iface_addrs = topo.iface_addrs
        latency = self.latency
        ow_base = latency._one_way_base
        rt_base = latency._round_trip_base
        half_span = latency._half_span
        span = latency.jitter_span
        get_table = tables.get
        build_table = cache.outcome_table
        limiter = self.rate_limiter
        stamp = limiter._stamp
        count_arr = limiter._count
        limit = limiter.limit
        gen_base = (limiter._generation + 1) << _GENERATION_SHIFT
        epoch_seconds = self._flap_epoch_seconds
        vantage = topo.vantage_addr
        faults = self.faults
        sent = 0
        rewritten = 0
        generated = 0
        last_key = None
        table: Optional[Sequence] = None
        for dst, ttl, send_time, src_port, ipid, udp_length in probes:
            sent += 1
            if log is not None:
                log.append(send_time, dst, ttl)
            if not 1 <= ttl <= ROUTE_CACHE_TTLS:
                self.probes_sent += sent
                self.rewritten_responses += rewritten
                self.responses_generated += generated
                sent = rewritten = generated = 0
                append(self._send_probe_uncached(
                    dst, ttl, send_time, src_port, dst_port, ipid,
                    udp_length, proto, flow, counted=True))
                continue
            key = (dst, src_port if flow is None else flow,
                   int(send_time / epoch_seconds) & 1)
            if key != last_key:
                table = get_table(key)
                if table is None:
                    table = build_table(key[0], key[1], key[2], proto)
                else:
                    cache.hits += 1
                last_key = key
            slot = table[ttl - 1]
            if slot is None:
                append(None)
                continue
            if slot.__class__ is int:
                # A router expiry: everything but the interface id is
                # derived here, with LatencyModel.one_way/round_trip's
                # expressions operation for operation (bit-identical floats).
                iface = slot
                if not resp[iface]:
                    append(None)
                    continue
                h = dst * _JITTER_MULT + _JITTER_INC + ttl * _HASH_MULT
                ow_delay = ow_base[ttl] + half_span \
                    * (((h >> 8) & 0xFFFF) / 65536.0)
                rt_delay = rt_base[ttl] + span \
                    * ((((h + 1) >> 8) & 0xFFFF) / 65536.0)
                kind = _TTL_EXCEEDED
                responder = iface_addrs[iface]
                residual = 1
                quoted_dst = dst
                rewrite = False
            else:
                kind, responder, iface, ow_delay, rt_delay, residual, \
                    quoted_dst, rewrite = slot.outcome(dst, ttl)
            if iface >= 0:
                # Inlined IcmpRateLimiter.allow, hoisted per batch: on the
                # hot path the call overhead itself is measurable.  The
                # method stays authoritative (reference path, unit tests).
                token = gen_base + int(send_time + ow_delay)
                if stamp[iface] != token:
                    stamp[iface] = token
                    count_arr[iface] = 1
                else:
                    count = count_arr[iface] + 1
                    count_arr[iface] = count
                    if count > limit:
                        limiter.dropped += 1
                        limiter._overprobed.add(iface)
                        append(None)
                        continue
            if rewrite:
                rewritten += 1
            generated += 1
            # Direct slot stores instead of the two constructors: the
            # response objects are the last interpreter-frame calls left on
            # the fast path, and a scan allocates one pair per responding
            # probe.
            quoted = ProbeHeader.__new__(ProbeHeader)
            quoted.src = vantage
            quoted.dst = quoted_dst
            quoted.ttl = residual
            quoted.ipid = ipid
            quoted.proto = proto
            quoted.src_port = src_port
            quoted.dst_port = dst_port
            quoted.udp_length = udp_length
            quoted.tcp_seq = 0
            quoted.payload = b""
            response = IcmpResponse.__new__(IcmpResponse)
            response.kind = kind
            response.responder = responder
            response.quoted = quoted
            response.arrival_time = send_time + rt_delay
            response.quoted_residual_ttl = residual
            response.is_duplicate = False
            response.dup = None
            if faults is not None:
                response = faults.filter(dst, ttl, send_time, response)
            append(response)
        self.probes_sent += sent
        self.rewritten_responses += rewritten
        self.responses_generated += generated
        return results

    def _send_probe_uncached(self, dst: int, ttl: int, send_time: float,
                             src_port: int, dst_port: int = 33434,
                             ipid: int = 0,
                             udp_length: int = UDP_HEADER_LEN,
                             proto: int = PROTO_UDP,
                             flow: Optional[int] = None,
                             counted: bool = False
                             ) -> Optional[IcmpResponse]:
        """Resolve one probe from the topology, with no outcome table: the
        path for a ``single`` miss and a TTL beyond the tables, and the
        ground truth the equivalence tests compare the tables against."""
        if not counted:
            self.probes_sent += 1
            if self.probe_log is not None:
                self.probe_log.append(send_time, dst, ttl)

        topo = self.topology
        hop = topo.hop_at(dst, ttl, flow=flow if flow is not None else src_port,
                          epoch=self._epoch(send_time))
        kind = hop.kind
        if kind is HopKind.VOID:
            return None

        if kind in (HopKind.ROUTER, HopKind.LOOP_ROUTER):
            iface = hop.iface
            responsive = (topo.tcp_resp[iface] if proto == PROTO_TCP
                          else topo.udp_resp[iface])
            if not responsive:
                return None
            depth = ttl
            if not self.rate_limiter.allow(
                    iface, send_time + self.latency.one_way(depth, dst, ttl)):
                return None
            return self._respond(ResponseKind.TTL_EXCEEDED,
                                 topo.iface_addrs[iface], dst, ttl,
                                 residual=1, depth=depth,
                                 send_time=send_time, src_port=src_port,
                                 dst_port=dst_port, ipid=ipid,
                                 udp_length=udp_length, proto=proto)

        if kind is HopKind.GATEWAY_UNREACHABLE:
            iface = hop.iface
            responsive = (topo.tcp_resp[iface] if proto == PROTO_TCP
                          else topo.udp_resp[iface])
            if not responsive:
                return None
            stub = topo.stubs[topo.prefix_stub[topo.prefix_offset(dst)]]
            depth = stub.gateway_depth
            if not self.rate_limiter.allow(
                    iface, send_time + self.latency.one_way(depth, dst, ttl)):
                return None
            return self._respond(ResponseKind.HOST_UNREACHABLE,
                                 topo.iface_addrs[iface], dst, ttl,
                                 residual=1, depth=depth,
                                 send_time=send_time, src_port=src_port,
                                 dst_port=dst_port, ipid=ipid,
                                 udp_length=udp_length, proto=proto,
                                 maybe_rewrite=stub.rewrite)

        # Destination reached.
        depth = hop.dest_depth
        if proto == PROTO_TCP:
            if not host_answers_tcp(dst, topo.config.host_tcp_rst):
                return None
            response_kind = ResponseKind.TCP_RST
        else:
            response_kind = ResponseKind.PORT_UNREACHABLE
        if hop.iface >= 0:
            # A router interface probed directly: its ICMP generation is
            # subject to the same rate limiting.
            if not self.rate_limiter.allow(
                    hop.iface,
                    send_time + self.latency.one_way(depth, dst, ttl)):
                return None
        stub = topo.stubs[topo.prefix_stub[topo.prefix_offset(dst)]]
        return self._respond(response_kind, dst, dst, ttl,
                             residual=hop.residual_ttl, depth=depth,
                             send_time=send_time, src_port=src_port,
                             dst_port=dst_port, ipid=ipid,
                             udp_length=udp_length, proto=proto,
                             maybe_rewrite=stub.rewrite)

    def _respond(self, kind: ResponseKind, responder: int, dst: int,
                 ttl: int, residual: int, depth: int, send_time: float,
                 src_port: int, dst_port: int, ipid: int, udp_length: int,
                 proto: int,
                 maybe_rewrite: bool = False) -> Optional[IcmpResponse]:
        quoted_dst = dst
        if maybe_rewrite:
            quoted_dst = rewritten_dst(dst)
            self.rewritten_responses += 1
        quoted = ProbeHeader(src=self.topology.vantage_addr, dst=quoted_dst,
                             ttl=residual, ipid=ipid, proto=proto,
                             src_port=src_port, dst_port=dst_port,
                             udp_length=udp_length)
        self.responses_generated += 1
        arrival = send_time + self.latency.round_trip(depth, dst, ttl)
        response = IcmpResponse(kind=kind, responder=responder, quoted=quoted,
                                arrival_time=arrival,
                                quoted_residual_ttl=residual)
        faults = self.faults
        if faults is not None:
            return faults.filter(dst, ttl, send_time, response)
        return response
