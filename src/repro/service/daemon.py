"""The scan daemon: a warm engine answering streamed trace requests.

Layering:

* :class:`TraceService` — the transport-free core.  Owns the warm
  :class:`repro.api.Engine`, the LRU result cache with epoch-based
  invalidation, admission control and the service counters.  Tests
  drive it directly, without sockets.
* :func:`serve` / the connection handler — NDJSON over an asyncio TCP
  or Unix-domain socket.  One JSON object per line in, one per line
  out; each connection handles its requests sequentially, concurrency
  comes from concurrent connections.

Wire protocol (see docs/service.md for the full reference)::

    → {"destination": "20.0.0.7", "flow": 3}
    ← {"type": "hop", "ip": "60.0.0.0", "ttl": 1, ...}      (per hop)
    ← {"type": "done", "cache": "miss", "epoch": 0, "trace": {...}}

    → {"control": "stats"}
    ← {"type": "stats", "requests": 12, "cache_hits": 7, ...}

A trace is pure CPU on the virtual network, so a miss runs it to the
end in the call that looked it up: no request ever sees a trace half
done, and one ``(destination, flow)`` gets one probe stream because a
same-key request that arrives later finds the finished entry.  The
finished :class:`Flight` *is* the cache entry, kept under its key with
the **route epoch** it ran in; a lookup in a later epoch discards it
(the simulated network's routes flap every ``flap_epoch_seconds``, so
the cached path may no longer exist).  Hit and miss are then served
alike — the entry's hops, then its ``done`` record — and a hit touches
neither the network nor the engine's probe counters.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import operator
import signal
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import AsyncIterator, Deque, List, Optional, Set, Tuple

from ..api import Engine, ScanRequest, TraceRequest
from ..simnet.ratelimit import MAX_VIRTUAL_SECONDS
from .obs import ServiceTelemetry

#: Traces a warm engine can answer per second is bounded by the event
#: loop, not the virtual network; each *fresh* trace nudges the service's
#: virtual clock forward by this many virtual seconds, so route epochs
#: roll over after ``flap_epoch_seconds / TRACE_TICK`` traces and the
#: cache's epoch invalidation exercises itself in long-running daemons.
TRACE_TICK = 1.0

#: Default LRU capacity of the result cache (entries, not bytes).
DEFAULT_CACHE_SIZE = 4096

#: Event-loop lag (ms) beyond which the ``health`` op reports the
#: daemon as not live — the loop is too far behind to serve promptly.
LIVENESS_LAG_MS = 1000.0

#: Wall seconds between the telemetry monitor's event-loop lag readings.
LAG_INTERVAL = 0.5

#: Unit of the ``retry_after_ms`` hint attached to ``overloaded`` sheds:
#: the hint scales linearly with the work already admitted + queued, so
#: backing clients off harder the deeper the backlog.
RETRY_AFTER_UNIT_MS = 100.0

#: How a served request is reported, by the wire's ``cache`` mode:
#: ``(telemetry outcome, span phase that follows the lookup)``.
_MODES = {"hit": ("hit", "cache-replay"),
          "miss": ("fresh", "probe-stream")}


class ServiceError(ValueError):
    """A client-visible request failure (maps to an ``error`` record)."""


class _Terminal(Exception):
    """Internal control flow: the request ends here without a trace.
    ``args`` is ``(outcome, error, record)`` — the telemetry outcome
    class, its ``error`` field and the terminal wire record — which
    :meth:`TraceService.handle_trace`'s single exit counts and sends."""


def _internal_error(exc: Exception) -> dict:
    """The terminal record of a server-side bug (``code: internal``)."""
    return {"type": "error", "code": "internal",
            "error": f"internal error: {exc.__class__.__name__}: {exc}"}


class Flight:
    """One finished trace: the daemon's only per-key record.

    A walk that completed carries its ``result`` (whose ``hops`` are
    :attr:`hops`) and is the cache entry the next request for its key is
    served from; one that failed carries only its ``error``.
    """

    __slots__ = ("key", "epoch", "hops", "lines", "result", "error")

    def __init__(self, key: Tuple[int, int], epoch: int,
                 result: Optional[dict] = None,
                 error: Optional[str] = None) -> None:
        self.key = key
        self.epoch = epoch
        self.result = result
        self.error = error
        self.hops: List[dict] = result["hops"] if result else []
        #: Wire lines of :attr:`hops`, formatted by the first response
        #: that carries them (see :func:`_hop_lines`).
        self.lines: List[bytes] = []


def _hop_records(flight: Flight) -> List[dict]:
    return [{"type": "hop", **record} for record in flight.hops]


def _done_record(flight: Flight, mode: str) -> dict:
    return {"type": "done", "cache": mode, "epoch": flight.epoch,
            "trace": flight.result}


class TraceService:
    """The daemon's transport-free core: warm engine, cache, admission."""

    def __init__(self, engine: Engine,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 telemetry: Optional[ServiceTelemetry] = None,
                 default_deadline_ms: Optional[float] = None,
                 max_inflight: Optional[int] = None,
                 max_queued: int = 0) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if default_deadline_ms is not None and (
                not math.isfinite(default_deadline_ms)
                or default_deadline_ms <= 0):
            raise ValueError(
                "default_deadline_ms must be a positive finite number")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.engine = engine
        self.cache_size = cache_size
        #: Server-side deadline applied to requests that carry none of
        #: their own; ``None`` (the default) imposes no deadline.
        self.default_deadline_ms = default_deadline_ms
        #: Admission control: at most ``max_inflight`` trace requests
        #: being served at once, at most ``max_queued`` more waiting for
        #: a slot; overflow is shed with a structured ``overloaded``
        #: error.  ``None`` (the default) admits everything.
        self.max_inflight = max_inflight
        self.max_queued = max_queued
        #: Graceful-drain latch: once set, new trace requests are shed
        #: with a ``draining`` error while control ops keep answering.
        self.draining = False
        #: Optional observability bundle (``None`` keeps every request
        #: path on the uninstrumented code, matching repro.obs's
        #: zero-overhead contract).
        self.telemetry = telemetry
        #: The service's virtual clock — trace start times are drawn from
        #: it, which is what ties results to route epochs.
        self.now = 0.0
        #: The LRU of finished traces, the only per-key table.
        self._cache: "OrderedDict[Tuple[int, int], Flight]" = OrderedDict()
        # Admission bookkeeping: an explicit counter plus a FIFO of
        # waiter futures (not an asyncio.Semaphore — the explicit deque
        # keeps cancelled/timed-out waiters from swallowing released
        # slots and gives the shed path an exact queue depth).
        self._admitted = 0
        self._admit_queue: Deque[asyncio.Future] = deque()
        # Counters (all monotonic; surfaced by the stats control op).
        self.requests = 0
        self.traces_started = 0
        self.cache_hits = 0
        self.errors = 0
        self.evicted_epoch = 0
        self.evicted_lru = 0
        self.probes_sent = 0
        self.deadlined = 0
        self.shed = 0
        self.internal_errors = 0

    # -- time and epochs -------------------------------------------------

    @property
    def epoch(self) -> int:
        return int(self.now / self.engine.flap_epoch_seconds)

    def advance(self, seconds: float) -> None:
        """Advance the service clock (the ``advance`` control op; crossing
        an epoch boundary invalidates every cached trace lazily)."""
        # NaN slips past a plain `< 0` check and infinity past a range
        # check; either would poison self.now for the daemon's lifetime
        # (epoch computation and cache invalidation never recover).
        if not math.isfinite(seconds):
            raise ServiceError("advance needs a finite number of seconds")
        if seconds < 0:
            raise ServiceError("cannot advance time backwards")
        # The result, not just the step: two finite steps can sum to
        # infinity, and a clock past the simulated network's range fails
        # every later trace — the same lifelong poisoning.
        if not self.now + seconds < MAX_VIRTUAL_SECONDS:
            raise ServiceError(
                f"cannot advance past virtual second {MAX_VIRTUAL_SECONDS}"
                f" (the simulated network's clock range)")
        self.now += seconds

    # -- cache -----------------------------------------------------------

    def cache_store(self, flight: Flight) -> None:
        if self.cache_size == 0:
            return
        self._cache[flight.key] = flight
        self._cache.move_to_end(flight.key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.evicted_lru += 1

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    # -- deadlines and admission control ---------------------------------

    def _take_deadline(self, payload: dict) -> Optional[float]:
        """Pop the client-supplied ``deadline_ms`` (like ``id``, a
        transport-level field the :class:`TraceRequest` schema never
        sees); fall back to the server default.  Raises
        :class:`ServiceError` on a non-positive or non-finite value."""
        value = payload.pop("deadline_ms", None) \
            if isinstance(payload, dict) else None
        if value is None:
            return self.default_deadline_ms
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value <= 0:
            raise ServiceError(
                "deadline_ms must be a positive finite number of "
                "milliseconds")
        return float(value)

    async def _acquire_slot(self, deadline_ms: Optional[float]) -> None:
        """Admission gate (only called when ``max_inflight`` is set).

        Returns once a slot is held; raises the ``overloaded`` shed when
        the wait queue is full and ``deadline_exceeded`` when the
        request's deadline expired while queued.  FIFO: a freed slot
        goes to the oldest still-live waiter (see :meth:`_release_slot`).
        """
        if self._admitted < self.max_inflight and not self._admit_queue:
            self._admitted += 1
            return
        if len(self._admit_queue) >= self.max_queued:
            # The backoff hint is linear in the backlog (admitted +
            # queued), so deeper overload pushes clients further out.
            backlog = self._admitted + len(self._admit_queue)
            raise _Terminal("shed", "overloaded", {
                "type": "error", "code": "overloaded",
                "error": f"server overloaded ({self._admitted} in flight, "
                         f"{len(self._admit_queue)} queued)",
                "retry_after_ms": round(
                    RETRY_AFTER_UNIT_MS * max(1, backlog), 1)})
        future = asyncio.get_running_loop().create_future()
        self._admit_queue.append(future)
        try:
            if deadline_ms is None:
                await future
            else:
                await asyncio.wait_for(future, deadline_ms / 1000.0)
            # Granted: _release_slot already moved the slot count to us
            # and popped the future from the queue.
        except BaseException as exc:
            # Deadline passed, client vanished or handler cancelled
            # while queued: surrender the queue position — or the slot,
            # if one was granted in the same tick.
            if future.done() and not future.cancelled():
                self._release_slot()
            else:
                with contextlib.suppress(ValueError):
                    self._admit_queue.remove(future)
            if isinstance(exc, asyncio.TimeoutError):
                raise _Terminal("deadline", "deadline_exceeded", {
                    "type": "error", "code": "deadline_exceeded",
                    "error": f"deadline of {deadline_ms:g} ms exceeded",
                    "deadline_ms": deadline_ms}) from None
            raise

    def _release_slot(self) -> None:
        """Free one admission slot and hand it to the oldest live
        waiter (skipping waiters that timed out or were cancelled)."""
        self._admitted -= 1
        while self._admit_queue:
            future = self._admit_queue.popleft()
            if not future.done():
                self._admitted += 1
                future.set_result(None)
                return

    # -- traces ----------------------------------------------------------

    def _lookup(self, request: TraceRequest) -> Tuple[Flight, str]:
        """The one per-request lookup: the finished trace that answers
        this key and how — ``"hit"`` (cached, current epoch) or
        ``"miss"`` (traced here)."""
        key = request.key
        flight = self._cache.get(key)
        if flight is not None:
            if flight.epoch == self.epoch:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return flight, "hit"
            # The routes this trace saw have flapped since; the entry is
            # stale for good, not just for this request.
            del self._cache[key]
            self.evicted_epoch += 1
        # TraceSession construction validates the destination against
        # the engine's address space (ValueError).
        return self._start_flight(request), "miss"

    def _start_flight(self, request: TraceRequest) -> Flight:
        """Trace ``request`` to the end in this call and cache the
        result.  The walk's route tables are dropped as it ends, so the
        warm core holds none at rest and does not grow with every key
        ever served; a later trace of the key rebuilds them."""
        epoch = self.epoch
        session = self.engine.open_session(request, start_time=self.now)
        self.now += TRACE_TICK
        self.traces_started += 1
        try:
            for _ in session.stream():
                pass
            flight = Flight(request.key, epoch, session.result())
        except Exception as exc:  # answer this request, never kill the daemon
            return Flight(request.key, epoch, error=f"trace failed: {exc}")
        finally:
            self.engine.drop_route(*request.key)
        probes = session.network.probes_sent
        self.probes_sent += probes
        if self.telemetry is not None:
            self.telemetry.record_flight_probes(probes)
        self.cache_store(flight)
        return flight

    # -- request handling ------------------------------------------------

    @staticmethod
    def _virtual_ms(result: Optional[dict]) -> float:
        """A trace's virtual-time duration in milliseconds (the
        deterministic latency the histograms record)."""
        if not result:
            return 0.0
        return max(0.0, (result["last"] - result["first"]) * 1000.0)

    async def handle_trace(self, payload: dict, hops=_hop_records,
                           done=_done_record) -> AsyncIterator:
        """Serve one trace request as a stream of protocol records.

        Yields ``hop`` records followed by exactly one terminal record
        (``done`` or ``error``).  ``hops(flight)`` (the records of
        ``flight.hops``) and ``done(flight, mode)`` build the served
        records; the defaults build protocol dicts, the transport passes
        builders of wire lines (:func:`_hop_lines`, :func:`_done_line`).
        Every ``error`` record is a dict.  Raises nothing: malformed
        requests, expired deadlines, admission refusals and even
        engine/session bugs all become structured ``error`` records —
        one failing request never kills the daemon.

        Gate order: deadline extraction → drain latch → admission →
        parse/serve.  A shed request is refused before any parsing or
        engine work is spent on it.  A deadline bounds only the wait for
        admission: an admitted request is answered in full.  Hit and
        miss are then served alike — the finished trace's hops, then its
        ``done`` record — and every ending, served or refused, leaves
        through the one exit below the ``except`` clauses.
        """
        obs = self.telemetry
        ctx = obs.begin_request(self.now) if obs is not None else None
        self.requests += 1
        admitted = False
        flight = None
        try:
            try:
                deadline_ms = self._take_deadline(payload)
                if self.draining:
                    raise _Terminal("shed", "draining", {
                        "type": "error", "code": "draining",
                        "error": "daemon is draining (shutting down); "
                                 "no new traces are accepted"})
                if self.max_inflight is not None:
                    await self._acquire_slot(deadline_ms)
                    admitted = True
                    # Served from the next loop turn: the requests that
                    # arrive together all meet the gate before any is
                    # served (a trace then runs in one step), so a burst
                    # past the slots and the queue is shed.
                    await asyncio.sleep(0)
                request = TraceRequest.parse(payload)
                if ctx is not None:
                    ctx.describe(request)
                    ctx.phase("cache-lookup", self.now)
                flight, mode = self._lookup(request)
                outcome, phase = _MODES[mode]
                if ctx is not None:
                    ctx.phase(phase, self.now)
                if flight.error is not None:
                    raise _Terminal("error", flight.error, {
                        "type": "error", "error": flight.error})
                for record in hops(flight):
                    yield record
                error = None
                record = done(flight, mode)
            except _Terminal as end:
                outcome, error, record = end.args
            except (ServiceError, ValueError) as exc:
                outcome, error = "error", str(exc)
                record = {"type": "error", "error": error}
            except Exception as exc:
                # Session-exception isolation: a broken ScanSession /
                # TraceSession (or engine bug) answers this one request
                # with a structured record and leaves the daemon up.
                self.internal_errors += 1
                record = _internal_error(exc)
                outcome, error = "error", record["error"]
            # The single exit: count the outcome, close the span's last
            # phase, send the terminal record, complete the request.
            if outcome == "error":
                self.errors += 1
            elif outcome == "deadline":
                self.deadlined += 1
            elif outcome == "shed":
                self.shed += 1
                if obs is not None:
                    obs.record_shed(error)
            if ctx is not None:
                ctx.phase("respond", self.now)
            yield record
            if ctx is not None:
                result = flight.result if error is None else None
                obs.finish_request(
                    self, ctx, outcome, self.now,
                    virtual_ms=self._virtual_ms(result),
                    probes=(result.get("probes", 0)
                            if result and outcome == "fresh" else 0),
                    hops=len(flight.hops) if flight is not None else 0,
                    error=error)
        finally:
            if admitted:
                self._release_slot()
            # A client that vanished mid-stream (GeneratorExit lands
            # here) still completes its request record, so the outcome
            # counters stay coherent: requests == sum of all outcomes.
            if ctx is not None and not ctx.finished:
                ctx.phase("respond", self.now)
                obs.finish_request(self, ctx, "cancelled", self.now)

    def handle_control(self, payload: dict) -> dict:
        op = payload.get("control")
        if op == "ping":
            return {"type": "pong"}
        if op == "stats":
            return {"type": "stats", **self.stats()}
        if op == "metrics":
            return self.metrics()
        if op == "health":
            return {"type": "health", **self.health()}
        if op == "advance":
            seconds = payload.get("seconds")
            if not isinstance(seconds, (int, float)) \
                    or isinstance(seconds, bool):
                raise ServiceError("advance needs numeric 'seconds'")
            self.advance(float(seconds))
            return {"type": "ok", "now": self.now, "epoch": self.epoch}
        raise ServiceError(f"unknown control op {op!r}")

    def metrics(self) -> dict:
        """The ``metrics`` control op: deterministic registry snapshot,
        Prometheus-style text exposition, and the quarantined wall-clock
        report (exact percentiles, slow log, loop lag)."""
        if self.telemetry is None:
            raise ServiceError(
                "telemetry is disabled; start the daemon with "
                "--telemetry (or --trace/--metrics-out)")
        from ..obs.metrics import render_exposition

        snapshot = self.telemetry.metrics_snapshot(self)
        return {"type": "metrics", "snapshot": snapshot,
                "exposition": render_exposition(snapshot),
                "wall": self.telemetry.wall_report()}

    def health(self) -> dict:
        """The ``health`` control op: readiness (engine warm), liveness
        (event-loop lag bounded), and the load picture an operator pages
        on (draining, request and slow-request counts)."""
        obs = self.telemetry
        lag = obs.loop_lag_ms if obs is not None else None
        live = lag is None or lag <= LIVENESS_LAG_MS
        return {
            # Always ready: the engine (topology and network) is built
            # before the service exists, so it is warm by construction.
            "ready": True,
            "live": live,
            "status": "ok" if live else "degraded",
            "draining": self.draining,
            "requests": self.requests,
            "errors": self.errors,
            "slow_requests": obs.slow_total if obs is not None else 0,
            "loop_lag_ms": lag,
            "telemetry": obs is not None,
            "now": self.now,
            "epoch": self.epoch,
            "engine": self.engine.warmth(),
        }

    def stats(self) -> dict:
        """The counters snapshot (also the CI metrics artifact)."""
        return {
            "requests": self.requests,
            "traces_started": self.traces_started,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "deadline_exceeded": self.deadlined,
            "shed": self.shed,
            "internal_errors": self.internal_errors,
            "draining": self.draining,
            "queued": len(self._admit_queue),
            "probes_sent": self.probes_sent,
            "cache_entries": self.cache_len,
            "cache_evicted_epoch": self.evicted_epoch,
            "cache_evicted_lru": self.evicted_lru,
            "now": self.now,
            "epoch": self.epoch,
            "address_space": self.engine.address_space(),
        }


# --------------------------------------------------------------------- #
# NDJSON transport
# --------------------------------------------------------------------- #

#: Generous per-line cap: a trace request is tens of bytes; anything
#: beyond this is a confused or hostile client.
MAX_LINE = 64 * 1024

#: Bytes a connection asks of ``recv`` per read.  asyncio asks for
#: 256 KiB, a buffer above glibc's default mmap threshold (128 KiB): each
#: read of a short NDJSON line would map, fault in and unmap fresh pages
#: (~8 µs a read) unless something earlier in the process happened to
#: free a block big enough to raise the threshold.
READ_SIZE = 64 * 1024


def bound_reads(writer: asyncio.StreamWriter) -> None:
    """Cap the per-read ``recv`` size of ``writer``'s connection at
    :data:`READ_SIZE` (both ends of the protocol call this)."""
    transport = writer.transport
    if hasattr(transport, "max_size"):  # asyncio's selector transports
        transport.max_size = READ_SIZE


#: The daemon's one JSON encoder: compact, keys sorted, so a record's
#: line is a function of its content.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: How that encoder quotes a string (json's C function when built).
_quote = json.encoder.encode_basestring_ascii

#: The end of every hop line: ``"type"`` sorts after every key of the
#: hop schema, so the line without it is the hop's body, open at the end.
_HOP_TAIL = b',"type":"hop"}\n'


def _line(record: dict) -> bytes:
    return _encode(record).encode() + b"\n"


# The two records a trace puts on the wire have fixed shapes, Manifold's
# ``hop`` and ``traceroute`` (see TraceSession), so their lines are
# formatted from templates with the keys in sorted order.  A value goes
# in as the encoder writes it: a string quoted by ``_quote``, an int by
# ``%d`` (``int.__repr__``), a finite float by ``%r`` (``float.__repr__``),
# ``null``/``true``/``false`` spelled out.  A template takes a record
# only if its keys are the schema's and each value has its schema type
# exactly (no bool for an int, no int for a float, no nan or infinity);
# anything else returns ``None`` and goes through ``_encode``.

#: The hop schema's keys, sorted.
HOP_SCHEMA = ("destination", "hop_probecount", "ip", "path", "rtt_ms",
              "source", "ttl")
_hop_values = operator.itemgetter(*HOP_SCHEMA)
_HOP_LINE = ('{"destination":%s,"hop_probecount":%d,"ip":%s,"path":%d,'
             '"rtt_ms":%r,"source":%s,"ttl":%d,"type":"hop"}\n')

#: The trace summary's keys, sorted.
TRACE_SCHEMA = ("dest_distance", "dest_reached", "destination", "first",
                "flow", "hop_count", "hops", "last", "probes", "source",
                "ts")
_trace_values = operator.itemgetter(*TRACE_SCHEMA)
_DONE_HEAD = ('{"cache":%s,"epoch":%d,"trace":{"dest_distance":%s,'
              '"dest_reached":%s,"destination":%s,"first":%r,"flow":%d,'
              '"hop_count":%d,"hops":[')
_DONE_TAIL = ('],"last":%r,"probes":%d,"source":%s,"ts":%r},'
              '"type":"done"}\n')


def _hop_template(record: dict) -> Optional[bytes]:
    """The wire line of a hop record of the schema, else ``None``."""
    if len(record) != len(HOP_SCHEMA):
        return None
    try:
        dst, probecount, ip, path, rtt, src, ttl = _hop_values(record)
    except KeyError:
        return None
    if type(dst) is str and type(probecount) is int and type(ip) is str \
            and type(path) is int and type(rtt) is float \
            and type(src) is str and type(ttl) is int \
            and rtt - rtt == 0.0:  # false for nan and ±inf
        return (_HOP_LINE % (_quote(dst), probecount, _quote(ip), path,
                             rtt, _quote(src), ttl)).encode()
    return None


def _done_template(flight: Flight, mode: str) -> Optional[tuple]:
    """The ``done`` line of a trace summary of the schema, split around
    its hop list (``head`` ends ``"hops":[``, ``tail`` starts ``],``),
    else ``None``."""
    result = flight.result
    if len(result) != len(TRACE_SCHEMA):
        return None
    try:
        (distance, reached, dst, first, flow, hop_count, _, last, probes,
         src, ts) = _trace_values(result)
    except KeyError:
        return None
    epoch = flight.epoch
    if type(reached) is bool and type(dst) is str \
            and type(first) is float and type(flow) is int \
            and type(hop_count) is int and type(last) is float \
            and type(probes) is int and type(src) is str \
            and type(ts) is float and type(mode) is str \
            and type(epoch) is int \
            and first - first == last - last == ts - ts == 0.0:
        if distance is None:
            distance = "null"
        elif type(distance) is int:
            distance = "%d" % distance
        else:
            return None
        head = _DONE_HEAD % (_quote(mode), epoch, distance,
                             "true" if reached else "false", _quote(dst),
                             first, flow, hop_count)
        tail = _DONE_TAIL % (last, probes, _quote(src), ts)
        return head.encode(), tail.encode()
    return None


def _hop_lines(flight: Flight) -> List[bytes]:
    """The wire lines of ``flight.hops``: formatted by the first response
    that carries them and kept on the flight for every later one.  A
    record of the hop schema (every hop a :class:`TraceSession` makes)
    is formatted from its template; any other goes through ``_encode``.
    Either way the line is the compact, key-sorted encoding of
    ``{"type": "hop", **record}``."""
    if not flight.lines:
        flight.lines = [_hop_template(record)
                        or _line({"type": "hop", **record})
                        for record in flight.hops]
    return flight.lines


def _done_line(flight: Flight, mode: str) -> bytes:
    """The ``done`` line, its hops spliced in from their kept lines.

    A trace summary of the schema is formatted from its template, split
    around the hop list; any other is encoded with an empty hop list,
    then split at its one ``"hops":[]`` (a key: in a string value the
    quotes would be escaped).  The response has already sent every hop,
    so every hop of the trace has its line."""
    parts = _done_template(flight, mode)
    if parts is None:
        head, _, tail = _encode({
            "type": "done", "cache": mode, "epoch": flight.epoch,
            "trace": {**flight.result, "hops": []}}).partition('"hops":[]')
        parts = (head + '"hops":[').encode(), (']' + tail + "\n").encode()
    head, tail = parts
    hops = b"},".join([line[:-len(_HOP_TAIL)] for line in flight.lines])
    return b"".join((head, hops, b"}" if hops else b"", tail))


async def _send(writer: asyncio.StreamWriter, lines: List[bytes]) -> None:
    """One response: its lines in one ``write``, then a drain."""
    writer.write(b"".join(lines))
    await writer.drain()


async def _handle_connection(service: TraceService,
                             shutdown: asyncio.Event,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             connections: Set[asyncio.Task]) -> None:
    # Track this handler task so drain() can cancel connections that sit
    # idle in readline() (wait_closed() does not wait for handlers, and
    # an idle client would otherwise hold the drain open forever).
    task = asyncio.current_task()
    connections.add(task)
    bound_reads(writer)
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await _send(writer, [_line({
                    "type": "error", "error": "request line too long"})])
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                problem = (None if isinstance(payload, dict)
                           else "request must be a JSON object")
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and the
                # UnicodeDecodeError of a line that is not UTF-8;
                # RecursionError is a line nested deeper than the
                # parser's stack.  None may drop the connection.
                problem = f"invalid JSON: {exc}"
            if problem is not None:
                service.errors += 1
                await _send(writer, [_line({"type": "error",
                                            "error": problem})])
                continue
            #: Clients may tag a request with an ``id``; it is echoed on
            #: every record of the response, so one connection's
            #: sequential responses can be matched up client-side.
            request_id = payload.pop("id", None)

            def stamped(record: dict) -> dict:
                if request_id is not None:
                    return {"id": request_id, **record}
                return record

            if "control" in payload:
                if payload.get("control") == "shutdown":
                    await _send(writer, [_line(stamped(
                        {"type": "ok", "shutdown": True}))])
                    shutdown.set()
                    break
                try:
                    response = service.handle_control(payload)
                except ServiceError as exc:
                    service.errors += 1
                    response = {"type": "error", "error": str(exc)}
                except Exception as exc:
                    # A control-op bug answers this request, not the
                    # whole connection (let alone the daemon).
                    service.errors += 1
                    service.internal_errors += 1
                    response = _internal_error(exc)
                await _send(writer, [_line(stamped(response))])
                continue
            # Without an id, hop and done records leave as the lines kept
            # on their flight; with one, every record is encoded here.
            builders = (_hop_lines, _done_line) if request_id is None else ()
            lines = []
            try:
                async for record in service.handle_trace(payload, *builders):
                    lines.append(record if type(record) is bytes
                                 else _line(stamped(record)))
            except Exception as exc:
                # Belt and braces: handle_trace already converts
                # session exceptions to error records, but a failure in
                # the stream machinery itself must not drop the
                # connection without a terminal record.
                service.errors += 1
                service.internal_errors += 1
                lines.append(_line(stamped(_internal_error(exc))))
            await _send(writer, lines)
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away; its trace, if any, is cached
    finally:
        connections.discard(task)
        writer.close()
        # CancelledError included: the loop may tear this handler down
        # while the transport drains; the close is already issued.
        with contextlib.suppress(Exception, asyncio.CancelledError):
            await writer.wait_closed()


async def _telemetry_monitor(service: TraceService) -> None:
    """Background event-loop lag probe (expected vs actual sleep
    wake-up) for the ``health`` op."""
    obs = service.telemetry
    loop = asyncio.get_event_loop()
    while True:
        before = loop.time()
        await asyncio.sleep(LAG_INTERVAL)
        lag_ms = max(0.0, (loop.time() - before - LAG_INTERVAL) * 1000.0)
        obs.note_loop_lag(round(lag_ms, 3))


@dataclass
class ServerHandle:
    """What :func:`start_service` hands back: enough to talk and stop."""

    service: TraceService
    server: asyncio.AbstractServer
    shutdown: asyncio.Event
    #: Live connection-handler tasks (drain cancels stragglers).
    connections: Set[asyncio.Task]
    #: The loop-lag monitor task (only when telemetry is enabled).
    monitor: Optional[asyncio.Task] = None
    host: Optional[str] = None
    #: The port the OS actually bound (resolves ``port=0``).
    port: Optional[int] = None
    socket_path: Optional[str] = None

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, then close the connections.

        The only shutdown sequence — the ``shutdown`` op, SIGTERM and
        every test that stops a daemon end here.  New traces are refused
        with a structured ``draining`` error the moment this starts.  A
        trace runs to its end in the step that looked it up, so no trace
        is left running: handlers get a moment to send what they hold,
        then those still parked (in ``readline()`` or in the admission
        queue) are cancelled and the telemetry monitor stopped.
        """
        self.service.draining = True
        self.server.close()
        if self.connections:
            # Give handlers a moment to flush their terminal records,
            # then cancel whatever is still parked in readline().
            done, lingering = await asyncio.wait(
                set(self.connections), timeout=0.25)
            for task in lingering:
                task.cancel()
            await asyncio.gather(*lingering, return_exceptions=True)
        with contextlib.suppress(Exception):
            await self.server.wait_closed()
        if self.monitor is not None:
            self.monitor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self.monitor


async def start_service(engine: Engine,
                        host: Optional[str] = "127.0.0.1", port: int = 0,
                        socket_path: Optional[str] = None,
                        **service_knobs) -> ServerHandle:
    """Bind the daemon and return a handle (used by serve() and tests).

    ``service_knobs`` go to :class:`TraceService` unchanged — its
    constructor is the one place that declares, defaults and validates
    ``cache_size``, ``telemetry``, ``default_deadline_ms``,
    ``max_inflight`` and ``max_queued``.
    """
    service = TraceService(engine, **service_knobs)
    shutdown = asyncio.Event()
    monitor = (asyncio.ensure_future(_telemetry_monitor(service))
               if service.telemetry is not None else None)
    connections: Set[asyncio.Task] = set()

    def factory(reader, writer):
        return _handle_connection(service, shutdown, reader, writer,
                                  connections)

    if socket_path is not None:
        host = port = None
        server = await asyncio.start_unix_server(factory, path=socket_path,
                                                 limit=MAX_LINE)
    else:
        server = await asyncio.start_server(factory, host=host, port=port,
                                            limit=MAX_LINE)
        if server.sockets:
            port = server.sockets[0].getsockname()[1]
    return ServerHandle(service=service, server=server, shutdown=shutdown,
                        connections=connections, monitor=monitor,
                        host=host, port=port, socket_path=socket_path)


def serve(request: Optional[ScanRequest] = None, *,
          host: str = "127.0.0.1", port: int = 4792,
          socket_path: Optional[str] = None,
          metrics_out: Optional[str] = None,
          announce=print,
          **service_knobs) -> TraceService:
    """Run the daemon until a ``shutdown`` control op, SIGTERM, or ^C.

    ``request`` describes the warm engine (topology size and seed);
    trace-irrelevant scan fields are ignored.  Returns the final
    :class:`TraceService` so callers can read the counters after
    shutdown.  ``service_knobs`` are :class:`TraceService`'s keyword
    arguments, forwarded as they are: ``telemetry`` enables the service
    observability bundle (request tracing, latency histograms, the
    ``metrics``/``health`` ops), whose final snapshot ``metrics_out``
    persists on shutdown; ``default_deadline_ms`` bounds every request
    that does not carry its own ``deadline_ms``; ``max_inflight`` /
    ``max_queued`` admit that many concurrent trace streams and shed
    the rest with structured ``overloaded`` errors; ``cache_size`` sizes
    the result cache.
    """
    engine = Engine.from_request(request if request is not None
                                 else ScanRequest())

    async def run() -> TraceService:
        handle = await start_service(engine, host=host, port=port,
                                     socket_path=socket_path,
                                     **service_knobs)
        where = (f"{socket_path} (unix)" if socket_path is not None
                 else f"{handle.host}:{handle.port}")
        announce(f"flashroute-sim serve: listening on {where}, "
                 f"space {engine.address_space()}")
        loop = asyncio.get_running_loop()
        # SIGTERM triggers the same graceful drain as the ``shutdown``
        # control op.  Unavailable on some platforms/loops — degrade to
        # default signal handling rather than refuse to serve.
        with contextlib.suppress(NotImplementedError, RuntimeError,
                                 ValueError):
            loop.add_signal_handler(signal.SIGTERM, handle.shutdown.set)
        try:
            await handle.shutdown.wait()
        finally:
            # This loop is serve()'s own, so the only SIGTERM handler it
            # can hold is ours; removing one that never got installed
            # is a no-op (or the same platform refusal, suppressed).
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signal.SIGTERM)
            await handle.drain()
            telemetry = handle.service.telemetry
            if telemetry is not None:
                if metrics_out is not None:
                    telemetry.save(metrics_out, handle.service)
                telemetry.close()
        return handle.service

    return asyncio.run(run())
