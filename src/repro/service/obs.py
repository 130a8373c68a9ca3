"""Service-layer observability: the daemon's instrument panel.

:class:`ServiceTelemetry` is the optional bundle
:class:`~repro.service.daemon.TraceService` accepts — ``None`` (the
default) keeps every request path byte-identical to the uninstrumented
daemon, matching the engine-telemetry contract from ``repro.obs``.  When
enabled it provides:

* **Request ids + span trees.**  Every request gets a monotonically
  assigned id and a ``service.request`` span with sequential
  ``service.phase`` children (``receive`` → ``cache-lookup`` →
  ``cache-replay`` / ``coalesce-join`` / ``probe-stream`` → ``respond``).
  Concurrent requests interleave on the event loop, so each request's
  spans are buffered in its :class:`RequestContext` and flushed to the
  shared :class:`~repro.obs.trace.ScanTracer` atomically at request end —
  the JSONL stays a valid LIFO span tree (``validate_trace`` passes).
* **Per-outcome latency histograms** (``fresh`` / ``hit`` /
  ``coalesced`` / ``error`` / ``cancelled``) recorded in **virtual
  time** into the :class:`~repro.obs.metrics.MetricsRegistry`, so
  same-virtual-clock runs snapshot byte-identically.  Wall-clock twins
  (exact recent-window percentiles, the slow-request log, rolling rates)
  are quarantined in the ``wall`` report, never in the snapshot.
* **A rolling time-series ring** (:class:`RateRing`) of periodic counter
  samples powering req/s, probes/s and hit-rate over the last N windows
  — what the ``metrics`` control op and ``flashroute-sim top`` render.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import ScanTracer

#: Outcome classes a completed request is binned into.  ``cancelled``
#: covers clients that disconnected before their terminal record;
#: ``deadline`` requests ran out of their ``deadline_ms`` budget;
#: ``shed`` requests were refused by admission control (overload or
#: drain) without being served.  The coherence identity stays exact:
#: ``requests == fresh + hit + coalesced + error + cancelled +
#: deadline + shed``.  Histogram counters are created lazily, so a
#: daemon that never sheds or deadlines snapshots byte-identically to
#: one built before these outcomes existed.
OUTCOMES = ("fresh", "hit", "coalesced", "error", "cancelled",
            "deadline", "shed")

#: Default wall-latency threshold beyond which a request enters the
#: slow-request log.
DEFAULT_SLOW_MS = 500.0
#: Slow-log ring capacity (most recent entries win).
DEFAULT_SLOW_LOG = 64
#: Per-outcome window of recent wall latencies kept for exact p50/p99.
DEFAULT_WALL_WINDOW = 1024
#: Rate-ring capacity (periodic counter samples).
DEFAULT_RING_SLOTS = 120
#: Default wall seconds between background counter samples.
DEFAULT_SAMPLE_INTERVAL = 0.5
#: A fresh trace that sent more probes than this is slow because of its
#: probe count (a long path / gap-limit walk), not merely the cache miss.
PROBE_COUNT_THRESHOLD = 48

#: Virtual-latency histogram buckets: sub-millisecond to minutes, a
#: 1-2-5 ladder tight enough to resolve per-hop probe gaps (20 ms).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 30_000, 60_000, 300_000)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an ascending list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(0, min(len(sorted_values) - 1,
                      round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def latency_summary(values_ms: List[float]) -> Dict[str, float]:
    """The ``count``/``p50``/``p90``/``p99``/``max`` summary of a latency
    sample (used by the wall report)."""
    ordered = sorted(values_ms)
    return {
        "count": len(ordered),
        "p50": round(percentile(ordered, 0.50), 3),
        "p90": round(percentile(ordered, 0.90), 3),
        "p99": round(percentile(ordered, 0.99), 3),
        "max": round(ordered[-1], 3),
    }


def classify_slow_cause(outcome: str, probes: int) -> str:
    """Attribute a slow request to its dominant cause.

    Coalesced requests waited on someone else's flight; errors are their
    own class; cache hits only replay; a fresh trace is slow because it
    missed the cache — unless it sent an outsized probe train, in which
    case the walk itself (probe count) is the cause.
    """
    if outcome == "coalesced":
        return "coalesce_wait"
    if outcome == "error":
        return "error"
    if outcome == "hit":
        return "cache_replay"
    if outcome == "cancelled":
        return "client_disconnect"
    if outcome == "deadline":
        return "deadline_exceeded"
    if outcome == "shed":
        return "overload_shed"
    return "probe_count" if probes > PROBE_COUNT_THRESHOLD \
        else "cache_miss"


class RequestContext:
    """Per-request trace state: id, clocks and the buffered span list.

    Spans are sequential phases of one request; :meth:`phase` closes the
    open phase at ``vt`` and opens the next, so the buffered list always
    forms a flat chain under the request's root span.
    """

    __slots__ = ("rid", "vt_start", "wall_start", "destination", "flow",
                 "spans", "finished", "_open")

    def __init__(self, rid: int, vt_start: float,
                 wall_start: float) -> None:
        self.rid = rid
        self.vt_start = vt_start
        self.wall_start = wall_start
        self.destination: Optional[str] = None
        self.flow: Optional[int] = None
        self.spans: List[Tuple[str, float, float]] = []
        self.finished = False
        self._open: Optional[Tuple[str, float]] = ("receive", vt_start)

    def describe(self, request) -> None:
        """Attach the parsed request identity (after ``receive``)."""
        from ..net.addr import int_to_ip

        self.destination = int_to_ip(request.destination)
        self.flow = request.flow

    def phase(self, name: str, vt: float) -> None:
        """Close the open phase at ``vt`` and begin ``name``."""
        self._close(vt)
        self._open = (name, vt)

    def _close(self, vt: float) -> None:
        if self._open is not None:
            name, begin = self._open
            self.spans.append((name, begin, vt))
            self._open = None

    def flush(self, tracer, vt_end: float, **fields) -> None:
        """Write the whole request tree into ``tracer`` in one step.

        Called exactly once, from the event loop, after the request
        finished — so concurrent requests never interleave their spans
        in the JSONL and the file stays a valid span tree.
        """
        self._close(vt_end)
        tracer.begin("service.request", f"req-{self.rid}", self.vt_start,
                     rid=self.rid, destination=self.destination,
                     flow=self.flow)
        for name, begin, end in self.spans:
            tracer.begin("service.phase", name, begin)
            tracer.end("service.phase", name, end)
        tracer.end("service.request", f"req-{self.rid}", vt_end, **fields)


class RateRing:
    """A rolling ring of ``(wall_time, counters)`` samples.

    The daemon's sampler task (and every ``metrics`` poll) appends; rate
    queries difference the newest sample against the one ``window``
    samples back, so req/s, probes/s and hit-rate reflect the last N
    windows rather than the process lifetime.
    """

    def __init__(self, slots: int = DEFAULT_RING_SLOTS,
                 min_interval: float = 0.1) -> None:
        if slots < 2:
            raise ValueError("rate ring needs at least 2 slots")
        self.min_interval = min_interval
        self._samples: Deque[Tuple[float, Dict[str, int]]] = \
            deque(maxlen=slots)

    def __len__(self) -> int:
        return len(self._samples)

    def sample(self, wall_now: float, counters: Dict[str, int]) -> bool:
        """Append a sample unless the last one is younger than the
        minimum interval (polling and the background sampler coexist)."""
        if self._samples \
                and wall_now - self._samples[-1][0] < self.min_interval:
            return False
        self._samples.append((wall_now, dict(counters)))
        return True

    def rates(self, window: int = 20) -> Dict[str, object]:
        """Rates over (up to) the last ``window`` sample intervals."""
        if len(self._samples) < 2:
            return {"window_seconds": 0.0, "samples": len(self._samples)}
        samples = list(self._samples)[-(window + 1):]
        (t0, c0), (t1, c1) = samples[0], samples[-1]
        dt = t1 - t0
        if dt <= 0:
            return {"window_seconds": 0.0, "samples": len(samples)}
        d_req = c1.get("requests", 0) - c0.get("requests", 0)
        d_hits = c1.get("cache_hits", 0) - c0.get("cache_hits", 0)
        d_probes = c1.get("probes_sent", 0) - c0.get("probes_sent", 0)
        return {
            "window_seconds": round(dt, 3),
            "samples": len(samples),
            "req_per_s": round(d_req / dt, 1),
            "probes_per_s": round(d_probes / dt, 1),
            "hit_rate": (round(d_hits / d_req, 4) if d_req > 0 else None),
        }


class ServiceTelemetry:
    """The daemon's optional observability bundle.

    Deterministic state (counters, virtual-time latency histograms)
    lives in :attr:`registry`; everything wall-clock — recent-window
    latency percentiles, the slow-request log, the rate ring, loop lag —
    is quarantined in :meth:`wall_report` and the saved snapshot's
    ``wall`` section, so two daemons driven through the same
    virtual-clock sequence snapshot byte-identically.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[ScanTracer] = None, *,
                 slow_ms: float = DEFAULT_SLOW_MS,
                 slow_log: int = DEFAULT_SLOW_LOG,
                 wall_window: int = DEFAULT_WALL_WINDOW,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
                 wall_clock=time.perf_counter) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer
        self.slow_ms = slow_ms
        self.sample_interval = sample_interval
        self.wall_clock = wall_clock
        self.started_wall = wall_clock()
        self.slow_total = 0
        self.slow_requests: Deque[Dict[str, object]] = \
            deque(maxlen=slow_log)
        self.ring = RateRing(slots=ring_slots)
        self.loop_lag_ms: Optional[float] = None
        self.loop_lag_max_ms = 0.0
        self._next_rid = 1
        self._wall_latencies: Dict[str, Deque[float]] = {
            outcome: deque(maxlen=wall_window) for outcome in OUTCOMES}

    @classmethod
    def create(cls, trace_path: Optional[str] = None,
               slow_ms: float = DEFAULT_SLOW_MS,
               sample_interval: float = DEFAULT_SAMPLE_INTERVAL
               ) -> "ServiceTelemetry":
        """The CLI constructor: a fresh registry, a file tracer when a
        trace path was requested."""
        tracer = (ScanTracer(path=trace_path)
                  if trace_path is not None else None)
        return cls(tracer=tracer, slow_ms=slow_ms,
                   sample_interval=sample_interval)

    # -- request lifecycle ------------------------------------------------

    def begin_request(self, vt: float) -> RequestContext:
        """Assign the next request id and open its span tree."""
        rid = self._next_rid
        self._next_rid += 1
        return RequestContext(rid, vt, self.wall_clock())

    def finish_request(self, service, ctx: RequestContext, outcome: str,
                       vt: float, virtual_ms: float = 0.0,
                       probes: int = 0, hops: int = 0,
                       error: Optional[str] = None) -> None:
        """Record one completed request: counters, histograms, wall
        twins, slow log, and the flushed span tree."""
        if ctx.finished:
            return
        ctx.finished = True
        registry = self.registry
        registry.inc("service.requests.total")
        registry.inc(f"service.requests.{outcome}")
        registry.observe(f"service.latency_virtual_ms.{outcome}",
                         virtual_ms, buckets=LATENCY_BUCKETS)
        if hops:
            registry.inc("service.hops.streamed", hops)
        wall_ms = (self.wall_clock() - ctx.wall_start) * 1000.0
        self._wall_latencies[outcome].append(wall_ms)
        if wall_ms >= self.slow_ms:
            self.slow_total += 1
            self.slow_requests.append({
                "rid": ctx.rid,
                "destination": ctx.destination,
                "flow": ctx.flow,
                "outcome": outcome,
                "wall_ms": round(wall_ms, 3),
                "virtual_ms": round(virtual_ms, 3),
                "probes": probes,
                "cause": classify_slow_cause(outcome, probes),
                "error": error,
            })
        if self.tracer is not None:
            fields: Dict[str, object] = {
                "rid": ctx.rid, "outcome": outcome,
                "virtual_ms": round(virtual_ms, 3),
                "probes": probes, "hops": hops}
            if error is not None:
                fields["error"] = error
            ctx.flush(self.tracer, vt, **fields)

    def record_flight_probes(self, probes: int) -> None:
        """Fold a completed flight's probe train into the registry (the
        flight, not its subscribers, owns the probes)."""
        self.registry.inc("service.probes.sent", probes)

    def record_shed(self, reason: str) -> None:
        """Count one admission refusal under ``service.shed.<reason>``
        (``overloaded`` at the in-flight/queue gate, ``draining``
        during graceful shutdown).  Counters appear lazily — a daemon
        that never sheds carries no ``service.shed.*`` keys."""
        self.registry.inc("service.shed.total")
        self.registry.inc(f"service.shed.{reason}")

    # -- loop health and rates --------------------------------------------

    def note_loop_lag(self, lag_ms: float) -> None:
        self.loop_lag_ms = lag_ms
        self.loop_lag_max_ms = max(self.loop_lag_max_ms, lag_ms)

    def sample(self, service) -> bool:
        """Append a counter sample to the rate ring (sampler task and
        every ``metrics`` poll both land here)."""
        return self.ring.sample(self.wall_clock(), {
            "requests": service.requests,
            "cache_hits": service.cache_hits,
            "probes_sent": service.probes_sent,
        })

    # -- reports ----------------------------------------------------------

    def metrics_snapshot(self, service) -> Dict[str, object]:
        """The deterministic registry snapshot with the service's own
        counters folded in as gauges (no wall-clock data anywhere)."""
        registry = self.registry
        registry.set_gauge("service.requests.received", service.requests)
        registry.set_gauge("service.traces.started",
                           service.traces_started)
        registry.set_gauge("service.cache.entries", service.cache_len)
        registry.set_gauge("service.cache.evicted_epoch",
                           service.evicted_epoch)
        registry.set_gauge("service.cache.evicted_lru",
                           service.evicted_lru)
        registry.set_gauge("service.inflight", service.inflight)
        registry.set_gauge("service.now_virtual", service.now)
        registry.set_gauge("service.epoch", service.epoch)
        return registry.snapshot()

    def wall_report(self) -> Dict[str, object]:
        """Everything wall-clock, quarantined from the snapshot: exact
        recent-window latency percentiles per outcome, rolling rates,
        the slow-request log and event-loop lag."""
        latency = {outcome: latency_summary(list(values))
                   for outcome, values in sorted(
                       self._wall_latencies.items()) if values}
        return {
            "uptime_seconds": round(
                self.wall_clock() - self.started_wall, 3),
            "latency_ms": latency,
            "rates": self.ring.rates(),
            "slow_threshold_ms": self.slow_ms,
            "slow_total": self.slow_total,
            "slow_requests": list(self.slow_requests),
            "loop_lag_ms": self.loop_lag_ms,
            "loop_lag_max_ms": round(self.loop_lag_max_ms, 3),
        }

    def save(self, path: str, service) -> None:
        """Persist the snapshot (``metrics-report``-compatible), wall
        data confined to the file's ``wall`` section."""
        from ..obs.metrics import save_snapshot

        save_snapshot(self.metrics_snapshot(service), path,
                      extra_wall=self.wall_report())

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()
