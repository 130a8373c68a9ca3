"""The telemetry bundle engines accept, plus the layer collectors.

Engines take ``telemetry=None`` (the default: every hot path stays on its
pre-telemetry code) or a :class:`Telemetry` — a registry to report into,
a tracer (no-op unless a trace file was requested) and an optional
progress reporter.  Scan-level metrics use the ``scan.*`` namespace;
:func:`record_network` folds the simulator's own counters (sends, route
cache hits/misses, fault draws, rate-limiter stalls) into ``simnet.*``
after a scan, so the hot probe paths in
:mod:`repro.simnet.network` / :mod:`~repro.simnet.routecache` /
:mod:`~repro.simnet.ratelimit` / :mod:`~repro.simnet.faults` keep their
existing cheap integer counters and never call into the registry
per probe.

Namespace contract (see docs/observability.md for the full table):

* ``scan.*`` — what the probing engine did; identical for the same seed
  regardless of serving mode (cached/uncached, faulted alike).
* ``simnet.*`` except ``simnet.cache.*`` — what the network served;
  also serving-mode independent.
* ``simnet.cache.*`` — route-cache effectiveness; differs between cached
  and uncached runs *by design* (equivalence tests exclude this prefix).
"""

from __future__ import annotations

from typing import Optional

from .artifacts import detect_artifacts, record_artifacts
from .events import EventRecorder
from .metrics import MetricsRegistry, POW2_BUCKETS
from .progress import ProgressReporter
from .trace import NULL_TRACER, ScanTracer


class Telemetry:
    """Registry + tracer + progress + event recorder, handed to a scanner
    as one bundle.  ``events`` is the probe-level flight recorder
    (:class:`~repro.obs.events.EventRecorder`); ``None`` — the default —
    keeps engine hot paths on their pre-recorder code.

    ``metrics=False`` builds a registry-less bundle: ``registry`` stays
    ``None``, so engines keep their per-probe counters off exactly as if
    telemetry were disabled.  Sharded workers use this when only
    heartbeats were requested (``scan --shards --progress`` without
    ``--metrics-out``) — streaming a throttled progress record must not
    buy the full metrics hot path."""

    __slots__ = ("registry", "tracer", "progress", "events")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer=None,
                 progress: Optional[ProgressReporter] = None,
                 events: Optional[EventRecorder] = None,
                 metrics: bool = True) -> None:
        if registry is None and metrics:
            registry = MetricsRegistry()
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.progress = progress
        self.events = events

    @classmethod
    def create(cls, trace_path: Optional[str] = None,
               progress_interval: Optional[float] = None,
               events_path: Optional[str] = None,
               events_sample: float = 1.0,
               events_ring: Optional[int] = None) -> "Telemetry":
        """The CLI constructor: a fresh registry, a file tracer when a
        trace path was requested, a progress reporter when an interval
        was, a flight recorder when an events path was."""
        tracer = (ScanTracer(path=trace_path)
                  if trace_path is not None else None)
        progress = (ProgressReporter(interval=progress_interval)
                    if progress_interval is not None else None)
        events = (EventRecorder(path=events_path, sample=events_sample,
                                ring=events_ring)
                  if events_path is not None else None)
        return cls(tracer=tracer, progress=progress, events=events)

    def record_result(self, result) -> None:
        if self.registry is not None:
            record_scan_result(self.registry, result)

    def record_network(self, network) -> None:
        if self.registry is not None:
            record_network(self.registry, network)

    def close(self) -> None:
        self.tracer.close()
        if self.events is not None:
            self.events.close()


def record_scan_result(registry: MetricsRegistry, result) -> None:
    """Fold a finished :class:`~repro.core.results.ScanResult` into
    ``scan.*`` counters/gauges.

    Engines call this once per scan (after finalization); per-event
    counters — stop reasons, prediction hits, ring occupancy — are
    incremented live by the engines themselves and are *not* derivable
    from the result.
    """
    registry.inc("scan.probes.total", result.probes_sent)
    registry.inc("scan.probes.preprobe", result.preprobe_probes)
    registry.inc("scan.probes.main",
                 result.probes_sent - result.preprobe_probes)
    registry.inc("scan.probes.skipped", result.skipped_probes)
    registry.inc("scan.responses.total", result.responses)
    registry.inc("scan.responses.duplicate", result.duplicate_responses)
    registry.inc("scan.responses.mismatched_quote", result.mismatched_quotes)
    registry.inc("scan.rounds", result.rounds)
    registry.inc("scan.interfaces.discovered", result.interface_count())
    registry.inc("scan.destinations.reached", len(result.dest_distance))
    registry.inc("scan.route_holes", result.route_holes())
    registry.set_gauge("scan.duration_virtual_seconds", result.duration)
    registry.set_gauge("scan.targets", result.num_targets)
    if result.duration > 0:
        registry.set_gauge("scan.rate_pps",
                           result.probes_sent / result.duration)
    for kind in sorted(result.response_kinds):
        registry.inc(f"scan.responses.kind.{kind}",
                     result.response_kinds[kind])
    record_artifacts(registry, detect_artifacts(result.routes))


def record_scan_ring(registry: MetricsRegistry, occupancy: int) -> None:
    """Per-round ring occupancy: latest value as a gauge, distribution as
    a power-of-two histogram."""
    registry.set_gauge("scan.ring.occupancy", occupancy)
    registry.observe("scan.ring.occupancy_per_round", occupancy,
                     buckets=POW2_BUCKETS)


def record_network(registry: MetricsRegistry, network) -> None:
    """Fold a network's counters (see ``SimulatedNetwork.stats()``) into
    ``simnet.*``.

    Call once after a scan, on the same network the scan used; counters
    accumulate across scans exactly as the network's own counters do
    (``SimulatedNetwork.reset()`` starts both over).
    """
    stats = network.stats()
    registry.inc("simnet.probes_sent", stats["probes_sent"])
    registry.inc("simnet.responses_generated", stats["responses_generated"])
    registry.inc("simnet.rewritten_responses", stats["rewritten_responses"])
    ratelimit = stats["ratelimit"]
    registry.inc("simnet.ratelimit.dropped", ratelimit["dropped"])
    registry.set_gauge("simnet.ratelimit.overprobed_interfaces",
                       ratelimit["overprobed_interfaces"])
    registry.set_gauge("simnet.ratelimit.limit", ratelimit["limit"])
    cache = stats["route_cache"]
    registry.set_gauge("simnet.cache.enabled", 1 if cache is not None else 0)
    if cache is not None:
        registry.inc("simnet.cache.hits", cache["hits"])
        registry.inc("simnet.cache.misses", cache["misses"])
        registry.set_gauge("simnet.cache.entries", cache["entries"])
        registry.set_gauge("simnet.cache.udp_tables", cache["udp_tables"])
        registry.set_gauge("simnet.cache.tcp_tables", cache["tcp_tables"])
    faults = stats["faults"]
    if faults is not None:
        registry.inc("simnet.faults.probes_lost", faults["probes_lost"])
        registry.inc("simnet.faults.responses_lost",
                     faults["responses_lost"])
        registry.inc("simnet.faults.blackout_drops",
                     faults["blackout_drops"])
        registry.inc("simnet.faults.duplicates_injected",
                     faults["duplicates_injected"])
        registry.inc("simnet.faults.reordered", faults["reordered"])
