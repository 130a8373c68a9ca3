"""Unified scan telemetry: metrics, tracing, progress (observability).

The real FlashRoute tool prints live rate/remaining-DCB statistics during
a scan and its evaluation (§3.2–§4) hinges on *why* probes were saved —
per-phase probe counts, backward-probing stop-set hits, gap-limit
terminations.  Yarrp ships per-epoch statistics output and Doubletree was
analysed through redundancy counters; this package gives the reproduction
the same instrument panel, dependency-free:

* :class:`MetricsRegistry` — named counters / gauges / fixed-bucket
  histograms every hot path reports into.  Snapshots are deterministic
  under a fixed seed (wall-clock fields live in a segregated ``wall``
  section), so equivalence tests can assert that cached and uncached
  scans produce identical telemetry.
* :class:`ScanTracer` — structured JSONL span events (scan → phase →
  round) stamped with both virtual and wall time.  The default
  :data:`NULL_TRACER` is a no-op, so tracing costs nothing when disabled.
* :class:`ProgressReporter` — periodic in-scan snapshots (pps, targets
  remaining, discovered interfaces) to stderr, keyed off the *virtual*
  clock so ``--progress`` output is reproducible in tests.
* :class:`Telemetry` — the bundle engines accept (``telemetry=`` on every
  scanner constructor and on :func:`~repro.core.scanner.create_scanner`).
  ``None`` (the default) keeps every hot path on its pre-telemetry code,
  byte-identical results included.
* :class:`Stopwatch` — the one wall-clock timing helper (replaces ad-hoc
  ``time.perf_counter`` stopwatch code in the experiment drivers).

``tools/metrics_report.py`` (also ``flashroute-sim metrics-report``)
summarizes one metrics file or diffs two.
"""

from .artifacts import ArtifactReport, detect_artifacts, record_artifacts
from .events import (
    EVENTS_SCHEMA,
    EventRecorder,
    read_events,
    validate_events,
)
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    POW2_BUCKETS,
    MetricsRegistry,
    deterministic_snapshot,
    load_snapshot,
)
from .progress import ProgressReporter
from .scandiff import (
    Divergence,
    diff_views,
    load_view,
    render_scan_diff,
    scan_diff,
)
from .shardobs import (
    HEARTBEAT_SCHEMA,
    ShardHeartbeatReporter,
    ShardProgressView,
    add_shard_dimension,
    merge_trace_logs,
    shard_wall_report,
    slice_pcap_path,
)
from .telemetry import Telemetry, record_network, record_scan_result
from .timing import Stopwatch
from .trace import (
    NULL_TRACER,
    NullTracer,
    ScanTracer,
    deterministic_trace,
    read_trace,
    validate_trace,
)

__all__ = [
    "ArtifactReport",
    "DEFAULT_BUCKETS",
    "Divergence",
    "EVENTS_SCHEMA",
    "EventRecorder",
    "HEARTBEAT_SCHEMA",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "POW2_BUCKETS",
    "ProgressReporter",
    "ScanTracer",
    "ShardHeartbeatReporter",
    "ShardProgressView",
    "Stopwatch",
    "Telemetry",
    "add_shard_dimension",
    "detect_artifacts",
    "deterministic_snapshot",
    "deterministic_trace",
    "diff_views",
    "load_snapshot",
    "load_view",
    "merge_trace_logs",
    "read_events",
    "read_trace",
    "record_artifacts",
    "record_network",
    "record_scan_result",
    "render_scan_diff",
    "scan_diff",
    "shard_wall_report",
    "slice_pcap_path",
    "validate_events",
    "validate_trace",
]
