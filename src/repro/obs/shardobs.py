"""Shard-aware observability: heartbeats, merged forests, shard report.

A sharded scan (``scan --shards N``) fans the keyspace out across worker
processes, which turns every single-process telemetry channel into a
merge problem.  This module owns the three shard-specific pieces:

* **Heartbeats** — each worker wraps its engine progress callbacks in a
  :class:`ShardHeartbeatReporter` that, instead of printing, streams a
  small dict (slice id, worker pid, probes, responses, virtual time,
  wall time) to the parent over a multiprocessing queue.  The parent's
  :class:`ShardProgressView` aggregates them into a live line with
  per-worker rates, aggregate pps, an ETA, and straggler flags when a
  worker falls behind the median rate by :data:`STRAGGLER_FACTOR`.
* **Merged span forests** — :func:`merge_trace_logs` folds per-slice
  ``ScanTracer`` outputs into one multi-root JSONL forest (span ids
  renumbered, each event tagged with its ``slice``) that passes
  :func:`repro.obs.trace.validate_trace` and whose deterministic content
  is byte-identical for every worker count.
* **The post-run shard report** — :func:`add_shard_dimension` folds
  per-slice probes/responses/holes/virtual-duration plus an imbalance
  factor into the merged metrics snapshot under ``shard.*`` names;
  :func:`shard_wall_report` carries the wall-clock side (worker pids,
  CPU and wall seconds) for the snapshot's quarantined ``wall`` section.

Everything here follows the repository's determinism discipline: only
the heartbeat records and the wall report touch the wall clock, and both
stay out of the deterministic sections of every output file.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    TextIO, Tuple)

from .progress import ProgressReporter
from .trace import TRACE_SCHEMA

#: Schema tag carried on every heartbeat record.
HEARTBEAT_SCHEMA = "repro.obs.heartbeat/1"

#: A worker is flagged as a straggler when its probing rate falls below
#: the median worker rate divided by this factor.
STRAGGLER_FACTOR = 4.0

#: Default minimum *wall-clock* gap between heartbeat emissions per
#: worker.  The virtual clock can race wall time by orders of magnitude
#: (a simulated second costs microseconds of CPU), so a purely virtual
#: throttle would flood the parent queue; the floor caps the enqueue
#: rate at human-observation timescales and keeps the worker-side cost
#: low (1.07x of heartbeat-off throughput when measured).
DEFAULT_MIN_WALL_SECONDS = 0.05

#: Engine progress fields forwarded onto heartbeat records.
_HEARTBEAT_FIELDS = ("tool", "round", "probes", "responses", "pps",
                     "remaining", "interfaces")


class ShardHeartbeatReporter(ProgressReporter):
    """Worker-side progress reporter that streams heartbeats upward.

    Drop-in for :class:`ProgressReporter` — engines call ``due`` /
    ``report`` at their usual checkpoints — but ``report`` builds a
    heartbeat record and hands it to ``emit`` (a queue ``put`` or a
    direct callback) instead of writing a console line.  Throttling is
    two-level: the virtual ``interval`` decides when a beat is *due*
    (the engine-side cadence), and ``min_wall_seconds`` floors the wall
    gap between actual emissions so a fast-racing virtual clock cannot
    flood the parent channel.  Heartbeats feed only the live view —
    never a deterministic output file — so the wall floor costs nothing
    in reproducibility.
    """

    __slots__ = ("slice_index", "_emit", "min_wall_seconds", "_last_wall",
                 "heartbeats_sent", "heartbeats_suppressed")

    def __init__(self, interval: float,
                 emit: Callable[[Dict[str, object]], None],
                 slice_index: int,
                 min_wall_seconds: float = DEFAULT_MIN_WALL_SECONDS
                 ) -> None:
        super().__init__(interval=interval)
        self.slice_index = slice_index
        self._emit = emit
        self.min_wall_seconds = min_wall_seconds
        self._last_wall: Optional[float] = None
        self.heartbeats_sent = 0
        self.heartbeats_suppressed = 0

    def report(self, vnow: float, fields: Dict[str, object]) -> None:
        self._next_at = vnow + self.interval
        wall = time.monotonic()
        if self._last_wall is not None \
                and wall - self._last_wall < self.min_wall_seconds:
            self.heartbeats_suppressed += 1
            return
        self._last_wall = wall
        record: Dict[str, object] = {
            "schema": HEARTBEAT_SCHEMA, "slice": self.slice_index,
            "pid": os.getpid(), "vt": vnow, "wall": time.time()}
        for key in _HEARTBEAT_FIELDS:
            if key in fields:
                record[key] = fields[key]
        self._emit(record)
        self.heartbeats_sent += 1
        self.lines_emitted += 1


class ShardProgressView:
    """Parent-side aggregation of heartbeats and slice completions.

    Renders at most one line per ``interval`` seconds of *wall* time (the
    parent has no virtual clock — worker clocks advance independently),
    plus one final ``done`` line from :meth:`finish`:

    .. code-block:: text

        [shard-progress] slices=5/16 agg_pps=1,234,567 eta=3.2s \\
            workers[4]: pid4711=312,400pps pid4712=9,800pps!straggler

    Per-worker rates are wall-clock probing rates between consecutive
    heartbeats from the same worker; the ETA extrapolates completed-slice
    wall time over the remaining slices.
    """

    def __init__(self, slices: int, workers: int = 1,
                 interval: float = 1.0,
                 stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if interval <= 0:
            raise ValueError("progress interval must be positive")
        self.slices = slices
        self.workers = workers
        self.interval = interval
        self._stream = stream
        self._clock = clock
        self._start: Optional[float] = None
        self._last_render: Optional[float] = None
        #: pid -> {wall, slice, probes, rate} from its last heartbeat.
        self._worker_state: Dict[int, Dict[str, object]] = {}
        self.slices_done = 0
        self.probes_done = 0
        self.heartbeats_seen = 0
        self.lines_emitted = 0

    # ------------------------------------------------------------------ #

    def observe(self, heartbeat: Dict[str, object]) -> None:
        """Fold one worker heartbeat in; render if a line is due."""
        now = self._clock()
        if self._start is None:
            self._start = now
        self.heartbeats_seen += 1
        pid = heartbeat.get("pid")
        wall = float(heartbeat.get("wall", now))
        probes = int(heartbeat.get("probes", 0) or 0)
        state = self._worker_state.setdefault(
            pid, {"wall": wall, "slice": None, "probes": 0, "rate": None})
        if wall > float(state["wall"]):
            previous = (int(state["probes"])
                        if state["slice"] == heartbeat.get("slice") else 0)
            delta = probes - previous
            if delta >= 0:
                state["rate"] = delta / (wall - float(state["wall"]))
        state["wall"] = wall
        state["slice"] = heartbeat.get("slice")
        state["probes"] = probes
        self.maybe_render(now)

    def slice_done(self, slice_index: int, probes: int,
                   duration: float) -> None:
        """Record one completed slice; render if a line is due."""
        now = self._clock()
        if self._start is None:
            self._start = now
        self.slices_done += 1
        self.probes_done += probes
        self.maybe_render(now)

    # ------------------------------------------------------------------ #

    def worker_rates(self) -> Dict[int, float]:
        """Last-interval probing rate per worker pid (pps, wall time)."""
        return {pid: float(state["rate"])
                for pid, state in sorted(self._worker_state.items())
                if state["rate"] is not None}

    def stragglers(self) -> List[int]:
        """Worker pids probing slower than median / STRAGGLER_FACTOR."""
        rates = self.worker_rates()
        if len(rates) < 2:
            return []
        median = statistics.median(rates.values())
        if median <= 0:
            return []
        floor = median / STRAGGLER_FACTOR
        return [pid for pid, rate in rates.items() if rate < floor]

    # ------------------------------------------------------------------ #

    def maybe_render(self, now: Optional[float] = None) -> bool:
        """Render if the wall interval elapsed; first call is immediate."""
        now = self._clock() if now is None else now
        if self._last_render is not None \
                and now - self._last_render < self.interval:
            return False
        self._render_line(self._line(now), now)
        return True

    def _render_line(self, line: str, now: float) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        stream.write(line + "\n")
        self.lines_emitted += 1
        self._last_render = now

    def _line(self, now: float) -> str:
        elapsed = max(now - self._start, 0.0) \
            if self._start is not None else 0.0
        rates = self.worker_rates()
        if rates:
            aggregate = sum(rates.values())
        elif elapsed > 0:
            aggregate = self.probes_done / elapsed
        else:
            aggregate = 0.0
        if self.slices_done and self.slices_done < self.slices:
            remaining = self.slices - self.slices_done
            eta = f"{remaining * elapsed / self.slices_done:.1f}s"
        elif self.slices_done >= self.slices:
            eta = "0.0s"
        else:
            eta = "?"
        parts = [f"[shard-progress] slices={self.slices_done}"
                 f"/{self.slices}",
                 f"agg_pps={aggregate:,.0f}", f"eta={eta}"]
        if rates:
            slow = set(self.stragglers())
            bits = " ".join(
                f"pid{pid}={rate:,.0f}pps"
                + ("!straggler" if pid in slow else "")
                for pid, rate in rates.items())
            parts.append(f"workers[{len(self._worker_state)}]: {bits}")
        return " ".join(parts)

    def finish(self, total_probes: Optional[int] = None) -> None:
        """Emit the final ``done`` line with end-to-end aggregate pps."""
        now = self._clock()
        elapsed = max(now - self._start, 0.0) \
            if self._start is not None else 0.0
        probes = self.probes_done if total_probes is None else total_probes
        aggregate = probes / elapsed if elapsed > 0 else 0.0
        line = (f"[shard-progress] done slices={self.slices_done}"
                f"/{self.slices} probes={probes:,} "
                f"agg_pps={aggregate:,.0f} wall={elapsed:.2f}s")
        self._render_line(line, now)


# --------------------------------------------------------------------- #
# Merged span forests
# --------------------------------------------------------------------- #

def merge_trace_logs(texts: Sequence[str]) -> str:
    """Merge per-slice trace logs into one multi-root span forest.

    Each input is a complete ``ScanTracer`` JSONL text (header + one span
    tree).  The merge keeps slice order, emits a single header, renumbers
    span ids with a running offset so they stay unique across the forest
    (root parents remain 0), and tags every event with its ``slice``
    index.  Because per-slice content is deterministic and the fold runs
    in slice order, the merged deterministic content is byte-identical
    for every worker count.
    """
    if not texts:
        raise ValueError("need at least one slice trace to merge")
    lines_out: List[str] = []
    offset = 0
    for index, text in enumerate(texts):
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"slice {index}: empty trace log")
        header = json.loads(lines[0])
        if header.get("ev") != "trace" \
                or header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"slice {index}: missing trace header line")
        if index == 0:
            lines_out.append(json.dumps(header, sort_keys=True))
        top = 0
        for line in lines[1:]:
            event = json.loads(line)
            event["slice"] = index
            span_id = event.get("id")
            if isinstance(span_id, int) and span_id > 0:
                top = max(top, span_id)
                event["id"] = span_id + offset
            parent = event.get("parent")
            if isinstance(parent, int) and parent > 0:
                event["parent"] = parent + offset
            lines_out.append(json.dumps(event, sort_keys=True))
        offset += top
    return "\n".join(lines_out) + "\n"


# --------------------------------------------------------------------- #
# Post-run shard report
# --------------------------------------------------------------------- #

def slice_metric_name(slice_index: int, slices: int, field: str) -> str:
    """Metric name for one slice's shard-report field."""
    width = max(2, len(str(max(slices - 1, 0))))
    return f"shard.slice{slice_index:0{width}d}.{field}"


def shard_imbalance(durations: Sequence[float]) -> float:
    """Max/mean ratio of per-slice virtual durations (1.0 = balanced)."""
    positive = [d for d in durations if d > 0]
    if not positive:
        return 1.0
    return max(positive) / (sum(positive) / len(positive))


def add_shard_dimension(snapshot: Dict[str, object],
                        slice_results: Iterable[Tuple[int, object]],
                        slices: int) -> Dict[str, object]:
    """Fold the per-slice shard report into a merged metrics snapshot.

    ``slice_results`` yields ``(slice_index, ScanResult)`` pairs.  Adds
    per-slice counters (``shard.sliceNN.probes/responses/route_holes``)
    and gauges (``.duration_virtual_seconds``, ``.targets``) plus the
    scan-wide ``shard.slices`` and ``shard.imbalance_factor`` gauges.
    Everything added derives from virtual-clock scan results, so the
    dimension is deterministic and invariant in worker count; wall-clock
    shard data belongs in :func:`shard_wall_report` instead.
    """
    counters = dict(snapshot.get("counters", {}))
    gauges = dict(snapshot.get("gauges", {}))
    durations: List[float] = []
    for slice_index, result in slice_results:
        def name(field: str, index: int = slice_index) -> str:
            return slice_metric_name(index, slices, field)
        counters[name("probes")] = result.probes_sent
        counters[name("responses")] = result.responses
        counters[name("route_holes")] = result.route_holes()
        gauges[name("duration_virtual_seconds")] = result.duration
        gauges[name("targets")] = result.num_targets
        durations.append(result.duration)
    gauges["shard.slices"] = slices
    gauges["shard.imbalance_factor"] = round(shard_imbalance(durations), 4)
    merged = dict(snapshot)
    merged["counters"] = dict(sorted(counters.items()))
    merged["gauges"] = dict(sorted(gauges.items()))
    return merged


def shard_wall_report(
        slice_stats: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Wall-clock shard accounting for the snapshot's ``wall`` section.

    Per-slice worker pid, CPU seconds, and wall seconds, plus per-worker
    totals — everything about the run that is true of *this host on this
    day* and must stay out of the deterministic sections.
    """
    workers: Dict[str, Dict[str, object]] = {}
    for entry in slice_stats:
        pid = str(entry.get("pid"))
        bucket = workers.setdefault(
            pid, {"slices": 0, "probes": 0, "cpu_seconds": 0.0})
        bucket["slices"] += 1
        bucket["probes"] += int(entry.get("probes") or 0)
        # Slices restored from a checkpoint carry no cpu accounting
        # (they were not run this time) — count them as zero.
        bucket["cpu_seconds"] = round(
            float(bucket["cpu_seconds"])
            + float(entry.get("cpu_seconds") or 0.0), 6)
    return {"slices": [dict(entry) for entry in slice_stats],
            "workers": dict(sorted(workers.items()))}


# --------------------------------------------------------------------- #
# Per-slice packet captures
# --------------------------------------------------------------------- #

def slice_pcap_path(base: str, slice_index: int,
                    slices: int = 1) -> str:
    """Capture path for one slice: ``out.pcap`` -> ``out.slice03.pcap``."""
    root, ext = os.path.splitext(base)
    width = max(2, len(str(max(slices - 1, 0))))
    return f"{root}.slice{slice_index:0{width}d}{ext or '.pcap'}"
