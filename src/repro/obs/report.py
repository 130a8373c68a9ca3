"""Metrics-file summaries and diffs (``flashroute-sim metrics-report``).

Run two scans with ``--metrics-out``
(different configs, seeds, or code revisions) and diff the snapshots to see
exactly which phase saved or spent the probes.  Wall-clock fields are
segregated in the files and ignored here, so diffs only ever show real
behavioural deltas.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..analysis.report import render_table
from .metrics import load_snapshot, render_exposition

#: Per-slice shard-dimension metric names (see repro.obs.shardobs).
_SHARD_METRIC = re.compile(r"^shard\.slice(\d+)\.([a-z_]+)$")


def flatten_snapshot(snapshot: Dict[str, object]) -> Dict[str, float]:
    """One flat ``name -> value`` view of a snapshot's deterministic part.

    Histograms contribute their ``count`` and ``sum`` under derived names
    (``<name>.count`` / ``<name>.sum``); bucket vectors are summary-diffed
    through those, not bucket by bucket.
    """
    flat: Dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        flat[name] = value
    for name, value in snapshot.get("gauges", {}).items():
        flat[name] = value
    for name, histogram in snapshot.get("histograms", {}).items():
        flat[f"{name}.count"] = histogram["count"]
        flat[f"{name}.sum"] = histogram["sum"]
    return flat


def diff_rows(a: Dict[str, object], b: Dict[str, object]
              ) -> List[Tuple[str, Optional[float], Optional[float],
                              Optional[float]]]:
    """Per-metric ``(name, a, b, b - a)`` rows over the union of names;
    a missing side reports ``None`` (rendered as ``-``)."""
    flat_a = flatten_snapshot(a)
    flat_b = flatten_snapshot(b)
    rows = []
    for name in sorted(set(flat_a) | set(flat_b)):
        left = flat_a.get(name)
        right = flat_b.get(name)
        delta = (right - left) if left is not None and right is not None \
            else None
        rows.append((name, left, right, delta))
    return rows


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def render_summary(snapshot: Dict[str, object], label: str = "value") -> str:
    """One metrics file as a sorted table."""
    flat = flatten_snapshot(snapshot)
    return render_table(
        ["Metric", label],
        [[name, _fmt(flat[name])] for name in sorted(flat)],
        title="[metrics] snapshot summary")


def render_diff(a: Dict[str, object], b: Dict[str, object],
                label_a: str = "A", label_b: str = "B",
                changed_only: bool = False) -> str:
    """Two metrics files side by side with deltas."""
    rows = diff_rows(a, b)
    if changed_only:
        rows = [row for row in rows if row[3] is None or row[3] != 0]
    body = [[name, _fmt(left), _fmt(right),
             _fmt(delta) if delta is None or delta >= 0
             else f"-{_fmt(-delta)}"]
            for name, left, right, delta in rows]
    return render_table(["Metric", label_a, label_b, "Delta (B-A)"], body,
                        title="[metrics] snapshot diff")


def shard_breakdown_rows(snapshot: Dict[str, object]
                         ) -> Dict[int, Dict[str, float]]:
    """Per-slice field map from a snapshot's shard dimension (may be
    empty — unsharded snapshots carry no ``shard.sliceNN.*`` metrics)."""
    per_slice: Dict[int, Dict[str, float]] = {}
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            match = _SHARD_METRIC.match(name)
            if match is not None:
                per_slice.setdefault(int(match.group(1)),
                                     {})[match.group(2)] = value
    return per_slice


def render_shard_breakdown(snapshot: Dict[str, object]) -> Optional[str]:
    """The per-shard breakdown table, or ``None`` when the snapshot
    carries no shard dimension."""
    per_slice = shard_breakdown_rows(snapshot)
    if not per_slice:
        return None
    total_probes = sum(fields.get("probes", 0)
                       for fields in per_slice.values())
    body = []
    for index in sorted(per_slice):
        fields = per_slice[index]
        probes = fields.get("probes", 0)
        share = (f"{100.0 * probes / total_probes:.1f}%"
                 if total_probes else "-")
        body.append([str(index), _fmt(probes),
                     _fmt(fields.get("responses")),
                     _fmt(fields.get("route_holes")),
                     f"{fields.get('duration_virtual_seconds', 0.0):,.1f}",
                     share])
    gauges = snapshot.get("gauges", {})
    imbalance = gauges.get("shard.imbalance_factor")
    title = "[metrics] per-shard breakdown"
    if imbalance is not None:
        title += f" (imbalance factor {imbalance:.2f}x)"
    return render_table(
        ["Slice", "Probes", "Responses", "Holes", "Duration (vt s)",
         "Share"],
        body, title=title)


def metrics_report(path_a: str, path_b: Optional[str] = None,
                   changed_only: bool = False,
                   exposition: bool = False) -> str:
    """Entry point shared by the CLI subcommand and ``tools/``: summarize
    one metrics file, diff two, or (``exposition=True``) re-render one as
    Prometheus text exposition — the same format the daemon's ``metrics``
    control op serves live."""
    snapshot_a = load_snapshot(path_a)
    if exposition:
        if path_b is not None:
            raise ValueError("--exposition renders one snapshot, not a "
                             "diff")
        return render_exposition(snapshot_a).rstrip("\n")
    if path_b is None:
        summary = render_summary(snapshot_a)
        breakdown = render_shard_breakdown(snapshot_a)
        if breakdown is not None:
            summary = f"{summary}\n\n{breakdown}"
        return summary
    snapshot_b = load_snapshot(path_b)
    return render_diff(snapshot_a, snapshot_b, label_a=path_a,
                       label_b=path_b, changed_only=changed_only)
