"""Shard-aware observability (PR 9): heartbeats, merged span forests,
the per-slice shard report, live multi-worker progress, per-slice pcaps.

The contracts under test:

* a sharded ``--trace`` run produces one multi-root forest that passes
  the (stricter, forest-aware) ``validate_trace`` and whose
  deterministic content is byte-identical for every worker count;
* the merged metrics snapshot carries a deterministic per-slice shard
  dimension, with all wall-clock shard data quarantined in the wall
  report (never in counters/gauges);
* heartbeats are throttled on the worker's virtual clock, carry the
  issue's schema fields, and cost nothing when disabled;
* the parent progress view renders throttled aggregate lines with
  per-worker rates and straggler flags;
* the snapshot merge + breakdown render work under both ``fork`` and
  ``spawn`` start methods.
"""

import io
import json
import multiprocessing

import pytest

from repro.api import ScanRequest
from repro.core.sharding import ShardPlan, run_sharded_scan
from repro.obs.metrics import deterministic_snapshot
from repro.obs.report import render_shard_breakdown, shard_breakdown_rows
from repro.obs.shardobs import (
    HEARTBEAT_SCHEMA,
    ShardHeartbeatReporter,
    ShardProgressView,
    add_shard_dimension,
    merge_trace_logs,
    shard_imbalance,
    shard_wall_report,
    slice_metric_name,
    slice_pcap_path,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    ScanTracer,
    deterministic_trace,
    validate_trace,
)

_PREFIXES = 96
_SEED = 11


def _plan(shards=1, **wishes):
    return ShardPlan(ScanRequest(tool="flashroute-16", prefixes=_PREFIXES,
                                 seed=_SEED, shards=shards), **wishes)


def _header_line():
    return json.dumps({"ev": "trace", "schema": TRACE_SCHEMA,
                       "vt": 0.0, "wt": 1.0}, sort_keys=True)


def _slice_trace(vt_base=0.0):
    sink = io.StringIO()
    tracer = ScanTracer(stream=sink)
    tracer.begin("scan", "demo", vt_base, targets=4)
    tracer.begin("phase", "main", vt_base + 1.0)
    tracer.event("checkpoint", vt_base + 1.5, probes=10)
    tracer.end("phase", "main", vt_base + 2.0)
    tracer.end("scan", "demo", vt_base + 3.0)
    tracer.close()
    return sink.getvalue()


# --------------------------------------------------------------------- #
# validate_trace: multi-root forests (satellite 2)
# --------------------------------------------------------------------- #

class TestValidateTraceForests:
    def test_accepts_sequential_roots(self):
        merged = merge_trace_logs([_slice_trace(), _slice_trace(10.0)])
        events = [json.loads(line) for line in merged.splitlines()]
        validate_trace(events)

    def test_rejects_duplicate_span_ids_across_roots(self):
        events = [json.loads(_header_line()),
                  {"ev": "begin", "span": "scan", "name": "a", "id": 1,
                   "parent": 0, "vt": 0.0},
                  {"ev": "end", "span": "scan", "name": "a", "id": 1,
                   "vt": 1.0},
                  {"ev": "begin", "span": "scan", "name": "b", "id": 1,
                   "parent": 0, "vt": 2.0},
                  {"ev": "end", "span": "scan", "name": "b", "id": 1,
                   "vt": 3.0}]
        with pytest.raises(ValueError, match="duplicate span id"):
            validate_trace(events)

    def test_rejects_orphaned_span_parent(self):
        # Root 2's child claims root 1's span as parent: an orphan that
        # would silently cross roots in a bad merge.
        events = [json.loads(_header_line()),
                  {"ev": "begin", "span": "scan", "name": "a", "id": 1,
                   "parent": 0, "vt": 0.0},
                  {"ev": "end", "span": "scan", "name": "a", "id": 1,
                   "vt": 1.0},
                  {"ev": "begin", "span": "scan", "name": "b", "id": 2,
                   "parent": 0, "vt": 2.0},
                  {"ev": "begin", "span": "phase", "name": "p", "id": 3,
                   "parent": 1, "vt": 2.5},
                  {"ev": "end", "span": "phase", "name": "p", "id": 3,
                   "vt": 2.6},
                  {"ev": "end", "span": "scan", "name": "b", "id": 2,
                   "vt": 3.0}]
        with pytest.raises(ValueError, match="orphaned span"):
            validate_trace(events)

    def test_rejects_orphaned_point_event(self):
        events = [json.loads(_header_line()),
                  {"ev": "begin", "span": "scan", "name": "a", "id": 1,
                   "parent": 0, "vt": 0.0},
                  {"ev": "event", "name": "stray", "parent": 99,
                   "vt": 0.5},
                  {"ev": "end", "span": "scan", "name": "a", "id": 1,
                   "vt": 1.0}]
        with pytest.raises(ValueError, match="orphaned event"):
            validate_trace(events)

    def test_rejects_overlapping_spans_by_id(self):
        # begin/end pairs whose span kind and name line up but whose ids
        # interleave — overlap across roots a name check can't catch.
        events = [json.loads(_header_line()),
                  {"ev": "begin", "span": "scan", "name": "a", "id": 1,
                   "parent": 0, "vt": 0.0},
                  {"ev": "end", "span": "scan", "name": "a", "id": 7,
                   "vt": 1.0}]
        with pytest.raises(ValueError, match="overlapping spans"):
            validate_trace(events)

    def test_rejects_duplicate_header(self):
        events = [json.loads(_header_line()), json.loads(_header_line())]
        with pytest.raises(ValueError, match="duplicate trace header"):
            validate_trace(events)

    def test_accepts_idless_legacy_events(self):
        # Hand-built events without id/parent (as older tests construct)
        # still validate on the name/nesting checks alone.
        events = [json.loads(_header_line()),
                  {"ev": "begin", "span": "scan", "name": "a", "vt": 0.0},
                  {"ev": "end", "span": "scan", "name": "a", "vt": 1.0}]
        validate_trace(events)


# --------------------------------------------------------------------- #
# merge_trace_logs
# --------------------------------------------------------------------- #

class TestMergeTraceLogs:
    def test_single_header_ids_renumbered_slice_tagged(self):
        merged = merge_trace_logs([_slice_trace(), _slice_trace()])
        events = [json.loads(line) for line in merged.splitlines()]
        assert [e["ev"] for e in events].count("trace") == 1
        begins = [e for e in events if e["ev"] == "begin"]
        assert [e["id"] for e in begins] == [1, 2, 3, 4]
        # Roots keep parent 0; nested spans point into their own slice.
        assert [e["parent"] for e in begins] == [0, 1, 0, 3]
        assert [e["slice"] for e in begins] == [0, 0, 1, 1]
        points = [e for e in events if e["ev"] == "event"]
        assert [e["parent"] for e in points] == [2, 4]
        validate_trace(events)

    def test_deterministic_in_input_order_only(self):
        a = merge_trace_logs([_slice_trace(), _slice_trace(5.0)])
        b = merge_trace_logs([_slice_trace(), _slice_trace(5.0)])
        assert deterministic_trace([json.loads(line)
                                    for line in a.splitlines()]) == \
            deterministic_trace([json.loads(line)
                                 for line in b.splitlines()])

    def test_rejects_empty_and_headerless_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_trace_logs([])
        with pytest.raises(ValueError, match="empty trace"):
            merge_trace_logs([_slice_trace(), "   \n"])
        with pytest.raises(ValueError, match="missing trace header"):
            merge_trace_logs(['{"ev": "begin"}'])


# --------------------------------------------------------------------- #
# Heartbeats (worker side)
# --------------------------------------------------------------------- #

class TestShardHeartbeatReporter:
    def test_record_schema_and_fields(self):
        records = []
        reporter = ShardHeartbeatReporter(1.0, records.append, 7)
        assert reporter.due(0.0)
        reporter.report(0.0, {"tool": "FlashRoute-16", "round": 1,
                              "probes": 100, "responses": 40,
                              "pps": 50.0, "remaining": 12,
                              "interfaces": 9, "ignored": "x"})
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == HEARTBEAT_SCHEMA
        assert record["slice"] == 7
        assert isinstance(record["pid"], int)
        assert record["vt"] == 0.0
        assert record["wall"] > 0
        assert record["probes"] == 100
        assert record["responses"] == 40
        assert "ignored" not in record

    def test_throttled_on_virtual_clock(self):
        records = []
        reporter = ShardHeartbeatReporter(10.0, records.append, 0,
                                          min_wall_seconds=0.0)
        for vt in (0.0, 1.0, 5.0, 9.9, 10.0, 15.0, 20.0):
            if reporter.due(vt):
                reporter.report(vt, {"probes": int(vt)})
        assert [r["vt"] for r in records] == [0.0, 10.0, 20.0]
        assert reporter.heartbeats_sent == 3

    def test_wall_floor_suppresses_bursts(self):
        # A virtual clock racing wall time must not flood the channel:
        # with a large wall floor only the first beat of a rapid burst
        # is emitted, and the virtual throttle still advances.
        records = []
        reporter = ShardHeartbeatReporter(1.0, records.append, 0,
                                          min_wall_seconds=3600.0)
        for vt in (0.0, 1.0, 2.0, 3.0):
            if reporter.due(vt):
                reporter.report(vt, {"probes": int(vt)})
        assert [r["vt"] for r in records] == [0.0]
        assert reporter.heartbeats_sent == 1
        assert reporter.heartbeats_suppressed == 3


# --------------------------------------------------------------------- #
# Progress view (parent side)
# --------------------------------------------------------------------- #

def _beat(pid, wall, probes, slice_index=0):
    return {"schema": HEARTBEAT_SCHEMA, "slice": slice_index, "pid": pid,
            "vt": wall, "wall": wall, "probes": probes}


class TestShardProgressView:
    def _view(self, stream, interval=1.0, **kwargs):
        clock = iter(float(i) for i in range(1000))
        return ShardProgressView(slices=16, workers=4, interval=interval,
                                 stream=stream,
                                 clock=lambda: next(clock), **kwargs)

    def test_rates_eta_and_aggregate(self):
        stream = io.StringIO()
        view = self._view(stream, interval=1000.0)
        view.observe(_beat(1, 10.0, 0))
        view.observe(_beat(2, 10.0, 0))
        view.observe(_beat(1, 11.0, 500))
        view.observe(_beat(2, 11.0, 400))
        assert view.worker_rates() == {1: 500.0, 2: 400.0}
        view.slice_done(0, 900, 50.0)
        view.finish(900)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[shard-progress] slices=0/16")
        assert lines[-1].startswith("[shard-progress] done slices=1/16")
        assert "agg_pps=" in lines[-1]

    def test_render_throttled_by_wall_interval(self):
        stream = io.StringIO()
        view = self._view(stream, interval=100.0)
        for step in range(10):
            view.observe(_beat(1, 10.0 + step, step * 50))
        # First observe renders immediately; the rest fall inside the
        # 100s wall window.
        assert view.lines_emitted == 1
        view.finish()
        assert view.lines_emitted == 2

    def test_straggler_flagged_below_median_by_factor(self):
        stream = io.StringIO()
        view = self._view(stream, interval=1000.0)
        for pid, rate in ((1, 1000), (2, 900), (3, 1100), (4, 10)):
            view.observe(_beat(pid, 10.0, 0, slice_index=pid))
            view.observe(_beat(pid, 11.0, rate, slice_index=pid))
        assert view.stragglers() == [4]
        line = view._line(20.0)
        assert "pid4=10pps!straggler" in line
        assert "pid1=1,000pps " in line or "pid1=1,000pps" in line

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardProgressView(slices=16, interval=0.0)


# --------------------------------------------------------------------- #
# Shard report: metrics dimension + wall quarantine
# --------------------------------------------------------------------- #

class TestShardReport:
    def _outcome(self, shards, **kwargs):
        return run_sharded_scan(_plan(shards, collect_metrics=True,
                                      **kwargs))

    def test_dimension_deterministic_across_worker_counts(self):
        one = self._outcome(1)
        four = self._outcome(4)
        s1 = deterministic_snapshot(one.metrics_snapshot)
        s4 = deterministic_snapshot(four.metrics_snapshot)
        assert s1 == s4
        assert s1["gauges"]["shard.slices"] == 16
        assert s1["gauges"]["shard.imbalance_factor"] >= 1.0
        probes = [s1["counters"][slice_metric_name(i, 16, "probes")]
                  for i in range(16)]
        assert sum(probes) == one.result.probes_sent

    def test_wall_data_quarantined(self):
        outcome = self._outcome(2)
        snapshot = outcome.metrics_snapshot
        for section in ("counters", "gauges"):
            for name in snapshot[section]:
                assert "pid" not in name and "cpu" not in name and \
                    "wall" not in name, name
        report = shard_wall_report(outcome.slice_stats)
        assert len(report["slices"]) == 16
        assert all(entry["wall_seconds"] > 0
                   for entry in report["slices"])
        assert sum(bucket["probes"]
                   for bucket in report["workers"].values()) \
            == outcome.result.probes_sent

    def test_imbalance_factor(self):
        assert shard_imbalance([]) == 1.0
        assert shard_imbalance([2.0, 2.0]) == 1.0
        assert shard_imbalance([1.0, 3.0]) == 1.5

    def test_add_shard_dimension_sorts_names(self):
        result = run_sharded_scan(_plan(1)).result
        snapshot = {"counters": {"z.last": 1}, "gauges": {}}
        merged = add_shard_dimension(snapshot, [(3, result)], 16)
        names = list(merged["counters"])
        assert names == sorted(names)
        assert "shard.slice03.probes" in merged["counters"]
        # The input snapshot is not mutated.
        assert "shard.slice03.probes" not in snapshot["counters"]


# --------------------------------------------------------------------- #
# Fork/spawn: merge + render of sharded snapshots (satellite 4)
# --------------------------------------------------------------------- #

def _available_methods():
    have = multiprocessing.get_all_start_methods()
    return [m for m in ("fork", "spawn") if m in have]


class TestStartMethods:
    @pytest.mark.parametrize("start_method", _available_methods())
    def test_snapshot_merges_and_renders(self, start_method):
        view = ShardProgressView(slices=16, workers=2, interval=0.001,
                                 stream=io.StringIO())
        outcome = run_sharded_scan(
            _plan(2, collect_metrics=True, heartbeat_interval=0.5),
            progress=view, start_method=start_method)
        snapshot = outcome.metrics_snapshot
        assert deterministic_snapshot(snapshot) == deterministic_snapshot(
            run_sharded_scan(_plan(1, collect_metrics=True))
            .metrics_snapshot)
        rows = shard_breakdown_rows(snapshot)
        assert sorted(rows) == list(range(16))
        table = render_shard_breakdown(snapshot)
        assert "per-shard breakdown" in table
        assert "imbalance factor" in table
        assert view.lines_emitted >= 1
        assert view.slices_done == 16

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="unavailable"):
            run_sharded_scan(_plan(2), start_method="no-such-method")


# --------------------------------------------------------------------- #
# Sequential heartbeats + merged forest end to end
# --------------------------------------------------------------------- #

class TestEndToEnd:
    def test_sequential_heartbeats_feed_view_directly(self):
        view = ShardProgressView(slices=16, workers=1, interval=1000.0,
                                 stream=io.StringIO())
        outcome = run_sharded_scan(_plan(1, heartbeat_interval=0.5),
                                   progress=view)
        assert view.heartbeats_seen > 0
        assert view.slices_done == 16
        assert view.probes_done == outcome.result.probes_sent

    def test_heartbeats_do_not_change_results(self):
        base = run_sharded_scan(_plan(1))
        beating = run_sharded_scan(
            _plan(1, heartbeat_interval=0.5),
            progress=ShardProgressView(slices=16, interval=1000.0,
                                       stream=io.StringIO()))
        assert base.result.fingerprint() == beating.result.fingerprint()

    def test_merged_forest_invariant_in_worker_count(self):
        texts = {}
        for shards in (1, 4):
            outcome = run_sharded_scan(_plan(shards, collect_trace=True))
            events = [json.loads(line)
                      for line in outcome.trace_payload.splitlines()]
            validate_trace(events)
            roots = [e for e in events if e.get("ev") == "begin"
                     and e.get("parent") == 0]
            assert len(roots) == 16
            assert [e["slice"] for e in roots] == list(range(16))
            texts[shards] = deterministic_trace(events)
        assert texts[1] == texts[4]


# --------------------------------------------------------------------- #
# Per-slice pcap paths
# --------------------------------------------------------------------- #

class TestSlicePcapPath:
    def test_suffix_forms(self):
        assert slice_pcap_path("out.pcap", 0, 16) == "out.slice00.pcap"
        assert slice_pcap_path("out.pcap", 15, 16) == "out.slice15.pcap"
        assert slice_pcap_path("cap", 3, 16) == "cap.slice03.pcap"
        assert slice_pcap_path("a/b.pcap", 5, 128) == "a/b.slice005.pcap"

    def test_sharded_run_writes_per_slice_captures(self, tmp_path):
        base = tmp_path / "cap.pcap"
        outcome = run_sharded_scan(_plan(2, pcap_base=str(base)))
        assert outcome.pcap_paths == \
            [str(tmp_path / f"cap.slice{i:02d}.pcap") for i in range(16)]
        sizes = [tmp_path.joinpath(f"cap.slice{i:02d}.pcap").stat().st_size
                 for i in range(16)]
        assert all(size > 0 for size in sizes)
