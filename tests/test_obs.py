"""The observability subsystem (repro.obs): metrics registry, tracer,
progress reporter, and the determinism/zero-overhead contracts the
telemetry wiring must keep."""

import io
import json

import pytest

from repro.core import FlashRoute, FlashRouteConfig
from repro.core.output import result_to_dict
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    POW2_BUCKETS,
    ProgressReporter,
    ScanTracer,
    Stopwatch,
    Telemetry,
    deterministic_snapshot,
    load_snapshot,
    read_trace,
    validate_trace,
)
from repro.simnet import (
    FaultModel,
    SimulatedNetwork,
    Topology,
    TopologyConfig,
)

from oracle.network import OracleNetwork

CFG = TopologyConfig(num_prefixes=96, seed=13)


@pytest.fixture(scope="module")
def topology():
    return Topology(CFG)


def run_scan(topology, telemetry=None, faults=None,
             network_class=SimulatedNetwork, seed=1):
    network = network_class(topology, faults=faults)
    config = FlashRouteConfig(split_ttl=16, gap_limit=5, seed=seed)
    result = FlashRoute(config, telemetry=telemetry).scan(network)
    if telemetry is not None:
        telemetry.record_network(network)
    return result


# --------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------- #

class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 4)
        reg.set_gauge("a.level", 2.5)
        reg.set_gauge("a.level", 3.0)
        assert reg.counter("a.count") == 5
        assert reg.counter("missing") == 0
        assert reg.gauge("a.level") == 3.0
        assert reg.gauge("missing") is None

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        for value in (1, 3, 1000, 10**9):
            reg.observe("h", value)
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["sum"] == 1 + 3 + 1000 + 10**9
        # Overflow slot caught the out-of-range value.
        assert hist["counts"][-1] == 1

    def test_histogram_bound_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.observe("h", 1, buckets=POW2_BUCKETS)
        with pytest.raises(ValueError):
            reg.observe("h", 1, buckets=(1, 2, 3))

    def test_unsorted_bounds_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.observe("h", 1, buckets=(5, 1))

    def test_snapshot_is_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.inc("m")
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]
        assert reg.names() == ["a", "m", "z"]

    def test_save_segregates_wall_clock(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("scan.probes.total", 7)
        path = str(tmp_path / "metrics.json")
        reg.save(path, extra_wall={"elapsed_cpu": 0.25})
        loaded = load_snapshot(path)
        assert loaded["counters"]["scan.probes.total"] == 7
        assert "written_unix" in loaded["wall"]
        assert loaded["wall"]["elapsed_cpu"] == 0.25
        # The deterministic view drops the wall section entirely.
        assert "wall" not in deterministic_snapshot(loaded)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    def test_deterministic_snapshot_excludes_prefixes(self):
        reg = MetricsRegistry()
        reg.inc("scan.probes.total", 3)
        reg.inc("simnet.cache.hits", 9)
        reg.set_gauge("simnet.cache.entries", 2)
        view = deterministic_snapshot(reg.snapshot(),
                                      exclude_prefixes=("simnet.cache.",))
        assert view["counters"] == {"scan.probes.total": 3}
        assert view["gauges"] == {}


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #

class TestScanTracer:
    def test_round_trip_and_validate(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = ScanTracer(path=path)
        scan_id = tracer.begin("scan", "demo", 0.0, targets=4)
        phase_id = tracer.begin("phase", "main", 1.0)
        tracer.event("checkpoint", 1.5, probes=10)
        tracer.end("phase", "main", 2.0)
        tracer.end("scan", "demo", 3.0, probes=20)
        tracer.close()

        events = read_trace(path)
        validate_trace(events)
        assert events[0]["schema"] == "repro.obs.trace/1"
        begins = [e for e in events if e["ev"] == "begin"]
        assert [e["name"] for e in begins] == ["demo", "main"]
        # Parent linkage: phase nests under scan, the event under phase.
        assert begins[1]["parent"] == scan_id
        point = next(e for e in events if e["ev"] == "event")
        assert point["parent"] == phase_id
        # Extra fields ride along verbatim.
        assert begins[0]["targets"] == 4
        assert point["probes"] == 10

    def test_stream_constructor(self):
        stream = io.StringIO()
        tracer = ScanTracer(stream=stream)
        tracer.begin("scan", "s", 0.0)
        tracer.end("scan", "s", 1.0)
        tracer.close()
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        validate_trace(lines)
        assert tracer.events_written == 3

    def test_requires_exactly_one_destination(self, tmp_path):
        with pytest.raises(ValueError):
            ScanTracer()
        with pytest.raises(ValueError):
            ScanTracer(stream=io.StringIO(),
                       path=str(tmp_path / "t.jsonl"))

    def test_validate_rejects_bad_nesting(self):
        header = {"ev": "trace", "schema": "repro.obs.trace/1",
                  "vt": 0.0, "wt": 0.0}
        begin = {"ev": "begin", "span": "scan", "name": "a", "vt": 0.0}
        wrong_end = {"ev": "end", "span": "scan", "name": "b", "vt": 1.0}
        with pytest.raises(ValueError):
            validate_trace([header, begin, wrong_end])
        with pytest.raises(ValueError):
            validate_trace([header, begin])  # left open
        with pytest.raises(ValueError):
            validate_trace([begin])  # no header

    def test_null_tracer_is_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("scan", "x", 0.0) == 0
        NULL_TRACER.end("scan", "x", 1.0)
        NULL_TRACER.event("y", 2.0)
        NULL_TRACER.close()


# --------------------------------------------------------------------- #
# Progress
# --------------------------------------------------------------------- #

class TestProgressReporter:
    def test_keys_off_virtual_time(self):
        stream = io.StringIO()
        progress = ProgressReporter(interval=10.0, stream=stream)
        assert progress.due(0.0)
        progress.report(0.0, {"probes": 5})
        # Not due again until 10 virtual seconds later, no matter how
        # many checkpoints happen in between.
        assert not progress.due(3.0)
        assert not progress.due(9.99)
        assert progress.due(12.0)
        progress.report(12.0, {"probes": 1234})
        assert progress.lines_emitted == 2
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[progress] t=0.0s probes=5"
        assert lines[1] == "[progress] t=12.0s probes=1,234"

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval=0.0)


class TestStopwatch:
    def test_elapsed_is_monotone(self):
        with Stopwatch() as watch:
            mid = watch.elapsed
        assert 0.0 <= mid <= watch.elapsed
        final = watch.elapsed
        assert watch.elapsed == final  # frozen after exit


# --------------------------------------------------------------------- #
# Scan-level telemetry contracts
# --------------------------------------------------------------------- #

class TestScanTelemetry:
    def test_metrics_cover_engine_and_network(self, topology):
        telemetry = Telemetry()
        result = run_scan(topology, telemetry=telemetry)
        reg = telemetry.registry
        assert reg.counter("scan.probes.total") == result.probes_sent
        assert reg.counter("scan.rounds") == result.rounds
        assert (reg.counter("scan.interfaces.discovered")
                == result.interface_count())
        assert reg.counter("simnet.probes_sent") == result.probes_sent
        # Stop-reason attribution: every retired destination stopped for
        # some recorded reason.
        stops = (reg.counter("scan.forward_stops.gap_limit")
                 + reg.counter("scan.forward_stops.max_ttl")
                 + reg.counter("scan.forward_stops.dest_reached"))
        assert stops > 0
        assert reg.gauge("scan.duration_virtual_seconds") == result.duration
        hist = reg.snapshot()["histograms"]["scan.ring.occupancy_per_round"]
        assert hist["count"] == result.rounds

    def test_same_seed_same_snapshot(self, topology):
        first = Telemetry()
        second = Telemetry()
        run_scan(topology, telemetry=first)
        run_scan(topology, telemetry=second)
        assert first.registry.snapshot() == second.registry.snapshot()

    def test_cached_vs_uncached_identical_modulo_cache(self, topology):
        cached = Telemetry()
        uncached = Telemetry()
        run_scan(topology, telemetry=cached)
        run_scan(topology, telemetry=uncached, network_class=OracleNetwork)
        exclude = ("simnet.cache.",)
        assert (deterministic_snapshot(cached.registry.snapshot(), exclude)
                == deterministic_snapshot(uncached.registry.snapshot(),
                                          exclude))
        # The excluded prefix is the only difference.
        assert (cached.registry.gauge("simnet.cache.enabled") == 1)
        assert (uncached.registry.gauge("simnet.cache.enabled") == 0)

    def test_faulted_scan_snapshot_deterministic(self, topology):
        def faulted():
            telemetry = Telemetry()
            faults = FaultModel(probe_loss=0.05, response_loss=0.05,
                                duplicate_probability=0.02, seed=7)
            run_scan(topology, telemetry=telemetry, faults=faults)
            return telemetry.registry.snapshot()

        first = faulted()
        assert first == faulted()
        assert (first["counters"]["simnet.faults.probes_lost"]
                + first["counters"]["simnet.faults.responses_lost"]) > 0

    def test_disabled_telemetry_result_unchanged(self, topology):
        plain = run_scan(topology)
        telemetry = Telemetry()
        instrumented = run_scan(topology, telemetry=telemetry)
        assert result_to_dict(plain) == result_to_dict(instrumented)
        assert json.dumps(plain.as_row(), sort_keys=True, default=str) == \
            json.dumps(instrumented.as_row(), sort_keys=True, default=str)

    def test_trace_spans_validate_and_are_deterministic(self, topology,
                                                        tmp_path):
        def traced(name):
            path = str(tmp_path / f"{name}.jsonl")
            telemetry = Telemetry(tracer=ScanTracer(path=path))
            run_scan(topology, telemetry=telemetry)
            telemetry.close()
            return read_trace(path)

        events = traced("a")
        validate_trace(events)
        names = [e["name"] for e in events if e["ev"] == "begin"]
        assert names[0].startswith("FlashRoute")
        assert "preprobe" in names and "main" in names
        assert any(name.startswith("round-") for name in names)

        def strip_wall(evts):
            return [{k: v for k, v in e.items() if k != "wt"}
                    for e in evts]

        assert strip_wall(events) == strip_wall(traced("b"))

    def test_progress_lines_reproducible(self, topology):
        def lines():
            stream = io.StringIO()
            telemetry = Telemetry(
                progress=ProgressReporter(interval=5.0, stream=stream))
            run_scan(topology, telemetry=telemetry)
            return stream.getvalue()

        first = lines()
        assert first == lines()
        assert first.startswith("[progress] t=")
        assert "interfaces=" in first

    def test_simnet_stats_rows(self, topology):
        faults = FaultModel(probe_loss=0.05, seed=7)
        network = SimulatedNetwork(topology, faults=faults)
        config = FlashRouteConfig(split_ttl=16, gap_limit=5, seed=1)
        result = FlashRoute(config).scan(network)
        bare = result.as_row()
        assert "cache_hits" not in bare
        result.attach_simnet_stats(network.stats())
        row = result.as_row()
        assert row["cache_hits"] == network.stats()["route_cache"]["hits"]
        assert row["probes_lost"] >= 0
        assert row["rate_limited_drops"] == 0


class TestBaselineTelemetry:
    @pytest.mark.parametrize("tool", ["yarrp-16", "scamper-16",
                                      "traceroute"])
    def test_registry_tools_record(self, topology, tool, tmp_path):
        from repro.api import ScanRequest
        from repro.core.scanner import create_scanner

        path = str(tmp_path / "trace.jsonl")
        stream = io.StringIO()
        telemetry = Telemetry(
            tracer=ScanTracer(path=path),
            progress=ProgressReporter(interval=5.0, stream=stream))
        scanner = create_scanner(ScanRequest(tool=tool), telemetry)
        network = SimulatedNetwork(topology)
        result = scanner.scan(network)
        telemetry.record_network(network)
        telemetry.close()
        assert (telemetry.registry.counter("scan.probes.total")
                == result.probes_sent)
        assert (telemetry.registry.counter("simnet.probes_sent")
                == result.probes_sent)
        events = read_trace(path)
        validate_trace(events)
        assert any(e["span"] == "scan" for e in events[1:])
        assert telemetry.progress.lines_emitted > 0
