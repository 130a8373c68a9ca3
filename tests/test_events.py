"""The probe-level flight recorder (repro.obs.events): format round
trips, sampling, ring-buffer mode, engine wiring, and the determinism
contracts event logs must keep (same seed -> byte-identical files,
cached vs uncached -> identical streams, faulted stop/hole events
matching ScanResult)."""

import io
import json

import pytest

from repro.baselines import Scamper, ScamperConfig, Yarrp, YarrpConfig
from repro.baselines.traceroute import TracerouteScanner
from repro.core import FlashRoute, FlashRouteConfig
from repro.obs import (
    EVENTS_SCHEMA,
    EventRecorder,
    Telemetry,
    read_events,
    validate_events,
)
from repro.obs.events import prefix_sampled
from repro.obs.scandiff import view_from_events
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


def record_scan(topology, path, faults=None,
                network_class=SimulatedNetwork, **kw):
    telemetry = Telemetry(events=EventRecorder(path=str(path), **kw))
    result = run_scan(topology, telemetry, faults=faults,
                      network_class=network_class)
    telemetry.close()
    return result


# --------------------------------------------------------------------- #
# EventRecorder unit behaviour
# --------------------------------------------------------------------- #

class TestEventRecorder:
    def emit_sample(self, recorder):
        recorder.probe_sent(0.5, 7, 3, 0x01020304, 41000, "main")
        recorder.response(0.75, 7, 3, 0x0A000001, "ttl_exceeded",
                          rtt=12.5, dup=True)
        recorder.response(0.9, 7, 16, 0x01020304, "port_unreachable",
                          rtt=30.0, dist=16)
        recorder.stop_decision(1.0, 7, "gap_limit", 21)
        recorder.preprobe_predict(0.1, 8, 14, "predicted")
        recorder.dcb_release(2.0, 7)

    def test_jsonl_and_binary_round_trip_identically(self, tmp_path):
        jsonl = tmp_path / "log.jsonl"
        binary = tmp_path / "log.bin"
        for path in (jsonl, binary):
            recorder = EventRecorder(path=str(path))
            self.emit_sample(recorder)
            recorder.close()
        a = read_events(str(jsonl))
        b = read_events(str(binary))
        assert a == b
        assert a[0] == {"ev": "events", "schema": EVENTS_SCHEMA}
        assert a[1]["phase"] == "main"
        assert a[2]["dup"] == 1 and "dist" not in a[2]
        assert a[3]["dist"] == 16 and "dup" not in a[3]
        assert a[4] == {"ev": "stop_decision", "vt": 1.0, "prefix": 7,
                        "reason": "gap_limit", "ttl": 21}
        assert a[5]["source"] == "predicted" and a[5]["distance"] == 14
        assert a[6] == {"ev": "dcb_release", "vt": 2.0, "prefix": 7}
        # The .bin file is the compact format.
        assert binary.stat().st_size < jsonl.stat().st_size

    def test_fast_jsonl_lines_match_json_dumps(self):
        """The hand-rolled line formatter must stay byte-identical to
        json.dumps(sort_keys=True) over every kind and optional field."""
        from repro.obs.events import _record_to_dict, _record_to_line

        recorder = EventRecorder(stream=io.StringIO(), ring=64)
        self.emit_sample(recorder)
        recorder.response(1.25, 7, 9, 0x0A000002, "echo_reply", pre=True)
        recorder.preprobe_predict(0.1, 9, 17, "measured")
        records = list(recorder._ring)
        assert len(records) == 8
        for record in records:
            assert _record_to_line(record) == json.dumps(
                _record_to_dict(record), sort_keys=True) + "\n"

    def test_stream_construction_and_counters(self):
        stream = io.StringIO()
        recorder = EventRecorder(stream=stream)
        self.emit_sample(recorder)
        assert recorder.events_recorded == 6
        assert recorder.events_sampled_out == 0
        recorder.close()
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().split("\n")]
        validate_events(lines)
        assert len(lines) == 7

    def test_ring_buffer_keeps_tail_and_counts_drops(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        recorder = EventRecorder(path=str(path), ring=3)
        for ttl in range(1, 9):
            recorder.probe_sent(float(ttl), 7, ttl, 1, 40000, "main")
        assert recorder.events_dropped == 5
        recorder.close()
        events = read_events(str(path))
        assert [event["ttl"] for event in events[1:]] == [6, 7, 8]

    def test_sampling_is_deterministic_and_per_prefix(self, tmp_path):
        kept = {prefix for prefix in range(512)
                if prefix_sampled(prefix, 0.25)}
        # Deterministic (pure hash) and roughly proportional.
        assert kept == {prefix for prefix in range(512)
                        if prefix_sampled(prefix, 0.25)}
        assert 64 < len(kept) < 192
        assert {p for p in range(512) if prefix_sampled(p, 1.0)} \
            == set(range(512))
        assert not any(prefix_sampled(p, 0.0) for p in range(512))
        # A sampled recorder keeps exactly the hash-selected prefixes.
        path = tmp_path / "sampled.jsonl"
        recorder = EventRecorder(path=str(path), sample=0.25)
        for prefix in range(512):
            recorder.probe_sent(0.0, prefix, 1, prefix, 40000, "main")
        recorder.close()
        events = read_events(str(path))
        assert {event["prefix"] for event in events[1:]} == kept
        assert recorder.events_sampled_out == 512 - len(kept)

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            EventRecorder()
        with pytest.raises(ValueError):
            EventRecorder(path=str(tmp_path / "x"), stream=io.StringIO())
        with pytest.raises(ValueError):
            EventRecorder(path=str(tmp_path / "x"), sample=1.5)
        with pytest.raises(ValueError):
            EventRecorder(path=str(tmp_path / "x"), ring=0)

    def test_read_events_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ev": "trace", "schema": "other"}\n')
        with pytest.raises(ValueError):
            read_events(str(bad))
        truncated = tmp_path / "bad.bin"
        from repro.obs.events import BINARY_MAGIC
        truncated.write_bytes(BINARY_MAGIC + b"\x1d\x01\x02")
        with pytest.raises(ValueError):
            read_events(str(truncated))


# --------------------------------------------------------------------- #
# Engine wiring: events describe exactly what the scan did
# --------------------------------------------------------------------- #

class TestEngineWiring:
    def test_event_counts_match_scan_result(self, topology, tmp_path):
        path = tmp_path / "scan.jsonl"
        result = record_scan(topology, path)
        events = read_events(str(path))[1:]
        by_kind = {}
        for event in events:
            by_kind.setdefault(event["ev"], []).append(event)
        assert len(by_kind["probe_sent"]) == result.probes_sent
        assert len(by_kind["response"]) == result.responses
        assert sum(1 for e in by_kind["response"] if e.get("dup")) \
            == result.duplicate_responses
        # Every scanned prefix leaves the ring exactly once.
        releases = [e["prefix"] for e in by_kind["dcb_release"]]
        assert len(releases) == len(set(releases)) == result.num_targets

    def test_routes_and_holes_reconstruct_from_events(self, topology,
                                                      tmp_path):
        path = tmp_path / "scan.jsonl"
        result = record_scan(topology, path)
        view = view_from_events(str(path), read_events(str(path)))
        assert view.routes == result.routes
        assert view.dest_distance == result.dest_distance

    def test_same_seed_event_files_byte_identical(self, topology, tmp_path):
        paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        for path in paths:
            record_scan(topology, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        bins = (tmp_path / "a.bin", tmp_path / "b.bin")
        for path in bins:
            record_scan(topology, path)
        assert bins[0].read_bytes() == bins[1].read_bytes()

    def test_cached_vs_uncached_identical_streams(self, topology, tmp_path):
        cached = tmp_path / "cached.jsonl"
        uncached = tmp_path / "uncached.jsonl"
        record_scan(topology, cached)
        record_scan(topology, uncached, network_class=OracleNetwork)
        assert cached.read_bytes() == uncached.read_bytes()

    def test_faulted_run_events_match_scan_result(self, topology, tmp_path):
        path = tmp_path / "faulted.jsonl"
        faults = FaultModel.symmetric_loss(0.03, seed=5,
                                           duplicate_probability=0.02)
        result = record_scan(topology, path, faults=faults)
        view = view_from_events(str(path), read_events(str(path)))
        assert view.routes == result.routes
        assert view.dest_distance == result.dest_distance
        # route_holes() computed over the replayed routes agrees.
        from repro.core.results import ScanResult
        replay = ScanResult(tool="replay")
        for prefix, hops in view.routes.items():
            for ttl, responder in hops.items():
                replay.add_hop(prefix, ttl, responder)
        replay.dest_distance = view.dest_distance
        assert replay.route_holes() == result.route_holes()
        # Stop decisions cover every retired destination's forward stop.
        events = read_events(str(path))[1:]
        reasons = {e["reason"] for e in events
                   if e["ev"] == "stop_decision"}
        assert reasons <= {"ttl1", "stop_set", "gap_limit", "max_ttl",
                           "dest_reached"}

    def test_events_off_result_identical(self, topology, tmp_path):
        from repro.core.output import result_to_dict
        path = tmp_path / "scan.jsonl"
        recorded = record_scan(topology, path)
        bare = run_scan(topology)
        assert result_to_dict(recorded) == result_to_dict(bare)

    def test_stop_reason_events_match_metrics(self, topology, tmp_path):
        path = tmp_path / "scan.jsonl"
        telemetry = Telemetry(events=EventRecorder(path=str(path)))
        run_scan(topology, telemetry)
        telemetry.close()
        events = read_events(str(path))[1:]
        counts = {}
        for event in events:
            if event["ev"] == "stop_decision":
                counts[event["reason"]] = counts.get(event["reason"], 0) + 1
        reg = telemetry.registry
        assert counts.get("ttl1", 0) == reg.counter("scan.backward_stops.ttl1")
        assert counts.get("stop_set", 0) \
            == reg.counter("scan.backward_stops.stop_set")
        assert counts.get("gap_limit", 0) \
            == reg.counter("scan.forward_stops.gap_limit")
        assert counts.get("max_ttl", 0) \
            == reg.counter("scan.forward_stops.max_ttl")
        assert counts.get("dest_reached", 0) \
            == reg.counter("scan.forward_stops.dest_reached")

    def test_preprobe_predict_events_match_ledger(self, topology, tmp_path):
        path = tmp_path / "scan.jsonl"
        telemetry = Telemetry(events=EventRecorder(path=str(path)))
        run_scan(topology, telemetry)
        telemetry.close()
        events = read_events(str(path))[1:]
        sources = {}
        for event in events:
            if event["ev"] == "preprobe_predict":
                sources[event["source"]] = sources.get(event["source"], 0) + 1
        reg = telemetry.registry
        assert sources.get("measured", 0) \
            == reg.counter("scan.preprobe.measured")
        assert sources.get("predicted", 0) \
            == reg.counter("scan.preprobe.predicted")

    def test_rtt_histogram_recorded_for_every_engine(self, topology):
        engines = {
            "flashroute": lambda t: FlashRoute(
                FlashRouteConfig(split_ttl=16, gap_limit=5), telemetry=t),
            "yarrp": lambda t: Yarrp(YarrpConfig.yarrp_16(), telemetry=t),
            "scamper": lambda t: Scamper(ScamperConfig.scamper_16(),
                                         telemetry=t),
            "traceroute": lambda t: TracerouteScanner(telemetry=t),
        }
        for name, build in engines.items():
            telemetry = Telemetry()
            network = SimulatedNetwork(topology)
            result = build(telemetry).scan(network)
            hist = telemetry.registry.snapshot()["histograms"].get(
                "scan.rtt_ms")
            assert hist is not None, name
            assert hist["count"] == result.responses, name

    def test_baseline_engines_emit_events(self, topology, tmp_path):
        builders = {
            "yarrp": lambda t: Yarrp(YarrpConfig.yarrp_16(), telemetry=t),
            "scamper": lambda t: Scamper(ScamperConfig.scamper_16(),
                                         telemetry=t),
            "traceroute": lambda t: TracerouteScanner(telemetry=t),
        }
        for name, build in builders.items():
            path = tmp_path / f"{name}.jsonl"
            telemetry = Telemetry(events=EventRecorder(path=str(path)))
            result = build(telemetry).scan(SimulatedNetwork(topology))
            telemetry.close()
            events = read_events(str(path))[1:]
            sent = [e for e in events if e["ev"] == "probe_sent"]
            got = [e for e in events if e["ev"] == "response"]
            assert len(sent) == result.probes_sent, name
            assert len(got) == result.responses, name
            view = view_from_events(name, read_events(str(path)))
            assert view.routes == result.routes, name
            assert view.dest_distance == result.dest_distance, name

    def test_artifact_counters_fold_into_registry(self, topology):
        telemetry = Telemetry()
        run_scan(topology, telemetry)
        reg = telemetry.registry
        # The simulated topology has no loops/cycles/diamonds; the
        # counters exist and are zero.
        snapshot = reg.snapshot()["counters"]
        assert snapshot["scan.artifacts.loops"] == 0
        assert snapshot["scan.artifacts.cycles"] == 0
        assert snapshot["scan.artifacts.diamonds"] == 0
