"""Service observability: request tracing, histograms, metrics/health
ops, the slow-request log and the ``top`` dashboard.

Covers the telemetry bundle's determinism contract (telemetry=None is
the untouched PR-7 path; same-virtual-clock runs snapshot
byte-identically), counter coherence under concurrency and client
disconnects, and the advance-op NaN/infinity regression.
"""

from __future__ import annotations

import asyncio
import io
import json
import math

import pytest

from repro import api
from repro.obs.metrics import (MetricsRegistry, histogram_quantile,
                               render_exposition)
from repro.obs.report import metrics_report
from repro.obs.trace import ScanTracer, read_trace, validate_trace
from repro.service.client import DaemonClient, trace_stream
from repro.service.daemon import (LIVENESS_LAG_MS, ServiceError,
                                  TraceService, start_service)
from repro.service.obs import (OUTCOMES, RateRing, RequestContext,
                               ServiceTelemetry, classify_slow_cause,
                               latency_summary)
from repro.service.top import render_frame, run_top
from repro.service.top import _top_loop


def _engine(prefixes=64, seed=20201027):
    return api.Engine.from_request(api.ScanRequest(prefixes=prefixes,
                                                   seed=seed))


def _destination(engine, offset=0):
    return f"20.0.{offset}.1"


async def _collect(service, payload):
    hops, terminal = [], None
    async for record in service.handle_trace(payload):
        if record["type"] == "hop":
            hops.append(record)
        else:
            terminal = record
    return hops, terminal


# --------------------------------------------------------------------- #
# Satellite 1: advance() must reject non-finite floats
# --------------------------------------------------------------------- #

class TestAdvanceValidation:
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_non_finite_rejected_and_clock_unpoisoned(self, seconds):
        service = TraceService(_engine())
        with pytest.raises(ServiceError):
            service.advance(seconds)
        assert service.now == 0.0
        assert service.epoch == 0
        service.advance(5.0)  # still usable afterwards
        assert service.now == 5.0

    def test_negative_still_rejected(self):
        service = TraceService(_engine())
        with pytest.raises(ServiceError):
            service.advance(-1.0)

    def test_control_op_rejects_nan(self):
        service = TraceService(_engine())
        with pytest.raises(ServiceError):
            service.handle_control({"control": "advance",
                                    "seconds": float("nan")})
        assert service.now == 0.0

    def test_nan_over_the_wire_becomes_error_record(self):
        # Python's json module parses the non-standard NaN literal, so a
        # confused client *can* deliver one to the daemon; before the
        # fix it slipped past the `< 0` check and poisoned self.now for
        # the daemon's lifetime.
        async def run():
            handle = await start_service(_engine(), host="127.0.0.1",
                                         port=0)
            async with DaemonClient(host=handle.host,
                                    port=handle.port) as client:
                record = await client.control("advance",
                                              seconds=float("nan"))
                stats = await client.control("stats")
            await handle.drain()
            return record, stats

        record, stats = asyncio.run(run())
        assert record["type"] == "error"
        assert "finite" in record["error"]
        assert stats["now"] == 0.0
        assert not math.isnan(stats["now"])

    def test_finite_steps_cannot_poison_the_clock_either(self):
        # PR 8 checked the *argument*; two finite 1e308 steps still sum
        # to infinity, after which every trace answered `internal error:
        # OverflowError` and stats/health raised the same, for life.
        # The *result* is what must stay inside the clock's range.
        async def run():
            handle = await start_service(_engine(), host="127.0.0.1",
                                         port=0)
            async with DaemonClient(host=handle.host,
                                    port=handle.port) as client:
                records = [await client.control("advance", seconds=1e308)
                           for _ in range(2)]
                _, terminal = await client.request(
                    {"destination": _destination(handle.service.engine),
                     "flow": 0})
                stats = await client.control("stats")
                health = await client.control("health")
            await handle.drain()
            return records, terminal, stats, health

        records, terminal, stats, health = asyncio.run(run())
        assert [record["type"] for record in records] == ["error"] * 2
        assert "advance" in records[1]["error"]
        assert "code" not in records[1], "a client mistake, not a bug"
        assert terminal["type"] == "done"
        assert stats["type"] == "stats" and health["type"] == "health"
        assert stats["now"] == 1.0, "only the trace's own tick moved it"
        assert stats["errors"] == 2 and stats["internal_errors"] == 0

    def test_advance_up_to_the_range_bound_still_traces(self):
        from repro.simnet.ratelimit import MAX_VIRTUAL_SECONDS

        async def run():
            service = TraceService(_engine())
            service.advance(MAX_VIRTUAL_SECONDS - 10.0)
            with pytest.raises(ServiceError):
                service.advance(10.0)
            assert service.now == MAX_VIRTUAL_SECONDS - 10.0
            return await _collect(service, {
                "destination": _destination(service.engine), "flow": 0})

        hops, terminal = asyncio.run(run())
        assert terminal["type"] == "done" and hops


# --------------------------------------------------------------------- #
# Exposition renderer + histogram quantiles (repro.obs.metrics)
# --------------------------------------------------------------------- #

class TestExposition:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.inc("service.requests.total", 7)
        registry.set_gauge("service.inflight", 2)
        for value in (0.5, 3.0, 3.5, 40.0):
            registry.observe("service.latency_virtual_ms.fresh", value,
                             buckets=(1, 5, 10))
        return registry.snapshot()

    def test_renders_counters_gauges_histograms(self):
        text = render_exposition(self._snapshot())
        lines = text.splitlines()
        assert "# TYPE flashroute_service_requests_total counter" in lines
        assert "flashroute_service_requests_total 7" in lines
        assert "# TYPE flashroute_service_inflight gauge" in lines
        assert "flashroute_service_inflight 2" in lines
        base = "flashroute_service_latency_virtual_ms_fresh"
        # Cumulative buckets: <=1 holds 1, <=5 holds 3, <=10 still 3,
        # +Inf holds all 4 observations.
        assert f'{base}_bucket{{le="1"}} 1' in lines
        assert f'{base}_bucket{{le="5"}} 3' in lines
        assert f'{base}_bucket{{le="10"}} 3' in lines
        assert f'{base}_bucket{{le="+Inf"}} 4' in lines
        assert f"{base}_sum 47" in lines
        assert f"{base}_count 4" in lines
        assert text.endswith("\n")

    def test_deterministic_and_wall_ignored(self):
        snapshot = self._snapshot()
        snapshot["wall"] = {"elapsed_seconds": 1.23}
        assert render_exposition(snapshot) \
            == render_exposition(self._snapshot())
        assert "elapsed" not in render_exposition(snapshot)

    def test_quantile_nearest_rank(self):
        histogram = {"bounds": [1, 5, 10], "counts": [1, 2, 0, 1],
                     "count": 4, "sum": 47.0}
        assert histogram_quantile(histogram, 0.0) == 1.0
        assert histogram_quantile(histogram, 0.5) == 5.0
        # The overflow observation reports the last finite bound.
        assert histogram_quantile(histogram, 1.0) == 10.0

    def test_quantile_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            histogram_quantile({"bounds": [1], "counts": [0, 0],
                                "count": 0, "sum": 0.0}, 0.5)
        with pytest.raises(ValueError):
            histogram_quantile({"bounds": [1], "counts": [1, 0],
                                "count": 1, "sum": 0.5}, 1.5)


# --------------------------------------------------------------------- #
# Telemetry primitives
# --------------------------------------------------------------------- #

class TestPrimitives:
    def test_latency_summary(self):
        summary = latency_summary([5.0, 1.0, 3.0])
        assert summary == {"count": 3, "p50": 3.0, "p90": 5.0,
                           "p99": 5.0, "max": 5.0}

    @pytest.mark.parametrize("outcome,probes,cause", [
        ("coalesced", 0, "coalesce_wait"),
        ("error", 0, "error"),
        ("hit", 0, "cache_replay"),
        ("cancelled", 0, "client_disconnect"),
        ("fresh", 10, "cache_miss"),
        ("fresh", 100, "probe_count"),
    ])
    def test_classify_slow_cause(self, outcome, probes, cause):
        assert classify_slow_cause(outcome, probes) == cause

    def test_rate_ring_differences_counters(self):
        ring = RateRing(slots=10, min_interval=0.0)
        ring.sample(0.0, {"requests": 0, "cache_hits": 0,
                          "probes_sent": 0})
        ring.sample(2.0, {"requests": 20, "cache_hits": 5,
                          "probes_sent": 200})
        rates = ring.rates()
        assert rates["req_per_s"] == 10.0
        assert rates["probes_per_s"] == 100.0
        assert rates["hit_rate"] == 0.25
        assert rates["window_seconds"] == 2.0

    def test_rate_ring_min_interval_and_underflow(self):
        ring = RateRing(slots=10, min_interval=1.0)
        assert ring.sample(0.0, {"requests": 0}) is True
        assert ring.sample(0.5, {"requests": 1}) is False  # too soon
        assert len(ring) == 1
        assert "req_per_s" not in ring.rates()  # one sample: no rate
        with pytest.raises(ValueError):
            RateRing(slots=1)

    def test_request_context_flushes_valid_span_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = ScanTracer(path=path)
        ctx = RequestContext(rid=1, vt_start=0.0, wall_start=0.0)
        ctx.phase("cache-lookup", 0.0)
        ctx.phase("probe-stream", 0.0)
        ctx.phase("respond", 1.0)
        ctx.flush(tracer, 1.0, outcome="fresh")
        tracer.close()
        events = read_trace(path)
        validate_trace(events)
        names = [event["name"] for event in events
                 if event.get("ev") == "begin"
                 and event["span"] == "service.phase"]
        assert names == ["receive", "cache-lookup", "probe-stream",
                         "respond"]
        root = [event for event in events if event.get("ev") == "begin"
                and event["span"] == "service.request"]
        assert root and root[0]["rid"] == 1


# --------------------------------------------------------------------- #
# TraceService + telemetry: counters, determinism, slow log
# --------------------------------------------------------------------- #

class TestServiceTelemetry:
    def _drive(self, telemetry):
        """A fixed request mix: 2 fresh, 1 hit, 2 coalesced, 1 error,
        1 cancelled."""
        async def run():
            service = TraceService(_engine(), telemetry=telemetry)
            await _collect(service, {"destination": _destination(
                service.engine, 0), "flow": 0})
            await _collect(service, {"destination": _destination(
                service.engine, 0), "flow": 0})  # hit
            payload = {"destination": _destination(service.engine, 1),
                       "flow": 0}
            await asyncio.gather(_collect(service, payload),
                                 _collect(service, payload),
                                 _collect(service, payload))
            await _collect(service, {"destination": "not-an-ip"})
            # A client that vanishes mid-stream: pull two records, then
            # abandon the generator (GeneratorExit inside handle_trace).
            stream = service.handle_trace(
                {"destination": _destination(service.engine, 2),
                 "flow": 0})
            await stream.__anext__()
            await stream.__anext__()
            await stream.aclose()
            await service.drain()
            return service

        return asyncio.run(run())

    def test_outcome_counters_are_coherent(self):
        telemetry = ServiceTelemetry()
        service = self._drive(telemetry)
        counters = telemetry.registry.snapshot()["counters"]
        total = counters["service.requests.total"]
        assert total == service.requests == 7
        assert total == sum(counters.get(f"service.requests.{outcome}", 0)
                            for outcome in OUTCOMES)
        assert counters["service.requests.fresh"] == 2
        assert counters["service.requests.hit"] == 1
        assert counters["service.requests.coalesced"] == 2
        assert counters["service.requests.error"] == 1
        assert counters["service.requests.cancelled"] == 1
        # The abandoned client's flight still ran to completion and its
        # probes were recorded once (flights own probes, not clients).
        assert counters["service.probes.sent"] == service.probes_sent > 0

    def test_request_ids_are_monotonic(self):
        telemetry = ServiceTelemetry(slow_ms=0.0)
        self._drive(telemetry)
        rids = [entry["rid"] for entry in telemetry.slow_requests]
        assert rids == sorted(rids)
        assert len(set(rids)) == len(rids)

    def test_same_virtual_clock_runs_snapshot_byte_identically(self):
        snapshots = []
        for _ in range(2):
            telemetry = ServiceTelemetry()
            service = self._drive(telemetry)
            snapshots.append(json.dumps(
                telemetry.metrics_snapshot(service), sort_keys=True))
        assert snapshots[0] == snapshots[1]

    def test_latency_histograms_record_virtual_time(self):
        async def run():
            telemetry = ServiceTelemetry()
            service = TraceService(_engine(), telemetry=telemetry)
            payload = {"destination": _destination(service.engine, 0),
                       "flow": 0}
            await _collect(service, payload)
            await _collect(service, payload)  # hit
            return telemetry

        telemetry = asyncio.run(run())
        histograms = telemetry.registry.snapshot()["histograms"]
        fresh = histograms["service.latency_virtual_ms.fresh"]
        assert fresh["count"] == 1
        assert fresh["sum"] > 0  # per-hop probe gaps in virtual ms
        hit = histograms["service.latency_virtual_ms.hit"]
        # A hit replays the cached trace: same virtual duration.
        assert hit["sum"] == pytest.approx(fresh["sum"])

    def test_slow_log_attributes_causes(self):
        telemetry = ServiceTelemetry(slow_ms=0.0)  # log everything
        self._drive(telemetry)
        assert telemetry.slow_total == 7
        causes = {entry["cause"] for entry in telemetry.slow_requests}
        assert causes == {"cache_miss", "cache_replay", "coalesce_wait",
                          "error", "client_disconnect"}
        for entry in telemetry.slow_requests:
            assert entry["wall_ms"] >= 0.0

    def test_wall_report_quarantines_wall_data(self):
        telemetry = ServiceTelemetry()
        service = self._drive(telemetry)
        snapshot = telemetry.metrics_snapshot(service)
        assert "wall" not in snapshot
        report = telemetry.wall_report()
        assert set(report["latency_ms"]) <= set(OUTCOMES)
        assert report["uptime_seconds"] >= 0.0

    def test_telemetry_off_yields_identical_records(self):
        async def run(telemetry):
            service = TraceService(_engine(), telemetry=telemetry)
            records = []
            for offset in (0, 1, 0):
                hops, terminal = await _collect(
                    service, {"destination":
                              _destination(service.engine, offset),
                              "flow": 0})
                records.append((hops, terminal))
            return records, service.stats()

        plain, plain_stats = asyncio.run(run(None))
        instrumented, obs_stats = asyncio.run(run(ServiceTelemetry()))
        assert plain == instrumented
        assert plain_stats == obs_stats


# --------------------------------------------------------------------- #
# metrics / health control ops
# --------------------------------------------------------------------- #

class TestControlOps:
    def test_metrics_requires_telemetry(self):
        service = TraceService(_engine())
        with pytest.raises(ServiceError, match="telemetry is disabled"):
            service.handle_control({"control": "metrics"})

    def test_metrics_op_shape(self):
        async def run():
            service = TraceService(_engine(),
                                   telemetry=ServiceTelemetry())
            await _collect(service, {"destination":
                                     _destination(service.engine, 0),
                                     "flow": 0})
            return service.handle_control({"control": "metrics"})

        record = asyncio.run(run())
        assert record["type"] == "metrics"
        counters = record["snapshot"]["counters"]
        assert counters["service.requests.total"] == 1
        assert record["snapshot"]["gauges"]["service.cache.entries"] == 1
        assert "flashroute_service_requests_total 1" in \
            record["exposition"]
        assert "slow_requests" in record["wall"]

    def test_health_ready_and_liveness_bound(self):
        telemetry = ServiceTelemetry()
        service = TraceService(_engine(), telemetry=telemetry)
        health = service.health()
        assert health["ready"] is True
        assert health["live"] is True  # no lag sample yet
        assert health["status"] == "ok"
        assert health["telemetry"] is True
        assert health["engine"]["warm"] is True
        assert health["engine"]["prefixes"] == 64
        telemetry.note_loop_lag(LIVENESS_LAG_MS + 1.0)
        degraded = service.health()
        assert degraded["live"] is False
        assert degraded["status"] == "degraded"

    def test_health_reports_the_tables_a_trace_built(self):
        """``route_cache_entries`` counts the outcome tables the warm core
        holds, so it moves when a fresh trace builds one (it read the
        test-only hop-vector dict, i.e. 0 for life)."""
        async def run():
            handle = await start_service(_engine(), host="127.0.0.1",
                                         port=0)
            async with DaemonClient(host=handle.host,
                                    port=handle.port) as client:
                cold = await client.control("health")
                await client.request({"destination":
                                      _destination(handle.service.engine),
                                      "flow": 0})
                warm = await client.control("health")
            await handle.drain()
            return cold, warm

        cold, warm = asyncio.run(run())
        assert cold["engine"]["route_cache_entries"] == 0
        assert warm["engine"]["route_cache_entries"] > 0

    def test_health_without_telemetry(self):
        health = TraceService(_engine()).health()
        assert health["ready"] is True
        assert health["telemetry"] is False
        assert health["loop_lag_ms"] is None


# --------------------------------------------------------------------- #
# Concurrent connections over the wire + trace JSONL validity
# --------------------------------------------------------------------- #

class TestConcurrentTracing:
    def test_interleaved_trace_and_control_stay_coherent(self, tmp_path):
        trace_path = str(tmp_path / "service_trace.jsonl")
        telemetry = ServiceTelemetry.create(trace_path=trace_path)

        async def one_connection(handle, offset):
            async with DaemonClient(host=handle.host,
                                    port=handle.port) as client:
                destination = _destination(handle.service.engine,
                                           offset % 3)
                await client.request({"destination": destination,
                                      "flow": 0})
                stats = await client.control("stats")
                assert stats["type"] == "stats"
                await client.request({"destination": destination,
                                      "flow": 0})
                health = await client.control("health")
                assert health["ready"] is True

        async def run():
            handle = await start_service(_engine(), host="127.0.0.1",
                                         port=0, telemetry=telemetry)
            await asyncio.gather(*(one_connection(handle, offset)
                                   for offset in range(8)))
            async with DaemonClient(host=handle.host,
                                    port=handle.port) as client:
                metrics = await client.control("metrics")
            await handle.drain()
            return handle.service, metrics

        service, metrics = asyncio.run(run())
        telemetry.close()

        counters = metrics["snapshot"]["counters"]
        assert counters["service.requests.total"] == 16
        assert counters["service.requests.total"] == sum(
            counters.get(f"service.requests.{outcome}", 0)
            for outcome in OUTCOMES)
        assert counters.get("service.requests.error", 0) == 0
        assert service.requests == 16

        events = read_trace(trace_path)
        validate_trace(events)  # raises on malformed nesting
        roots = [event for event in events if event.get("ev") == "begin"
                 and event["span"] == "service.request"]
        assert len(roots) == 16
        rids = [root["rid"] for root in roots]
        assert sorted(rids) == list(range(1, 17))
        phases = {event["name"] for event in events
                  if event.get("ev") == "begin"
                  and event["span"] == "service.phase"}
        assert "receive" in phases and "respond" in phases
        assert {"cache-replay", "probe-stream"} <= phases


# --------------------------------------------------------------------- #
# top dashboard
# --------------------------------------------------------------------- #

class TestTopDashboard:
    _stats = {"requests": 10, "cache_hits": 4, "coalesced": 2,
              "errors": 0, "traces_started": 4, "probes_sent": 120,
              "cache_entries": 4, "cache_evicted_epoch": 0,
              "cache_evicted_lru": 0, "inflight": 1, "now": 4.0,
              "epoch": 0, "address_space": "20.0.0.0..20.0.63.255"}
    _health = {"ready": True, "live": True, "status": "ok",
               "loop_lag_ms": 0.4, "telemetry": True}

    def test_render_frame_with_telemetry(self):
        metrics = {
            "snapshot": {"counters": {"service.requests.fresh": 4}},
            "wall": {
                "uptime_seconds": 12.0,
                "rates": {"req_per_s": 5.0, "probes_per_s": 60.0,
                          "hit_rate": 0.4, "window_seconds": 2.0},
                "latency_ms": {"fresh": {"count": 4, "p50": 1.2,
                                         "p90": 2.0, "p99": 2.5,
                                         "max": 2.5}},
                "slow_threshold_ms": 1.0, "slow_total": 1,
                "slow_requests": [{"rid": 3, "outcome": "fresh",
                                   "destination": "20.0.1.1", "flow": 0,
                                   "wall_ms": 2.5, "virtual_ms": 580.0,
                                   "probes": 19, "cause": "cache_miss",
                                   "error": None}],
            },
        }
        text = render_frame("127.0.0.1:4792", 3, self._stats,
                            self._health, metrics)
        assert "5.0 req/s" in text
        assert "hit-rate 40.0%" in text
        assert "fresh" in text and "2.5" in text
        assert "cause=cache_miss" in text
        assert "status=ok" in text and "ready=yes" in text

    def test_render_frame_without_telemetry_degrades(self):
        health = dict(self._health, telemetry=False, loop_lag_ms=None)
        text = render_frame("d.sock", 1, self._stats, health, None,
                            fallback_rates={"req_per_s": 2.0,
                                            "probes_per_s": 10.0,
                                            "hit_rate": 0.5,
                                            "window_seconds": 1.0})
        assert "telemetry=off" in text
        assert "2.0 req/s" in text  # client-side fallback rates
        assert "restart with serve --telemetry" in text

    def test_live_dashboard_against_loopback_daemon(self):
        async def run():
            handle = await start_service(_engine(), host="127.0.0.1",
                                         port=0,
                                         telemetry=ServiceTelemetry())
            await trace_stream(
                {"destination": _destination(handle.service.engine, 0),
                 "flow": 0},
                host=handle.host, port=handle.port)
            buffer = io.StringIO()
            code = await _top_loop(handle.host, handle.port, None,
                                   interval=0.01, iterations=2,
                                   stream=buffer, clear=False)
            await handle.drain()
            return code, buffer.getvalue()

        code, text = asyncio.run(run())
        assert code == 0
        assert text.count("flashroute-sim top") == 2
        assert "telemetry=on" in text
        assert "requests=1" in text

    def test_run_top_reports_unreachable_daemon(self, capsys):
        assert run_top(socket_path="/nonexistent/daemon.sock",
                       iterations=1, stream=io.StringIO()) == 1
        assert "cannot reach daemon" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# metrics-report --exposition
# --------------------------------------------------------------------- #

class TestMetricsReportExposition:
    def _write_snapshot(self, tmp_path):
        telemetry = ServiceTelemetry()

        async def run():
            service = TraceService(_engine(), telemetry=telemetry)
            await _collect(service, {"destination":
                                     _destination(service.engine, 0),
                                     "flow": 0})
            return service

        service = asyncio.run(run())
        path = str(tmp_path / "service_metrics.json")
        telemetry.save(path, service)
        return path

    def test_exposition_rendering(self, tmp_path):
        path = self._write_snapshot(tmp_path)
        text = metrics_report(path, exposition=True)
        assert "flashroute_service_requests_total 1" in text
        assert 'le="+Inf"' in text

    def test_exposition_refuses_diff(self, tmp_path):
        path = self._write_snapshot(tmp_path)
        with pytest.raises(ValueError, match="one snapshot"):
            metrics_report(path, path, exposition=True)

    def test_cli_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_snapshot(tmp_path)
        assert main(["metrics-report", "--exposition", path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE flashroute_service_requests_total counter" in out
