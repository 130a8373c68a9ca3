"""Daemon hardening: deadlines, load shedding, drain, fault isolation.

All asyncio tests run through ``asyncio.run`` (no plugin dependency),
mirroring test_service.py.  Deterministic cases drive
:class:`TraceService` directly — a hand-built never-finishing
:class:`Flight` stands in for a slow trace so deadline and admission
behaviour needs no wall-clock races; the hostile-client cases boot a
real loopback server.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import pytest

from repro import api
from repro.net.addr import int_to_ip
from repro.service.client import (DaemonClient, open_connection,
                                  send_request, trace_stream)
from repro.service.daemon import (
    Flight,
    ServiceError,
    TraceService,
    start_service,
)
from repro.service.obs import ServiceTelemetry
from repro.testing.chaos import (
    MALFORMED_LINES,
    ChaosSpec,
    malformed_flood_client,
    reset_client,
    run_daemon_chaos,
    slow_loris_client,
)

_PAYLOAD = {"destination": "20.0.0.7", "flow": 1}


def _engine(prefixes=64, seed=20201027):
    return api.Engine.from_request(api.ScanRequest(prefixes=prefixes,
                                                   seed=seed))


async def _collect(service, payload):
    """Drain one handle_trace stream into (hops, terminal)."""
    hops, terminal = [], None
    async for record in service.handle_trace(payload):
        if record["type"] == "hop":
            hops.append(record)
        else:
            terminal = record
    return hops, terminal


def _stuck_flight(service, key=(0x14000007, 1)):
    """Register a flight that never finishes (a wedged trace)."""
    flight = Flight(key, service.epoch)
    service._flights[key] = flight
    return flight


def _wedge_task(flight):
    """A never-ending flight task honouring the Flight.task contract:
    cancellation finishes the flight with the shutdown error (exactly
    what ``_run_flight`` does)."""
    async def wedge():
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            flight.finish(None, error="trace cancelled (shutdown)")
            raise

    flight.task = asyncio.ensure_future(wedge())
    return flight.task


_CLIENTS, _KEYS = 96, 32


def _burst(chaos=None, **limits):
    """Open ``_CLIENTS`` connections at once against a loopback daemon
    started with ``limits``, one trace request each, cycling over
    ``_KEYS`` (destination, flow) keys of which half were traced first;
    ``chaos``'s hostile clients run alongside.  Returns the count of each
    terminal (``cache`` of a done record, else the error ``code``) and of
    client ``exception``s, the chaos summary, the daemon's stats and the
    answer to a ping sent after the burst."""
    async def run():
        engine = _engine(prefixes=256)
        handle = await start_service(engine, port=0, **limits)
        address = {"host": handle.host, "port": handle.port}
        base = engine.topology.base_prefix
        size = engine.topology.num_prefixes
        payloads = [{"destination": int_to_ip(
                        (base + key * 7919 % size) << 8 | 1 + key),
                     "flow": key % 4}
                    for key in (index % _KEYS for index in range(_CLIENTS))]
        for payload in payloads[:_KEYS // 2]:
            await trace_stream(payload, **address)
        burst = asyncio.gather(*(trace_stream(payload, **address)
                                 for payload in payloads),
                               return_exceptions=True)
        hostile = None
        if chaos is None:
            answers = await burst
        else:
            answers, hostile = await asyncio.gather(
                burst, run_daemon_chaos(chaos, payloads, **address))
        _, pong = await trace_stream({"control": "ping"}, timeout=5.0,
                                     **address)
        stats = handle.service.stats()
        await handle.drain()
        return answers, hostile, stats, pong

    answers, hostile, stats, pong = asyncio.run(run())
    outcomes = Counter(
        "exception" if isinstance(answer, Exception)
        else answer[1].get("cache") or answer[1].get("code", "error")
        for answer in answers)
    return outcomes, hostile, stats, pong


class TestDeadlines:
    def test_client_deadline_expires_mid_stream(self):
        async def run():
            service = TraceService(_engine())
            flight = _stuck_flight(service)
            payload = dict(_PAYLOAD, deadline_ms=30.0)
            hops, terminal = await _collect(service, payload)
            return service, flight, terminal

        service, flight, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert terminal["code"] == "deadline_exceeded"
        assert terminal["deadline_ms"] == 30.0
        assert "30" in terminal["error"]
        assert service.deadlined == 1
        assert service.errors == 0, \
            "a deadline is its own outcome, not a generic error"

    def test_default_deadline_applies_when_client_sends_none(self):
        async def run():
            service = TraceService(_engine(), default_deadline_ms=25.0)
            _stuck_flight(service)
            _, terminal = await _collect(service, dict(_PAYLOAD))
            return terminal

        terminal = asyncio.run(run())
        assert terminal["code"] == "deadline_exceeded"
        assert terminal["deadline_ms"] == 25.0

    def test_client_deadline_overrides_default(self):
        async def run():
            service = TraceService(_engine(), default_deadline_ms=10_000)
            _stuck_flight(service)
            _, terminal = await _collect(
                service, dict(_PAYLOAD, deadline_ms=20.0))
            return terminal

        terminal = asyncio.run(run())
        assert terminal["deadline_ms"] == 20.0

    def test_fast_trace_beats_its_deadline(self):
        async def run():
            service = TraceService(_engine())
            return await _collect(
                service, dict(_PAYLOAD, deadline_ms=30_000.0))

        hops, terminal = asyncio.run(run())
        assert terminal["type"] == "done"
        assert hops

    @pytest.mark.parametrize("bad", [0, -5, "soon", True, float("nan")])
    def test_invalid_deadline_is_an_error_record(self, bad):
        async def run():
            service = TraceService(_engine())
            _, terminal = await _collect(
                service, dict(_PAYLOAD, deadline_ms=bad))
            return service, terminal

        service, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert "deadline_ms" in terminal["error"]
        assert service.errors == 1

    def test_deadline_outcome_reaches_telemetry(self):
        async def run():
            service = TraceService(_engine(),
                                   telemetry=ServiceTelemetry())
            _stuck_flight(service)
            await _collect(service, dict(_PAYLOAD, deadline_ms=20.0))
            return service.telemetry.metrics_snapshot(service)

        snapshot = asyncio.run(run())
        assert snapshot["counters"]["service.requests.deadline"] == 1

    def test_constructor_rejects_bad_default(self):
        with pytest.raises(ValueError):
            TraceService(_engine(), default_deadline_ms=0)
        with pytest.raises(ValueError):
            TraceService(_engine(), default_deadline_ms=float("inf"))


class TestAdmissionControl:
    def _occupy(self, service):
        """Start a handle_trace that holds an admission slot for as
        long as its wedged flight lives; returns (task, flight)."""
        flight = _stuck_flight(service)
        stream = service.handle_trace(dict(_PAYLOAD))

        async def pump():
            async for _ in stream:
                pass

        return asyncio.ensure_future(pump()), flight

    def test_overflow_sheds_with_structured_record(self):
        async def run():
            service = TraceService(_engine(), max_inflight=1,
                                   telemetry=ServiceTelemetry())
            task, _ = self._occupy(service)
            await asyncio.sleep(0)  # let the occupier take the slot
            other = {"destination": "20.0.9.9", "flow": 5}
            _, terminal = await _collect(service, other)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return service, terminal

        service, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert terminal["code"] == "overloaded"
        assert terminal["retry_after_ms"] > 0
        assert service.shed == 1
        registry = service.telemetry.registry.snapshot()["counters"]
        assert registry["service.shed.total"] == 1
        assert registry["service.shed.overloaded"] == 1

    def test_queued_request_runs_when_slot_frees(self):
        async def run():
            service = TraceService(_engine(), max_inflight=1,
                                   max_queued=4)
            task, flight = self._occupy(service)
            await asyncio.sleep(0)
            other = {"destination": "20.0.9.9", "flow": 5}
            waiter = asyncio.ensure_future(_collect(service, other))
            await asyncio.sleep(0.01)
            assert not waiter.done(), "no free slot yet"
            # Free the slot: the wedged flight finishes, the occupier's
            # stream ends, the queued request is granted.
            flight.finish({"probes": 0})
            await asyncio.gather(task, return_exceptions=True)
            _, terminal = await waiter
            return terminal

        terminal = asyncio.run(run())
        assert terminal["type"] == "done"

    def test_deadline_expires_while_queued(self):
        async def run():
            service = TraceService(_engine(), max_inflight=1,
                                   max_queued=4)
            task, _ = self._occupy(service)
            await asyncio.sleep(0)
            other = {"destination": "20.0.9.9", "flow": 5,
                     "deadline_ms": 25.0}
            _, terminal = await _collect(service, other)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return service, terminal

        service, terminal = asyncio.run(run())
        assert terminal["code"] == "deadline_exceeded"
        assert service.deadlined == 1
        assert len(service._admit_queue) == 0, \
            "an expired waiter must leave the queue"

    def test_client_gone_while_queued_surrenders_its_place(self):
        async def run():
            service = TraceService(_engine(), max_inflight=1,
                                   max_queued=1,
                                   telemetry=ServiceTelemetry())
            task, flight = self._occupy(service)
            await asyncio.sleep(0)
            other = {"destination": "20.0.9.9", "flow": 5}
            waiter = asyncio.ensure_future(_collect(service, other))
            await asyncio.sleep(0.01)
            assert len(service._admit_queue) == 1
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            assert len(service._admit_queue) == 0, \
                "a vanished waiter must leave the queue"
            # Its place is free again: the next request queues (not
            # shed) and is served once the occupier lets go.
            successor = asyncio.ensure_future(_collect(service, other))
            await asyncio.sleep(0.01)
            flight.finish({"probes": 0, "first": 0.0, "last": 0.0})
            await asyncio.gather(task, return_exceptions=True)
            _, terminal = await successor
            counters = service.telemetry.registry.snapshot()["counters"]
            return service, terminal, counters

        service, terminal, counters = asyncio.run(run())
        assert terminal["type"] == "done"
        assert service.shed == 0
        assert counters["service.requests.cancelled"] == 1
        assert counters["service.requests.total"] == service.requests == 3

    def test_constructor_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            TraceService(_engine(), max_inflight=0)
        with pytest.raises(ValueError):
            TraceService(_engine(), max_queued=-1)

    def test_stats_expose_hardening_counters(self):
        service = TraceService(_engine())
        stats = service.stats()
        for key in ("deadline_exceeded", "shed", "internal_errors",
                    "draining", "queued"):
            assert key in stats


class TestDrain:
    def test_draining_sheds_new_traces(self):
        async def run():
            service = TraceService(_engine(),
                                   telemetry=ServiceTelemetry())
            service.draining = True
            _, terminal = await _collect(service, dict(_PAYLOAD))
            return service, terminal

        service, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert terminal["code"] == "draining"
        assert service.shed == 1
        registry = service.telemetry.registry.snapshot()["counters"]
        assert registry["service.shed.draining"] == 1
        assert service.health()["draining"] is True

    def test_cancel_flights_wakes_subscribers(self):
        async def run():
            service = TraceService(_engine())
            flight = _stuck_flight(service)
            _wedge_task(flight)
            collector = asyncio.ensure_future(
                _collect(service, dict(_PAYLOAD)))
            await asyncio.sleep(0.01)
            assert service.cancel_flights() == 1
            await service.drain()
            return await collector

        _, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert "cancelled" in terminal["error"]

    def test_server_drain_refuses_then_finishes(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            host, port = handle.host, handle.port
            # A healthy trace completes before the drain starts.
            _, done = await trace_stream(dict(_PAYLOAD), host=host,
                                         port=port)
            await handle.drain(drain_seconds=2.0)
            assert handle.service.draining
            # The listener is closed: new connections fail.
            with pytest.raises(OSError):
                await trace_stream(dict(_PAYLOAD), host=host, port=port,
                                   timeout=1.0)
            return done

        done = asyncio.run(run())
        assert done["type"] == "done"

    def test_server_drain_cancels_stragglers_on_timeout(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            service = handle.service
            flight = _stuck_flight(service)
            _wedge_task(flight)
            collector = asyncio.ensure_future(
                _collect(service, dict(_PAYLOAD)))
            await asyncio.sleep(0.01)
            await handle.drain(drain_seconds=0.05)
            _, terminal = await collector
            return terminal

        terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert "cancelled" in terminal["error"]


class TestFaultIsolation:
    def test_broken_session_yields_internal_error_record(self):
        async def run():
            service = TraceService(_engine())

            def broken(request, start_time):
                raise RuntimeError("engine exploded")

            service.engine.open_session = broken
            _, terminal = await _collect(service, dict(_PAYLOAD))
            return service, terminal

        service, terminal = asyncio.run(run())
        assert terminal["type"] == "error"
        assert terminal["code"] == "internal"
        assert "RuntimeError" in terminal["error"]
        assert "engine exploded" in terminal["error"]
        assert service.internal_errors == 1

    def test_daemon_survives_broken_session_over_the_wire(self):
        async def run():
            handle = await start_service(_engine(), port=0)

            def broken(request, start_time):
                raise RuntimeError("engine exploded")

            handle.service.open_session = broken
            handle.service.engine.open_session = broken
            _, terminal = await trace_stream(dict(_PAYLOAD),
                                             host=handle.host,
                                             port=handle.port)
            # Same connection machinery still answers afterwards.
            _, pong = await trace_stream({"control": "ping"},
                                         host=handle.host,
                                         port=handle.port)
            await handle.drain()
            return terminal, pong

        terminal, pong = asyncio.run(run())
        assert terminal["code"] == "internal"
        assert pong["type"] == "pong"


class TestHostileClients:
    def test_malformed_flood_gets_structured_errors(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            summary = await malformed_flood_client(host=handle.host,
                                                   port=handle.port)
            _, pong = await trace_stream({"control": "ping"},
                                         host=handle.host,
                                         port=handle.port)
            await handle.drain()
            return summary, pong

        summary, pong = asyncio.run(run())
        assert summary["lines_sent"] == len(MALFORMED_LINES)
        assert summary["error_records"] == len(MALFORMED_LINES), \
            "every malformed line gets its own structured error record"
        assert pong["type"] == "pong"

    @pytest.mark.parametrize("line", [
        b'{"destination": "\xff\xfe"}',  # UnicodeDecodeError
        b'[' * 30_000,                     # RecursionError
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unparseable_line_answers_and_keeps_the_connection(self, line):
        # Both escaped the JSONDecodeError-only handler: the connection
        # dropped with a daemon-side traceback and no record.
        assert line in MALFORMED_LINES

        async def run():
            handle = await start_service(_engine(), port=0)
            reader, writer = await open_connection(handle.host,
                                                   handle.port)
            writer.write(line + b"\n")
            await writer.drain()
            record = json.loads(await reader.readline())
            _, pong = await send_request(reader, writer,
                                         {"control": "ping"})
            writer.close()
            await writer.wait_closed()
            stats = handle.service.stats()
            await handle.drain()
            return record, pong, stats

        record, pong, stats = asyncio.run(run())
        assert record["type"] == "error"
        assert record["error"].startswith("invalid JSON: ")
        assert pong == {"type": "pong"}, "same connection, still served"
        assert stats["errors"] == 1

    def test_reset_and_slow_loris_leave_daemon_alive(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            await asyncio.gather(
                reset_client(dict(_PAYLOAD), host=handle.host,
                             port=handle.port),
                slow_loris_client(host=handle.host, port=handle.port,
                                  duration=0.1),
                return_exceptions=True)
            _, pong = await trace_stream({"control": "ping"},
                                         host=handle.host,
                                         port=handle.port)
            await handle.drain()
            return pong

        assert asyncio.run(run())["type"] == "pong"

    def test_run_daemon_chaos_summary(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            spec = ChaosSpec(seed=1, slow_loris=2, disconnects=2,
                             resets=2, malformed=2)
            summary = await run_daemon_chaos(
                spec, [dict(_PAYLOAD, id=0)], host=handle.host,
                port=handle.port)
            _, pong = await trace_stream({"control": "ping"},
                                         host=handle.host,
                                         port=handle.port)
            await handle.drain()
            return summary, pong

        summary, pong = asyncio.run(run())
        assert summary["clients"] == 8
        assert summary["client_failures"] == 0
        assert pong["type"] == "pong"


class TestBurst:
    def test_overload_with_chaos_sheds_structurally(self):
        """Twice the admission capacity (8 slots + 40 queued) plus hostile
        clients: the overflow comes back as ``overloaded`` records, no
        connection fails and the daemon still answers afterwards."""
        chaos = ChaosSpec(seed=20201027, slow_loris=4, disconnects=4,
                          resets=4, malformed=4)
        outcomes, hostile, stats, pong = _burst(chaos, max_inflight=8,
                                                max_queued=40)
        admitted = outcomes["hit"] + outcomes["miss"] + outcomes["coalesced"]
        shed = outcomes["overloaded"]
        assert admitted + shed == _CLIENTS and shed > 0, outcomes
        assert stats["shed"] == shed, (stats, outcomes)
        assert outcomes["error"] == outcomes["exception"] == 0, outcomes
        assert hostile["client_failures"] == 0, hostile
        assert pong["type"] == "pong"

    def test_unthrottled_burst_takes_every_serving_path(self):
        outcomes, _, stats, _ = _burst()
        assert outcomes["hit"] + outcomes["miss"] + outcomes["coalesced"] \
            == _CLIENTS, outcomes
        assert min(outcomes["hit"], outcomes["miss"],
                   outcomes["coalesced"]) > 0, outcomes
        # Each key is traced at most once, however many clients ask.
        assert stats["traces_started"] <= _KEYS, stats


class TestClientTimeout:
    def test_wedged_server_times_out_with_service_error(self):
        async def run():
            async def black_hole(reader, writer):
                # Accept, read, never answer.
                await asyncio.Event().wait()

            server = await asyncio.start_server(black_hole,
                                                host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with DaemonClient(host="127.0.0.1", port=port,
                                        timeout=0.2) as client:
                    with pytest.raises(ServiceError) as exc_info:
                        await client.control("ping")
                return str(exc_info.value)
            finally:
                server.close()
                await server.wait_closed()

        message = asyncio.run(run())
        assert "timed out" in message
        assert "not responding" in message

    def test_timeout_none_waits(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            async with DaemonClient(host=handle.host, port=handle.port,
                                    timeout=None) as client:
                pong = await client.control("ping")
            await handle.drain()
            return pong

        assert asyncio.run(run())["type"] == "pong"
