"""The scan daemon: one probe stream per key, epoch cache, protocol.

All asyncio tests run through ``asyncio.run`` (no plugin dependency).
The daemon's core (:class:`TraceService`) is exercised directly where
possible; the NDJSON transport tests boot a real loopback server.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.service.client import (open_connection, send_request,
                                  trace_stream)
from repro.service import daemon
from repro.service.daemon import TraceService, bound_reads, start_service
from repro.service.obs import OUTCOMES, ServiceTelemetry, percentile


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


@functools.lru_cache(maxsize=None)
def _shared_engine():
    return _engine()


#: Keys a drawn client asks for: few enough that sequences repeat them.
_KEYS = [{"destination": f"20.0.{index}.{index + 1}", "flow": index % 2}
         for index in range(5)]


async def _client(service, keys):
    """Serve ``keys`` in order as wire lines, yielding to the loop after
    every record (as a transport writing each record would), so the
    drawn clients' responses interleave; returns ``(key, hop lines,
    cache mode)`` per response."""
    responses = []
    for index in keys:
        lines = []
        async for line in service.handle_trace(dict(_KEYS[index]),
                                               daemon._hop_lines,
                                               daemon._done_line):
            lines.append(line)
            await asyncio.sleep(0)
        responses.append((index, lines[:-1],
                          json.loads(lines[-1]).get("cache")))
    return responses


class TestConcurrency:
    @settings(max_examples=25, deadline=None)
    @given(clients=st.lists(st.lists(st.integers(0, len(_KEYS) - 1),
                                     min_size=1, max_size=6),
                            min_size=1, max_size=4),
           max_inflight=st.sampled_from([None, 1, 2]))
    def test_concurrent_same_key_shares_one_probe_stream(
            self, clients, max_inflight):
        """Concurrent clients asking for repeated keys inside one epoch:
        each key is traced once, and every response for it carries the
        same hop lines, whichever client asked first."""
        telemetry = ServiceTelemetry()

        async def run():
            service = TraceService(_shared_engine(), telemetry=telemetry,
                                   max_inflight=max_inflight,
                                   max_queued=len(clients))
            served = await asyncio.gather(*(_client(service, keys)
                                            for keys in clients))
            return service, served

        service, served = asyncio.run(run())
        distinct = {index for keys in clients for index in keys}
        assert service.traces_started == len(distinct)
        assert service.epoch == 0
        by_key = {}
        for index, lines, mode in (response for responses in served
                                   for response in responses):
            assert mode in ("hit", "miss")
            assert lines
            assert by_key.setdefault(index, lines) == lines
        counters = telemetry.registry.snapshot()["counters"]
        assert service.requests == counters["service.requests.total"] \
            == sum(counters.get(f"service.requests.{outcome}", 0)
                   for outcome in OUTCOMES)
        assert counters["service.requests.fresh"] == len(distinct)
        assert service.engine.warmth()["route_cache_entries"] == 0

    def test_interleaved_flights_match_solo_results(self):
        # Two different keys served together on the shared warm engine
        # must each produce exactly what they produce when run alone —
        # the session-isolation bugfix surfaced at the service layer.
        payload_a = {"destination": "20.0.0.7", "flow": 1}
        payload_b = {"destination": "20.0.9.9", "flow": 5}

        async def interleaved():
            service = TraceService(_engine())
            return await asyncio.gather(_collect(service, payload_a),
                                        _collect(service, payload_b))

        async def solo(payload):
            return await _collect(TraceService(_engine()), payload)

        (hops_a, term_a), (hops_b, term_b) = asyncio.run(interleaved())
        solo_a = asyncio.run(solo(payload_a))
        solo_b = asyncio.run(solo(payload_b))
        assert hops_a == solo_a[0]
        assert hops_b == solo_b[0]

        def relative(trace):
            # The second trace starts later on the service clock;
            # everything but the absolute timestamps must match (the
            # elapsed virtual time only to float precision — the start
            # offset shifts the addition order).
            start = trace["first"]
            normal = {key: value for key, value in trace.items()
                      if key not in ("first", "last", "ts")}
            normal["elapsed"] = pytest.approx(trace["last"] - start)
            return normal

        assert relative(solo_a[1]["trace"]) == relative(term_a["trace"])
        assert relative(solo_b[1]["trace"]) == relative(term_b["trace"])


class TestCache:
    def test_repeat_within_epoch_hits_without_reprobing(self):
        async def run():
            service = TraceService(_engine())
            payload = {"destination": "20.0.0.7", "flow": 1}
            first = await _collect(service, payload)
            probes_after_first = service.probes_sent
            second = await _collect(service, payload)
            return service, probes_after_first, first, second

        service, probes_after_first, first, second = asyncio.run(run())
        assert second[1]["cache"] == "hit"
        assert second[0] == first[0]
        assert second[1]["trace"] == first[1]["trace"]
        # The probe counter is flat across the cache hit.
        assert service.probes_sent == probes_after_first
        assert service.traces_started == 1

    def test_epoch_flap_invalidates_entry(self):
        async def run():
            service = TraceService(_engine())
            payload = {"destination": "20.0.0.7", "flow": 1}
            await _collect(service, payload)
            service.advance(service.engine.flap_epoch_seconds)
            second = await _collect(service, payload)
            return service, second

        service, second = asyncio.run(run())
        assert second[1]["cache"] == "miss", \
            "a flapped epoch must not serve the stale route"
        assert second[1]["epoch"] == 1
        assert service.evicted_epoch == 1
        assert service.traces_started == 2

    def test_lru_eviction_at_capacity(self):
        async def run():
            service = TraceService(_engine(), cache_size=2)
            for last_octet in (1, 2, 3):
                await _collect(service, {"destination":
                                         f"20.0.0.{last_octet}"})
            # Key 1 was evicted by key 3; key 2 and 3 still hit.
            oldest = await _collect(service, {"destination": "20.0.0.1"})
            newer = await _collect(service, {"destination": "20.0.0.3"})
            return service, oldest, newer

        service, oldest, newer = asyncio.run(run())
        assert service.evicted_lru >= 1
        assert oldest[1]["cache"] == "miss"
        assert newer[1]["cache"] == "hit"

    def test_cache_size_zero_disables_caching(self):
        async def run():
            service = TraceService(_engine(), cache_size=0)
            payload = {"destination": "20.0.0.7"}
            await _collect(service, payload)
            return service, await _collect(service, payload)

        service, second = asyncio.run(run())
        assert second[1]["cache"] == "miss"
        assert service.cache_len == 0
        assert service.engine.warmth()["route_cache_entries"] == 0

    def test_route_tables_bounded_by_the_flight_cache(self):
        """A trace drops its key's route tables as its walk ends, so the
        warm core holds none at rest, however many keys it served, and
        a key traced again rebuilds them bit-identically."""
        capacity, traces = 4, 64

        payloads = [{"destination": f"20.0.{index}.{index % 7 + 1}"}
                    for index in range(traces)]

        async def run():
            service = TraceService(_engine(), cache_size=capacity)
            for payload in payloads:
                await _collect(service, payload)
            # The first key was evicted long ago: it is traced again on
            # rebuilt tables.
            return service, await _collect(service, payloads[0])

        service, (_, again) = asyncio.run(run())
        assert service.traces_started == traces + 1
        assert service.engine.warmth()["route_cache_entries"] == 0
        trace = again["trace"]
        assert again["cache"] == "miss"
        assert trace == _engine().open_session(
            api.TraceRequest.parse(payloads[0]),
            start_time=trace["first"]).run()

    def test_epoch_eviction_drops_the_stale_flight_tables(self):
        payload = {"destination": "20.0.0.7"}

        async def run():
            service = TraceService(_engine())
            dropped = []
            drop_route = service.engine.drop_route
            service.engine.drop_route = lambda *key: (dropped.append(key),
                                                      drop_route(*key))
            await _collect(service, payload)
            service.advance(service.engine.flap_epoch_seconds)
            await _collect(service, payload)
            return service, dropped

        service, dropped = asyncio.run(run())
        assert service.evicted_epoch == 1
        # Each walk dropped its tables as it ended, the stale one's
        # before the epoch flipped: nothing of it survives the eviction.
        assert dropped == [api.TraceRequest.parse(payload).key] * 2
        assert service.engine.warmth()["route_cache_entries"] == 0

    def test_failed_walk_leaves_no_route_tables(self):
        async def run():
            service = TraceService(_engine())
            real_open = service.engine.open_session

            def failing(request, start_time):
                session = real_open(request, start_time=start_time)
                rows = session.walk

                def walk():
                    yield from itertools.islice(rows(), 3)
                    raise RuntimeError("walk broke")

                session.walk = walk
                return session

            service.engine.open_session = failing
            return service, await _collect(service, {
                "destination": "20.0.0.7", "flow": 1})

        service, (hops, terminal) = asyncio.run(run())
        assert hops == []
        assert terminal == {"type": "error",
                            "error": "trace failed: walk broke"}
        assert service.cache_len == 0
        assert service.engine.warmth()["route_cache_entries"] == 0


class TestCancellation:
    def test_cancelled_client_leaves_no_leaks_and_flight_completes(self):
        async def run():
            service = TraceService(_engine(), max_inflight=1)
            payload = {"destination": "20.0.0.7", "flow": 1}
            seen = asyncio.Event()

            async def doomed():
                stream = service.handle_trace(dict(payload))
                async with contextlib.aclosing(stream):
                    async for record in stream:
                        seen.set()  # got a record; now hang until cancelled
                        await asyncio.sleep(3600)

            task = asyncio.ensure_future(doomed())
            await seen.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            follow_up = await _collect(service, dict(payload))
            return service, follow_up

        service, follow_up = asyncio.run(run())
        # The trace was whole before the client saw its first hop: the
        # follow-up is served from the cache, and the vanished client's
        # admission slot came back (or the follow-up would wait forever).
        assert follow_up[1]["cache"] == "hit"
        assert service.traces_started == 1
        assert service._admitted == 0


class TestRequestValidation:
    @pytest.mark.parametrize("payload,fragment", [
        ({"flow": 1}, "destination"),
        ({"destination": "not-an-ip"}, "IPv4"),
        ({"destination": "20.0.0.1", "bogus": 1}, "unknown"),
        ({"destination": "20.0.0.1", "flow": "x"}, "integer"),
        ({"destination": "99.99.0.1"}, "outside"),
        # Dotted quads ipaddress rejects, each of which used to parse,
        # as 20.0.0.7 (the leading zero is octal 16.0.0.7 to inet_aton).
        ({"destination": "20.0.0.7\n"}, "IPv4"),
        ({"destination": "\u0662\u0660.0.0.7"}, "IPv4"),
        ({"destination": "020.0.0.7"}, "IPv4"),
    ])
    def test_malformed_requests_become_error_records(self, payload,
                                                     fragment):
        async def run():
            service = TraceService(_engine())
            return service, await _collect(service, payload)

        service, (hops, terminal) = asyncio.run(run())
        assert hops == []
        assert terminal["type"] == "error"
        assert fragment.lower() in terminal["error"].lower()
        assert service.errors == 1
        assert service.traces_started == 0


class TestProtocol:
    """NDJSON over a real loopback socket."""

    def test_full_session_over_tcp(self):
        async def run():
            handle = await start_service(_engine(), port=0)
            host, port = handle.host, handle.port
            out = {}
            out["trace"] = await trace_stream(
                {"destination": "20.0.0.7", "flow": 2, "id": 41},
                host=host, port=port)
            out["repeat"] = await trace_stream(
                {"destination": "20.0.0.7", "flow": 2}, host=host,
                port=port)
            out["bad_json"] = await self._raw_line(host, port,
                                                   b"{nope\n")
            out["non_object"] = await self._raw_line(host, port,
                                                     b"[1, 2]\n")
            reader, writer = await open_connection(host, port)
            out["stats"] = await send_request(reader, writer,
                                              {"control": "stats"})
            out["advance"] = await send_request(
                reader, writer, {"control": "advance", "seconds": 10.0})
            out["bad_advance"] = await send_request(
                reader, writer, {"control": "advance", "seconds": "x"})
            out["unknown"] = await send_request(reader, writer,
                                                {"control": "defrag"})
            writer.close()
            await writer.wait_closed()
            await handle.drain()
            return out

        out = asyncio.run(run())
        hops, done = out["trace"]
        assert done["type"] == "done" and done["cache"] == "miss"
        assert done["id"] == 41, "request id must be echoed"
        assert all(hop["id"] == 41 for hop in hops)
        assert out["repeat"][1]["cache"] == "hit"
        assert out["bad_json"]["type"] == "error"
        assert "invalid JSON" in out["bad_json"]["error"]
        assert out["non_object"]["type"] == "error"
        stats = out["stats"][1]
        assert stats["type"] == "stats"
        assert stats["requests"] >= 2 and stats["cache_hits"] >= 1
        # One fresh trace ticked the clock by 1.0; the cache hit did not.
        assert out["advance"][1] == {"type": "ok", "now": 11.0, "epoch": 0}
        assert out["bad_advance"][1]["type"] == "error"
        assert out["unknown"][1]["type"] == "error"
        assert "unknown control" in out["unknown"][1]["error"]

    async def _raw_line(self, host, port, line: bytes) -> dict:
        reader, writer = await open_connection(host, port)
        writer.write(line)
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        return response

    def test_both_ends_bound_their_reads(self, monkeypatch):
        """asyncio asks ``recv`` for 256 KiB per read, above glibc's
        default mmap threshold; the daemon's and the client's connections
        ask for :data:`READ_SIZE`."""
        served = []

        def spy(writer):
            bound_reads(writer)
            served.append(writer.transport.max_size)

        monkeypatch.setattr(daemon, "bound_reads", spy)

        async def run():
            handle = await start_service(_engine(prefixes=8), port=0)
            reader, writer = await open_connection(handle.host,
                                                   handle.port)
            _, stats = await send_request(reader, writer,
                                          {"control": "stats"})
            client = writer.transport.max_size
            writer.close()
            await writer.wait_closed()
            await handle.drain()
            return client, stats

        client, stats = asyncio.run(run())
        assert stats["type"] == "stats"
        assert client == served[0] == daemon.READ_SIZE < 128 * 1024

    def test_shutdown_control_op_stops_server(self):
        async def run():
            handle = await start_service(_engine(prefixes=8), port=0)
            reader, writer = await open_connection(handle.host,
                                                   handle.port)
            _, ok = await send_request(reader, writer,
                                       {"control": "shutdown"})
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(handle.shutdown.wait(), timeout=5)
            await handle.drain()
            return ok

        ok = asyncio.run(run())
        assert ok == {"type": "ok", "shutdown": True}

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        async def run():
            handle = await start_service(_engine(prefixes=8),
                                         socket_path=path)
            result = await trace_stream({"destination": "20.0.0.3"},
                                        socket_path=path)
            await handle.drain()
            return result

        hops, done = asyncio.run(run())
        assert done["type"] == "done"
        assert len(hops) == done["trace"]["hop_count"]


class TestLoadtestHarness:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 3.0  # round(0.5*3)=2
        with pytest.raises(ValueError):
            percentile([], 0.5)
