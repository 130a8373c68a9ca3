"""The scan daemon: coalescing, epoch cache, cancellation, protocol.

All asyncio tests run through ``asyncio.run`` (no plugin dependency).
The daemon's core (:class:`TraceService`) is exercised directly where
possible; the NDJSON transport tests boot a real loopback server.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import api
from repro.service.client import (open_connection, send_request,
                                  trace_stream)
from repro.service import daemon
from repro.service.daemon import TraceService, bound_reads, start_service
from repro.service.obs import percentile


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


class TestCoalescing:
    def test_concurrent_same_key_shares_one_probe_stream(self):
        async def run():
            service = TraceService(_engine())
            payload = {"destination": "20.0.0.7", "flow": 1}
            results = await asyncio.gather(
                _collect(service, payload),
                _collect(service, payload),
                _collect(service, payload))
            return service, results

        service, results = asyncio.run(run())
        assert service.traces_started == 1
        assert service.coalesced == 2
        modes = sorted(terminal["cache"] for _, terminal in results)
        assert modes == ["coalesced", "coalesced", "miss"]
        baseline_hops = results[0][0]
        for hops, terminal in results[1:]:
            assert hops == baseline_hops
            assert terminal["trace"] == results[0][1]["trace"]

    def test_mid_stream_join_replays_prefix_then_rides_live(self):
        async def run():
            service = TraceService(_engine())
            payload = {"destination": "20.0.0.7", "flow": 1}
            first_hops = []
            joined = None

            async def early_client():
                nonlocal joined
                async for record in service.handle_trace(payload):
                    if record["type"] != "hop":
                        continue
                    first_hops.append(record)
                    if len(first_hops) == 3 and joined is None:
                        # The flight is mid-stream: join now.
                        joined = asyncio.ensure_future(
                            _collect(service, payload))

            await early_client()
            late_hops, late_terminal = await joined
            return service, first_hops, late_hops, late_terminal

        service, first_hops, late_hops, late_terminal = asyncio.run(run())
        assert service.traces_started == 1, "late joiner must not re-probe"
        assert late_terminal["cache"] == "coalesced"
        # The late joiner saw the identical full hop sequence: the
        # already-streamed prefix replayed, the rest live.
        assert late_hops == first_hops
        assert len(late_hops) > 3

    def test_interleaved_flights_match_solo_results(self):
        # Two different keys in flight at once on the shared warm engine
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
            # The interleaved flight starts later on the service clock;
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


class TestCancellation:
    def test_cancelled_client_leaves_no_leaks_and_flight_completes(self):
        async def run():
            service = TraceService(_engine())
            payload = {"destination": "20.0.0.7", "flow": 1}
            seen = asyncio.Event()

            async def doomed():
                async for record in service.handle_trace(payload):
                    seen.set()  # received at least one record, bail out

            task = asyncio.ensure_future(doomed())
            await seen.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            flight = next(iter(service._flights.values()), None)
            subscribers_after_cancel = (flight.subscriber_count
                                        if flight is not None else 0)
            await service.drain()
            follow_up = await _collect(service, payload)
            return service, subscribers_after_cancel, follow_up

        service, subscribers_after_cancel, follow_up = asyncio.run(run())
        # The dead client's queue was unsubscribed...
        assert subscribers_after_cancel == 0
        # ...and the flight ran to completion anyway: its result is
        # cached and no flight entry leaked.
        assert follow_up[1]["cache"] == "hit"
        assert service.inflight == 0
        assert service.traces_started == 1


class TestRequestValidation:
    @pytest.mark.parametrize("payload,fragment", [
        ({"flow": 1}, "destination"),
        ({"destination": "not-an-ip"}, "IPv4"),
        ({"destination": "20.0.0.1", "bogus": 1}, "unknown"),
        ({"destination": "20.0.0.1", "flow": "x"}, "integer"),
        ({"destination": "99.99.0.1"}, "outside"),
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
        assert service.inflight == 0


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
