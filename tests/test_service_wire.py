"""The daemon's NDJSON wire, byte for byte, read off a raw socket.

Each case below sends request lines on a plain ``asyncio`` stream (no
repro client code) and reads until the response's terminal record; the
exact bytes are pinned by sha256.  A change to how the daemon buffers,
batches or writes its records must leave every digest as it is; only a
change to what a trace *is* (the simulated topology, the trace summary's
schema) may re-pin them, and then all at once.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import hashlib
import json
import random
import tracemalloc
from typing import Optional

from hypothesis import example, given, settings, strategies as st

from repro import api
from repro.net.addr import MAX_IPV4, int_to_ip
from repro.service import daemon
from repro.service.client import DaemonClient
from repro.service.daemon import Flight, start_service
from repro.service.obs import OUTCOMES, ServiceTelemetry

#: sha256 of each case's response bytes (see :func:`_wire_cases`).
WIRE_SHA256 = {
    "miss":
        "497fbf2add96c9722a924c0986830787fadc331bd8ae28abd4f4fc964ab01314",
    "hit":
        "a0217a53de7578a8521c4a4b444e317d3d219b2f053ccaa79f521230ea109e9b",
    "hit_with_id":
        "421b04172d1694ee529bc82702fce62adda1e8f35f1a5baca46577f473f26c33",
    "coalesced_leader":
        "af5621fa6c980a76ee949183acdcd3238362b44a8434940c6e0f759977083b60",
    # The joiner's line is read in the leader's turn, after the leader's
    # trace finished: a hit on the same hop lines.
    "coalesced_join":
        "778024dc543b31382e261329fe48ce1271e681205f9797d32b36ce5c91c9b520",
    "error":
        "2916772d264f4e6ff32eb6d42a9dd4736e29d48936cdac8a7f1a5798e412a3cc",
    "control_with_id":
        "15a4ef87bb5e2f209bd1e8e3a22a717ba0fc167708aa91c88a07f5e738caf7af",
}


def _engine(prefixes=64, seed=20201027):
    return api.Engine.from_request(api.ScanRequest(prefixes=prefixes,
                                                   seed=seed))


async def _connect(handle):
    return await asyncio.open_connection(handle.host, handle.port)


def _send(writer, payload: dict) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")


async def _response(reader) -> bytes:
    """Every byte up to and including the first non-hop record."""
    data = b""
    while True:
        line = await asyncio.wait_for(reader.readline(), 10)
        assert line.endswith(b"\n"), data + line
        data += line
        if json.loads(line)["type"] != "hop":
            return data


async def _close(writer) -> None:
    writer.close()
    await writer.wait_closed()


async def _wire_cases() -> dict:
    """The response bytes of each case, in one daemon, in a fixed order
    (each fresh trace moves the virtual clock, which the ``done``
    records carry)."""
    handle = await start_service(_engine(), port=0)
    out = {}
    reader, writer = await _connect(handle)
    trace = {"destination": "20.0.0.7", "flow": 1}
    _send(writer, trace)
    out["miss"] = await _response(reader)
    _send(writer, trace)
    out["hit"] = await _response(reader)
    _send(writer, dict(trace, id="h-1"))
    out["hit_with_id"] = await _response(reader)

    # A same-key pair sent in one loop turn: the daemon reads the
    # leader's line first and traces the key to its end, so the joiner's
    # finds the trace finished and is a hit on the leader's hop lines.
    joiner_reader, joiner_writer = await _connect(handle)
    shared = {"destination": "20.0.0.9", "flow": 2}
    _send(writer, shared)
    _send(joiner_writer, shared)
    out["coalesced_leader"] = await _response(reader)
    out["coalesced_join"] = await _response(joiner_reader)
    await _close(joiner_writer)

    _send(writer, {"destination": "not-an-ip"})
    out["error"] = await _response(reader)
    _send(writer, {"control": "ping", "id": 7})
    out["control_with_id"] = await _response(reader)

    await _close(writer)
    await handle.drain()
    return out


class TestWireBytes:
    def test_responses_are_byte_identical(self):
        out = asyncio.run(_wire_cases())
        # The cases are what their names say.
        records = {name: [json.loads(line) for line in data.splitlines()]
                   for name, data in out.items()}
        assert records["miss"][-1]["cache"] == "miss"
        assert records["hit"][-1]["cache"] == "hit"
        assert records["coalesced_join"][-1]["cache"] == "hit"
        assert records["coalesced_leader"][-1]["cache"] == "miss"
        assert out["coalesced_join"].splitlines()[:-1] \
            == out["coalesced_leader"].splitlines()[:-1]
        assert all(record["id"] == "h-1"
                   for record in records["hit_with_id"])
        assert records["control_with_id"] == [{"id": 7, "type": "pong"}]
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in out.items()}
        changed = {name: out[name].decode() for name in out
                   if digests[name] != WIRE_SHA256[name]}
        assert digests == WIRE_SHA256, changed


#: Stands for a request without an ``id`` field (``None`` is ``"id": null``).
_NO_ID = object()

_IPS = st.integers(0, MAX_IPV4).map(int_to_ip)

#: Finite floats, with the edges of ``float.__repr__``: signed zeros,
#: subnormals and exponent forms.
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16,
                     1e300, 1e-7]),
    st.floats(allow_nan=False, allow_infinity=False))

#: Rows of a walk: ``(ttl, responder, rtt_ms)``.
_ROWS = st.lists(st.tuples(st.integers(1, 32), st.integers(0, MAX_IPV4),
                           _FINITE), max_size=6).map(tuple)

#: Ints, including either side of 2**63 and far above it.
_COUNTS = st.one_of(st.integers(0, 2**16), st.integers(2**63 - 2, 2**64 + 2),
                    st.integers(min_value=2**64))


#: Finished traces: any key, and rows and a summary of their types.
_FLIGHTS = st.builds(
    Flight, st.tuples(st.integers(0, MAX_IPV4), st.integers(0, 0xFFFF)),
    _COUNTS, _ROWS, _IPS, st.none() | st.integers(1, 32), _COUNTS, _FINITE,
    _FINITE)


_IDS = st.one_of(
    st.just(_NO_ID), st.none(), st.text(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.integers(), st.text()), max_size=3))

_MODES = st.sampled_from(["miss", "hit"])


@functools.lru_cache(maxsize=None)
def _tiny_engine():
    return _engine(prefixes=8)


def _records(flight: Flight, mode: str) -> list:
    """The hop and ``done`` records of ``flight``, built by the API from
    its rows and summary."""
    destination, flow = flight.key
    trace = api.trace_record(flight.rows, flight.source,
                             int_to_ip(destination), flow, flight.distance,
                             flight.probes, flight.first, flight.last)
    return [{"type": "hop", **hop} for hop in trace["hops"]] + [
        {"type": "done", "cache": mode, "epoch": flight.epoch,
         "trace": trace}]


def _expected(records: list, request_id) -> bytes:
    """Each record encoded on its own, with the request's id added."""
    if request_id is not _NO_ID and request_id is not None:
        records = [{"id": request_id, **record} for record in records]
    return b"".join(json.dumps(record, sort_keys=True,
                               separators=(",", ":")).encode() + b"\n"
                    for record in records)


async def _served_twice(flight, mode, request_id) -> list:
    """What the daemon writes for one request served from ``flight``,
    twice: the first response formats the lines, the second replays
    them."""
    handle = await start_service(_tiny_engine(), port=0)
    handle.service._lookup = lambda request: (flight, mode)
    payload = {"destination": "20.0.0.3"}
    if request_id is not _NO_ID:
        payload["id"] = request_id
    reader, writer = await _connect(handle)
    responses = []
    try:
        for _ in range(2):
            _send(writer, payload)
            responses.append(await _response(reader))
    finally:
        await _close(writer)
        await handle.drain()
    return responses


class TestEncodeOnce:
    """Lines formatted once per flight and replayed are, byte for byte,
    the records encoded afresh for each response."""

    @settings(max_examples=30, deadline=None)
    @given(flight=_FLIGHTS, mode=_MODES,
           request_id=_IDS)
    @example(flight=Flight((0x14000003, 0), 0, ((1, 0x3C000001, 0.5),),
                           "59.255.255.255", 1, 2, 12.0, 12.5),
             mode="hit", request_id='say "hé" ☃')
    def test_stored_lines_equal_per_response_encoding(
            self, flight, mode, request_id):
        if request_id is not _NO_ID:
            # The id as the daemon reads it back off the request line.
            request_id = json.loads(json.dumps(request_id))
        responses = asyncio.run(_served_twice(flight, mode, request_id))
        expected = _expected(_records(flight, mode), request_id)
        assert responses == [expected, expected]

    def test_drawn_fields_are_the_hop_schema(self):
        """Every field of a trace's hop record sorts before ``"type"``,
        which the done line's splice of stored hop lines relies on."""
        engine = _tiny_engine()
        request = api.TraceRequest(destination=0x14000003)
        hop = engine.open_session(request).run()["hops"][0]
        assert set(hop) == {"ip", "ttl", "hop_probecount", "path",
                            "source", "destination", "rtt_ms"}
        assert max(hop) < "type"


def _generic(record: dict) -> bytes:
    return (daemon._encode(record) + "\n").encode()


class TestSchemaTemplates:
    """A hop or ``done`` line formatted from a flight's rows and summary
    is the generic encoder's line of its record, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(flight=_FLIGHTS)
    def test_hop_lines_equal_the_generic_encoding(self, flight):
        assert daemon._hop_lines(flight) == [b"".join(
            _generic(record) for record in daemon._hop_records(flight))]
        assert daemon._hop_records(flight) == _records(flight, "hit")[:-1]

    @settings(max_examples=150, deadline=None)
    @given(flight=_FLIGHTS, mode=_MODES)
    @example(flight=Flight((0x14000003, 2**64), 0, (), "10.0.0.1", None,
                           0, 1e16, 5e-324), mode="miss")
    @example(flight=Flight((0x14000003, 0), 1, ((1, 0, -0.0),),
                           "10.0.0.1", 1, 3, -0.0, 1e300), mode="hit")
    def test_done_line_equals_the_generic_encoding(self, flight, mode):
        daemon._hop_lines(flight)
        record = daemon._done_record(flight, mode)
        assert daemon._done_line(flight, mode) == _generic(record)
        assert record == _records(flight, mode)[-1]

    def test_templates_hold_every_field_a_trace_publishes(self):
        """The daemon's own traces, reaching their destination or not:
        a flight keeps what the walk's own record holds, and its lines
        are that record's encoding."""
        engine = _engine(prefixes=64)
        service = daemon.TraceService(engine)
        ends = set()
        for destination in range(0x14000001, 0x14000201, 7):
            request = api.TraceRequest(destination=destination)
            flight = service._start_flight(request)
            trace = engine.open_session(
                request, start_time=flight.first).run()
            ends.add(trace["dest_reached"])
            records = [{"type": "hop", **hop} for hop in trace["hops"]] + [
                {"type": "done", "cache": "miss", "epoch": flight.epoch,
                 "trace": trace}]
            assert b"".join(daemon._hop_lines(flight) + [
                daemon._done_line(flight, "miss")]) \
                == b"".join(_generic(record) for record in records)
        assert ends == {True, False}


async def _settle(handle) -> None:
    """Wait for every connection handler to exit; an abandoned stream is
    finalised on a later loop turn."""
    for _ in range(200):
        if not handle.connections:
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)


async def _vanished_client() -> tuple:
    """A client reads one hop of a trace, then closes; the daemon is left
    to notice the close."""
    handle = await start_service(_engine(), port=0,
                                 telemetry=ServiceTelemetry())
    reader, writer = await _connect(handle)
    _send(writer, {"destination": "20.0.0.13", "flow": 0})
    first = json.loads(await asyncio.wait_for(reader.readline(), 10))
    writer.close()
    await _settle(handle)
    counters = handle.service.telemetry.registry.snapshot()["counters"]
    requests = handle.service.requests
    leftover = len(handle.connections)
    await handle.drain()
    return first, counters, requests, leftover


class TestVanishedClient:
    def test_requests_equal_sum_of_outcomes(self):
        first, counters, requests, leftover = asyncio.run(
            _vanished_client())
        assert first["type"] == "hop"
        assert leftover == 0, "the handler outlived its client"
        outcomes = {outcome: counters.get(f"service.requests.{outcome}", 0)
                    for outcome in OUTCOMES}
        assert requests == counters["service.requests.total"] == 1
        assert sum(outcomes.values()) == requests, outcomes


async def _broken_stream(payload):
    """A trace stream whose machinery breaks after two hops, one of them
    sent in a later loop turn than the other."""
    yield {"type": "hop", "ttl": 1}
    await asyncio.sleep(0)
    yield {"type": "hop", "ttl": 2}
    raise RuntimeError("stream machinery broke")


class TestInternalError:
    def test_buffered_records_precede_the_error_record(self):
        async def run():
            handle = await start_service(_engine(prefixes=8), port=0)
            handle.service.handle_trace = _broken_stream
            reader, writer = await _connect(handle)
            _send(writer, {"destination": "20.0.0.3", "id": 5})
            broken = await _response(reader)
            _send(writer, {"control": "ping"})
            pong = await _response(reader)
            await _close(writer)
            await handle.drain()
            return broken, pong, handle.service

        broken, pong, service = asyncio.run(run())
        assert broken == (
            b'{"id":5,"ttl":1,"type":"hop"}\n'
            b'{"id":5,"ttl":2,"type":"hop"}\n'
            b'{"code":"internal","error":"internal error: RuntimeError: '
            b'stream machinery broke","id":5,"type":"error"}\n')
        assert pong == b'{"type":"pong"}\n'
        assert service.internal_errors == 1


def _hops_in(record: dict) -> int:
    """Hop records inside one encoded record: itself, or a trace's."""
    if record["type"] == "hop":
        return 1
    return len((record.get("trace") or {}).get("hops", ()))


async def _census(monkeypatch, requests: int = 8,
                  deadline_ms: Optional[float] = None) -> list:
    """Per request of a persistent client: Tasks created on the loop,
    daemon-side ``write`` calls, the daemon's generic JSON encodes, the
    lines it formatted from a flight's rows and summary, and the hops
    those encodes and lines held, for one fresh trace and then
    cached hits (20.0.7.1 flow 0 is 16 hops and a ``done`` record on
    ``serve --prefixes 256``'s topology), each carrying ``deadline_ms``
    when it is given."""
    loop = asyncio.get_running_loop()
    handle = await start_service(_engine(prefixes=256), port=0)
    tasks, writes, encoded, formatted = [], [], [], []

    def factory(loop, coro, **kwargs):
        tasks.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    real_write = asyncio.StreamWriter.write

    def counting_write(writer, data):
        if writer.get_extra_info("sockname")[1] == handle.port:
            writes.append(data)
        return real_write(writer, data)

    real_encode = daemon._encode

    def counting_encode(record):
        encoded.append(record)
        return real_encode(record)

    class Counted(str):
        """A line template that records the hops of each line it
        formats."""

        def __mod__(self, values):
            formatted.append(self.hops)
            return str.__mod__(self, values)

    def counted(template: str, hops: int) -> Counted:
        template = Counted(template)
        template.hops = hops
        return template

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    monkeypatch.setattr(daemon, "_encode", counting_encode)
    monkeypatch.setattr(daemon, "_HOP_LINE", counted(daemon._HOP_LINE, 1))
    monkeypatch.setattr(daemon, "_DONE_HEAD",
                        counted(daemon._DONE_HEAD, 0))
    rows = []
    try:
        async with DaemonClient(host=handle.host, port=handle.port) as client:
            loop.set_task_factory(factory)
            payload = {"destination": "20.0.7.1", "flow": 0}
            if deadline_ms is not None:
                payload["deadline_ms"] = deadline_ms
            for _ in range(1 + requests):
                del tasks[:], writes[:], encoded[:], formatted[:]
                hops, done = await client.request(dict(payload))
                rows.append((done["cache"], len(hops) + 1, len(tasks),
                             len(writes), len(encoded), len(formatted),
                             sum(map(_hops_in, encoded)) + sum(formatted)))
    finally:
        loop.set_task_factory(None)
        await handle.drain()
    return rows


def _print_census(title: str, rows: list) -> None:
    print(f"\n{title}\ncache  records  loop Tasks  daemon writes"
          "  JSON encodes  lines formatted  hops formatted")
    for cache, records, tasks, writes, encodes, lines, hops in rows:
        print(f"{cache:<6} {records:>7} {tasks:>11} {writes:>14}"
              f" {encodes:>13} {lines:>15} {hops:>15}")


class TestTransportCensus:
    """Counts, not timings: what one request costs the event loops."""

    def test_census_hit_is_one_write_and_no_task(self, monkeypatch):
        rows = asyncio.run(_census(monkeypatch))
        _print_census("no deadline", rows)
        miss, hits = rows[0], rows[1:]
        # A fresh trace runs to its end in the step that looked it up,
        # so its response is no Task and one write.  Its 17 lines are
        # formatted from the flight's rows and summary, none by the
        # generic encoder, and each hop once: the done line splices in
        # the hop lines.  A hit formats only its done line, without hops.
        assert miss == ("miss", 17, 0, 1, 0, 17, 16), miss
        assert set(hits) == {("hit", 17, 0, 1, 0, 1, 0)}, hits

    def test_census_deadlined_miss_is_one_write_and_no_task(
            self, monkeypatch):
        """A deadline bounds only the wait for admission, so it costs an
        admitted request nothing: no timer Task, no extra write."""
        rows = asyncio.run(_census(monkeypatch, requests=2,
                                   deadline_ms=10_000.0))
        _print_census("deadline_ms 10000", rows)
        miss, hits = rows[0], rows[1:]
        assert miss == ("miss", 17, 0, 1, 0, 17, 16), miss
        assert set(hits) == {("hit", 17, 0, 1, 0, 1, 0)}, hits


async def _fill(service, keys) -> None:
    """Serve each key once, as the transport does without an ``id``."""
    for destination, flow in keys:
        async for _ in service.handle_trace(
                {"destination": destination, "flow": flow},
                daemon._hop_lines, daemon._done_line):
            pass


class TestCacheMemory:
    def test_flight_bytes_per_cached_trace(self):
        """Deterministic memory guard: a full 1,024-entry cache of fresh
        traces, their wire lines formatted, holds ≤ 3.8 MiB under
        tracemalloc, about 3.8 KB a flight of ~15 hops (8.7 MiB while a
        flight kept its hops as Manifold dicts beside their lines)."""
        engine = _engine(prefixes=256)
        base = engine.topology.base_prefix << 8
        draw = random.Random(5)
        keys = set()
        while len(keys) < 1024:
            keys.add((base + draw.randrange(256 << 8), draw.randrange(8)))
        service = daemon.TraceService(engine, cache_size=1024)
        gc.collect()
        tracemalloc.start()
        try:
            asyncio.run(_fill(service, sorted(keys)))
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            hops = sum(len(flight.rows)
                       for flight in service._cache.values())
            service._cache.clear()
            gc.collect()
            held = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert service.traces_started == 1024 and hops > 10 * 1024
        print(f"\n1024 cached flights, {hops} hops: {held / 2**20:.3f} "
              f"MiB, {held / 1024:.0f} B per flight, "
              f"{held / hops:.0f} B per hop")
        assert held <= 3.8 * 2**20, held
