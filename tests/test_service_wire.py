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
import hashlib
import json

from repro import api
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
    "coalesced_join":
        "b0b81ae2428958cebdca05eb85df4b92e51765eb6919d744ec58b10681207f0f",
    "error":
        "2916772d264f4e6ff32eb6d42a9dd4736e29d48936cdac8a7f1a5798e412a3cc",
    "control_with_id":
        "15a4ef87bb5e2f209bd1e8e3a22a717ba0fc167708aa91c88a07f5e738caf7af",
    "deadline_mid_stream":
        "b908b117c347680986e9f1d435ef21f8bc599679a7ea9f59dee310dff1f1660d",
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

    # A coalesced join: the second connection asks for the key once the
    # first one's trace has streamed a hop, so it replays what was
    # published and rides the rest live.
    joiner_reader, joiner_writer = await _connect(handle)
    shared = {"destination": "20.0.0.9", "flow": 2}
    _send(writer, shared)
    first_hop = await asyncio.wait_for(reader.readline(), 10)
    _send(joiner_writer, shared)
    out["coalesced_join"] = await _response(joiner_reader)
    out["coalesced_leader"] = first_hop + await _response(reader)
    await _close(joiner_writer)

    _send(writer, {"destination": "not-an-ip"})
    out["error"] = await _response(reader)
    _send(writer, {"control": "ping", "id": 7})
    out["control_with_id"] = await _response(reader)

    # A deadline that expires mid-stream: a flight that never finishes
    # has published two hops, so the request replays them, then waits
    # out its deadline on the live queue.
    key = (0x1400000B, 3)
    flight = Flight(key, handle.service.epoch)
    handle.service._flights[key] = flight
    for ttl in (1, 2):
        flight.publish({"ip": f"60.0.0.{ttl}", "ttl": ttl, "rtt_ms": 0.5})
    _send(writer, {"destination": "20.0.0.11", "flow": 3,
                   "deadline_ms": 50, "id": "d"})
    out["deadline_mid_stream"] = await _response(reader)
    flight.finish(None, error="test over")
    del handle.service._flights[key]

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
        assert records["coalesced_join"][-1]["cache"] == "coalesced"
        assert records["coalesced_leader"][-1]["cache"] == "miss"
        assert all(record["id"] == "h-1"
                   for record in records["hit_with_id"])
        assert records["control_with_id"] == [{"id": 7, "type": "pong"}]
        assert records["deadline_mid_stream"][-1]["code"] \
            == "deadline_exceeded"
        assert [record["type"] for record in
                records["deadline_mid_stream"]] == ["hop", "hop", "error"]
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in out.items()}
        changed = {name: out[name].decode() for name in out
                   if digests[name] != WIRE_SHA256[name]}
        assert digests == WIRE_SHA256, changed


async def _vanished_client() -> tuple:
    """A client reads one hop of a live trace, then closes; the daemon
    is left to notice and end the stream."""
    handle = await start_service(_engine(), port=0,
                                 telemetry=ServiceTelemetry())
    reader, writer = await _connect(handle)
    _send(writer, {"destination": "20.0.0.13", "flow": 0})
    first = json.loads(await asyncio.wait_for(reader.readline(), 10))
    writer.close()
    await handle.service.drain()
    # Settle: the handler sees the loss and exits, and its abandoned
    # stream is finalised on a later loop turn.
    for _ in range(200):
        if not handle.connections:
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)
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
        # The daemon ends the stream before the trace does: 150 of 150
        # runs of this case before the batched transport read cancelled.
        assert outcomes["cancelled"] == 1, outcomes


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


async def _census(monkeypatch, requests: int = 8) -> list:
    """Per request of a persistent client: Tasks created on the loop and
    daemon-side ``write`` calls, for one fresh trace and then cached
    hits (20.0.7.1 flow 0 is 16 hops and a ``done`` record on
    ``serve --prefixes 256``'s topology)."""
    loop = asyncio.get_running_loop()
    handle = await start_service(_engine(prefixes=256), port=0)
    tasks, writes = [], []

    def factory(loop, coro, **kwargs):
        tasks.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    real_write = asyncio.StreamWriter.write

    def counting_write(writer, data):
        if writer.get_extra_info("sockname")[1] == handle.port:
            writes.append(data)
        return real_write(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    rows = []
    try:
        async with DaemonClient(host=handle.host, port=handle.port) as client:
            loop.set_task_factory(factory)
            for _ in range(1 + requests):
                del tasks[:], writes[:]
                hops, done = await client.request(
                    {"destination": "20.0.7.1", "flow": 0})
                rows.append((done["cache"], len(hops) + 1, len(tasks),
                             len(writes)))
    finally:
        loop.set_task_factory(None)
        await handle.drain()
    return rows


class TestTransportCensus:
    """Counts, not timings: what one request costs the event loops."""

    def test_census_hit_is_one_write_and_no_task(self, monkeypatch):
        rows = asyncio.run(_census(monkeypatch))
        print("\ncache  records  loop Tasks  daemon writes")
        for cache, records, tasks, writes in rows:
            print(f"{cache:<6} {records:>7} {tasks:>11} {writes:>14}")
        miss, hits = rows[0], rows[1:]
        assert miss[0] == "miss" and miss[1] == 17, miss
        # The fresh trace's flight is the daemon's one Task.
        assert miss[2] == 1, miss
        assert set(hits) == {("hit", 17, 0, 1)}, hits
