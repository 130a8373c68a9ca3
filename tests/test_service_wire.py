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
import hashlib
import json
import math
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
_FLOATS = st.floats(min_value=0, allow_nan=False, allow_infinity=False)

#: The hop schema's fields other than ``ttl``.
_HOP_FIELDS = {"ip": _IPS, "rtt_ms": _FLOATS, "hop_probecount": st.just(0),
               "path": st.integers(0, 0xFFFF), "source": _IPS,
               "destination": _IPS}

#: Hop records of the Manifold schema; ``ttl`` always, every other field
#: maybe, so partial records are drawn too.
_HOPS = st.lists(st.fixed_dictionaries({"ttl": st.integers(1, 255)},
                                       optional=_HOP_FIELDS), max_size=20)

_IDS = st.one_of(
    st.just(_NO_ID), st.none(), st.text(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.integers(), st.text()), max_size=3))


@functools.lru_cache(maxsize=None)
def _tiny_engine():
    return _engine(prefixes=8)


def _expected(records: list, request_id) -> bytes:
    """Each record encoded on its own, with the request's id added."""
    if request_id is not _NO_ID and request_id is not None:
        records = [{"id": request_id, **record} for record in records]
    return b"".join(json.dumps(record, sort_keys=True,
                               separators=(",", ":")).encode() + b"\n"
                    for record in records)


async def _served_twice(hops, result, mode, request_id) -> tuple:
    """What the daemon writes for one request served from a finished
    trace of ``hops``, twice: the first response encodes the records,
    the second replays them."""
    handle = await start_service(_tiny_engine(), port=0)
    flight = Flight((0x14000003, 0), handle.service.epoch, result)
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
    return responses, flight.epoch


class TestEncodeOnce:
    """A record encoded once per flight and replayed is, byte for byte,
    the record encoded afresh for each response."""

    @settings(max_examples=40, deadline=None)
    @given(hops=_HOPS, mode=st.sampled_from(["miss", "hit"]),
           request_id=_IDS)
    @example(hops=[{"ttl": 1, "ip": "60.0.0.1", "rtt_ms": 0.5}], mode="hit",
             request_id='say "h\u00e9" \u2603')
    def test_stored_lines_equal_per_response_encoding(
            self, hops, mode, request_id):
        result = {"source": "10.0.0.1", "destination": "20.0.0.3",
                  "flow": 0, "hops": list(hops), "hop_count": len(hops),
                  "dest_reached": bool(hops),
                  "dest_distance": hops[-1]["ttl"] if hops else None,
                  "probes": 2 * len(hops) + 1, "first": 12.0,
                  "last": 12.0 + 0.001 * len(hops), "ts": 12.5}
        if request_id is not _NO_ID:
            # The id as the daemon reads it back off the request line.
            request_id = json.loads(json.dumps(request_id))
        responses, epoch = asyncio.run(_served_twice(
            hops, result, mode, request_id))
        records = [{"type": "hop", **hop} for hop in hops] + [
            {"type": "done", "cache": mode, "epoch": epoch,
             "trace": result}]
        expected = _expected(records, request_id)
        assert responses == [expected, expected]

    def test_drawn_fields_are_the_hop_schema(self):
        """The records above are the ones a trace publishes, and every
        field sorts before ``"type"``, which the done line's splice of
        stored hop lines relies on."""
        engine = _tiny_engine()
        request = api.TraceRequest(destination=0x14000003)
        hop = engine.open_session(request).run()["hops"][0]
        assert set(hop) == {"ttl", *_HOP_FIELDS}
        assert max(hop) < "type"


#: Strings the quoting must get right: quotes, backslashes, control
#: characters, non-ASCII and astral text, a lone surrogate.
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\té ☃'
                    '\U0001f600\ud800'),
    st.characters()), max_size=12)

#: Finite floats, with the edges of ``float.__repr__``: signed zeros,
#: subnormals and exponent forms.
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16,
                     1e300, 1e-7]),
    st.floats(allow_nan=False, allow_infinity=False))

#: ... and the floats the encoder writes as ``NaN``/``Infinity``, which
#: the templates leave to it.
_ANY_FLOATS = st.one_of(_FINITE,
                        st.sampled_from([math.nan, math.inf, -math.inf]))

#: Ints, including either side of 2**63 and far above it.
_INTS = st.one_of(st.integers(), st.integers(2**63 - 2, 2**64 + 2),
                  st.integers(min_value=2**64))

#: Values of any JSON type, to bend a record off its schema.
_ANY = st.one_of(st.none(), st.booleans(), _INTS, _ANY_FLOATS, _TEXT,
                 st.lists(st.integers(), max_size=2))

#: The hop schema with each value's exact type.
_HOP_TYPES = {"destination": str, "hop_probecount": int, "ip": str,
              "path": int, "rtt_ms": float, "source": str, "ttl": int}

#: The trace summary's schema; ``dest_distance`` may also be ``None``.
_TRACE_TYPES = {"dest_distance": int, "dest_reached": bool,
                "destination": str, "first": float, "flow": int,
                "hop_count": int, "hops": list, "last": float,
                "probes": int, "source": str, "ts": float}

#: A value of each schema type; ``_bent`` puts in the others, nan and
#: infinity among them.
_SLOT = {str: _TEXT, int: _INTS, float: _FINITE, bool: st.booleans()}

_FULL_HOPS = st.fixed_dictionaries(
    {key: _SLOT[kind] for key, kind in _HOP_TYPES.items()})


@st.composite
def _bent(draw, records, keys):
    """A record of ``records``, as drawn or bent off its schema: a key
    dropped, a key added, or a value of any type put in."""
    record = draw(records)
    how = draw(st.sampled_from(["as drawn", "as drawn", "drop", "set"]))
    if how == "drop":
        del record[draw(st.sampled_from(keys))]
    elif how == "set":
        # "note" sorts before "type", as every hop key must for the
        # done line's splice.
        record[draw(st.sampled_from(keys + ("note",)))] = draw(_ANY)
    return record


_HOPS_BENT = _bent(_FULL_HOPS, tuple(_HOP_TYPES))

_TRACES_BENT = _bent(st.fixed_dictionaries(dict(
    {key: _SLOT.get(kind) for key, kind in _TRACE_TYPES.items()},
    dest_distance=st.none() | _INTS,
    hops=st.lists(_HOPS_BENT, max_size=3))),
    tuple(key for key in _TRACE_TYPES if key != "hops"))


def _fits(record: dict, types: dict) -> bool:
    """Whether ``record`` has exactly the keys of ``types``, each value
    of its type exactly, and no float that is nan or infinite."""
    return set(record) == set(types) and all(
        type(record[key]) is kind
        and (kind is not float or math.isfinite(record[key]))
        for key, kind in types.items())


def _generic(record: dict) -> bytes:
    return (daemon._encode(record) + "\n").encode()


class TestSchemaTemplates:
    """A hop or ``done`` line formatted from its schema template is the
    generic encoder's line, byte for byte; a record off the schema goes
    to the generic encoder."""

    @settings(max_examples=300, deadline=None)
    @given(hops=st.lists(_HOPS_BENT, max_size=4))
    @example(hops=[{"destination": "20.0.0.3", "hop_probecount": 0,
                    "ip": "60.0.0.1", "path": 2**63, "rtt_ms": rtt,
                    "source": 'a"\\é\x01', "ttl": ttl}
                   for rtt, ttl in [(-0.0, 1), (math.nan, 2), (math.inf, 3),
                                    (-math.inf, 4), (1, 5), (0.5, True)]])
    def test_hop_lines_equal_the_generic_encoding(self, hops):
        flight = Flight((0, 0), 0, {"hops": hops})
        assert daemon._hop_lines(flight) == [
            _generic({"type": "hop", **hop}) for hop in hops]
        for hop in hops:
            line = daemon._hop_template(hop)
            assert (line is not None) == _fits(hop, _HOP_TYPES), hop

    @settings(max_examples=300, deadline=None)
    @given(result=_TRACES_BENT, mode=_TEXT, epoch=_INTS)
    @example(result={"dest_distance": None, "dest_reached": False,
                     "destination": "20.0.0.3", "first": 1e16,
                     "flow": 2**64, "hop_count": 0, "hops": [],
                     "last": 5e-324, "probes": 0, "source": "☃",
                     "ts": 1e300}, mode="miss", epoch=0)
    @example(result={"dest_distance": 3, "dest_reached": True,
                     "destination": "20.0.0.3", "first": math.nan,
                     "flow": 0, "hop_count": 0, "hops": [],
                     "last": math.inf, "probes": 0, "source": "10.0.0.1",
                     "ts": -math.inf}, mode="hit", epoch=1)
    @example(result={"dest_distance": 3, "dest_reached": True,
                     "destination": "20.0.0.3", "first": 1.5, "flow": 0,
                     "hop_count": 0, "hops": [], "last": 2.0, "probes": 0,
                     "source": "10.0.0.1", "ts": 2.0}, mode="hit",
             epoch=True)
    @example(result={"dest_distance": True, "dest_reached": True,
                     "destination": "20.0.0.3", "first": 1.5, "flow": 0,
                     "hop_count": 0, "hops": [], "last": 2.0, "probes": 0,
                     "source": "10.0.0.1", "ts": 2.0}, mode="hit",
             epoch=0)
    @example(result={"dest_distance": 3, "dest_reached": 1,
                     "destination": "20.0.0.3", "first": 1.5, "flow": 0,
                     "hop_count": 0, "hops": [], "last": 2.0, "probes": 0,
                     "source": "10.0.0.1", "ts": 2.0}, mode="hit",
             epoch=0)
    @example(result={"dest_distance": 3, "dest_reached": None,
                     "destination": "20.0.0.3", "first": 1.5, "flow": 0,
                     "hop_count": 0, "hops": [], "last": 2.0, "probes": 0,
                     "source": "10.0.0.1", "ts": 2.0}, mode="hit",
             epoch=0)
    @example(result={"dest_distance": 3, "dest_reached": True,
                     "destination": "20.0.0.3", "first": 1, "flow": 0,
                     "hop_count": 0, "hops": [], "last": 2.0, "probes": 0,
                     "source": "10.0.0.1", "ts": 2.0}, mode="hit",
             epoch=0)
    def test_done_line_equals_the_generic_encoding(self, result, mode,
                                                   epoch):
        flight = Flight((0, 0), epoch, result)
        daemon._hop_lines(flight)
        assert daemon._done_line(flight, mode) == _generic(
            {"type": "done", "cache": mode, "epoch": epoch,
             "trace": result})
        types = dict(_TRACE_TYPES)
        if result.get("dest_distance", 0) is None:
            types["dest_distance"] = type(None)
        fits = _fits(result, types) and type(epoch) is int
        assert (daemon._done_template(flight, mode) is not None) == fits

    def test_templates_hold_every_field_a_trace_publishes(self):
        """A new field of the hop record or of ``result()`` fails here
        rather than going missing from the wire; the daemon's own traces,
        reaching their destination or not, take the templates."""
        assert daemon.HOP_SCHEMA == tuple(sorted(_HOP_TYPES))
        assert daemon.TRACE_SCHEMA == tuple(sorted(_TRACE_TYPES))
        engine = _engine(prefixes=64)
        ends = set()
        for destination in range(0x14000001, 0x14000201, 7):
            result = engine.open_session(
                api.TraceRequest(destination=destination)).run()
            ends.add(result["dest_reached"])
            assert set(result) == set(daemon.TRACE_SCHEMA)
            flight = Flight((destination, 0), 0, result)
            for hop in flight.hops:
                assert set(hop) == set(daemon.HOP_SCHEMA)
                assert daemon._hop_template(hop) is not None, hop
            assert daemon._done_template(flight, "miss") is not None
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
    lines it formatted from the hop and trace-summary templates, and the
    hops those encodes and lines held, for one fresh trace and then
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

    def counting(template, hops: int):
        """``template``, recording the ``hops`` of each line it formats."""
        def count(*args):
            line = template(*args)
            if line is not None:
                formatted.append(hops)
            return line
        return count

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
    monkeypatch.setattr(daemon, "_encode", counting_encode)
    monkeypatch.setattr(daemon, "_hop_template",
                        counting(daemon._hop_template, 1))
    monkeypatch.setattr(daemon, "_done_template",
                        counting(daemon._done_template, 0))
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
          "  JSON encodes  template lines  hops formatted")
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
        # formatted from the schema templates, none by the generic
        # encoder, and each hop once: the done line splices in the hop
        # lines.  A hit formats only its done line, without hops.
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
