"""Every way a trace request can end, pinned in one table.

One row per ending of :meth:`TraceService.handle_trace` — the four
admission refusals, the three parse/serve errors, the two ways of being
served, a failed walk and a client that walks away.  Each row asserts the exact terminal record,
which ``stats()`` counters moved, and — with telemetry on and an
injected wall clock — the outcome, ``error`` field, slow-log cause,
ordered phase names and ``hops``/``probes``/``virtual_ms`` of the
flushed ``service.request`` span, plus the coherence identity
``requests == Σ service.requests.<outcome>``.

The table describes behaviour, not structure: it must hold unedited
across any refactor of the daemon's serving path.
"""

from __future__ import annotations

import asyncio
import io
import itertools
import json

import pytest

from repro import api
from repro.obs.trace import ScanTracer, validate_trace
from repro.service.daemon import TraceService
from repro.service.obs import OUTCOMES, ServiceTelemetry

_PAYLOAD = {"destination": "20.0.0.7", "flow": 1}
_KEY = (0x14000007, 1)
_OTHER = {"destination": "20.0.9.9", "flow": 5}

#: The monotonic ``stats()`` counters a request may move.
_COUNTERS = ("requests", "traces_started", "cache_hits", "errors",
             "deadline_exceeded", "shed", "internal_errors", "probes_sent",
             "cache_evicted_epoch", "cache_evicted_lru")

_DEADLINE_MESSAGE = ("deadline_ms must be a positive finite number of "
                     "milliseconds")
_DRAINING_MESSAGE = ("daemon is draining (shutting down); no new traces "
                     "are accepted")
_OUTSIDE_MESSAGE = ("destination 99.99.0.1 is outside the simulated "
                    "space 20.0.0.0..20.0.63.255")

#: Two hop records a broken walk yields before it fails (Manifold
#: schema).
_FAKE_HOPS = [
    {"ip": "60.0.0.0", "ttl": 1, "hop_probecount": 0, "path": 1,
     "source": "59.255.255.255", "destination": "20.0.0.7",
     "rtt_ms": 6.5},
    {"ip": "60.0.0.1", "ttl": 2, "hop_probecount": 0, "path": 1,
     "source": "59.255.255.255", "destination": "20.0.0.7",
     "rtt_ms": 11.4},
]


def _engine():
    return api.Engine.from_request(api.ScanRequest(prefixes=64,
                                                   seed=20201027))


def _reference(payload=_PAYLOAD):
    """What the trace is, computed without the daemon: the hop records
    and closing summary of a solo ``TraceSession`` at virtual time 0."""
    session = _engine().open_session(api.TraceRequest.parse(dict(payload)),
                                     start_time=0.0)
    hops = [{"type": "hop", **record} for record in session.stream()]
    return hops, session.result()


def _deadline_record(deadline_ms):
    return {"type": "error", "code": "deadline_exceeded",
            "error": f"deadline of {deadline_ms:g} ms exceeded",
            "deadline_ms": deadline_ms}


class _Run:
    """One scenario's service, telemetry capture and measured request."""

    def __init__(self, **knobs):
        ticks = itertools.count()
        self.sink = io.StringIO()
        self.telemetry = ServiceTelemetry(
            tracer=ScanTracer(stream=self.sink), slow_ms=0.0,
            wall_clock=lambda: next(ticks) * 0.001)
        self.service = TraceService(_engine(), telemetry=self.telemetry,
                                    **knobs)
        self.before = self.after = None
        self.hops, self.terminal = [], None

    async def measure(self, payload, walk_away_after=None):
        """Serve the request under test, bracketing it with ``stats()``.

        ``walk_away_after=N`` abandons the stream after N records (a
        client that vanished: ``GeneratorExit`` inside handle_trace).
        """
        self.before = self.service.stats()
        stream = self.service.handle_trace(dict(payload))
        if walk_away_after is not None:
            for _ in range(walk_away_after):
                self.hops.append(await stream.__anext__())
            await stream.aclose()
        else:
            async for record in stream:
                if record["type"] == "hop":
                    self.hops.append(record)
                else:
                    assert self.terminal is None, "two terminal records"
                    self.terminal = record
        self.after = self.service.stats()

    # -- scenario building blocks ---------------------------------------

    async def occupy_slot(self):
        """Hold the only admission slot with a stream parked after its
        first hop; returns the stream (close it to free the slot)."""
        stream = self.service.handle_trace(dict(_PAYLOAD))
        await stream.__anext__()
        return stream

    # -- what telemetry saw ---------------------------------------------

    def events(self):
        return [json.loads(line)
                for line in self.sink.getvalue().splitlines()]

    def span(self):
        """``(end-event fields, ordered phase names)`` of the measured
        request's flushed ``service.request`` span."""
        rid = self.before["requests"] + 1  # ids follow arrival order
        events = self.events()
        validate_trace(events)
        begin = next(index for index, event in enumerate(events)
                     if event.get("ev") == "begin"
                     and event["span"] == "service.request"
                     and event["rid"] == rid)
        phases = []
        for event in events[begin + 1:]:
            if event["span"] == "service.request":
                assert event["ev"] == "end" and event["rid"] == rid
                return event, phases
            if event["ev"] == "begin":
                phases.append(event["name"])
        raise AssertionError(f"request {rid} never flushed its span")

    def slow_entry(self):
        rid = self.before["requests"] + 1
        return next(entry for entry in self.telemetry.slow_requests
                    if entry["rid"] == rid)


async def _free_slot(run, occupier):
    """Close the occupier; its admission slot must come back (a leaked
    slot would shed the follow-up, since nothing may queue)."""
    await occupier.aclose()
    run.service.max_queued = 0
    terminal = None
    async for terminal in run.service.handle_trace(dict(_OTHER)):
        pass
    assert terminal["type"] == "done", "an admission slot leaked"


# --------------------------------------------------------------------- #
# The scenarios: each drives one _Run to one ending
# --------------------------------------------------------------------- #

async def _bad_deadline():
    run = _Run()
    await run.measure(dict(_PAYLOAD, deadline_ms=-5))
    return run


async def _draining():
    run = _Run()
    run.service.draining = True
    await run.measure(_PAYLOAD)
    return run


async def _overloaded():
    run = _Run(max_inflight=1)
    occupier = await run.occupy_slot()
    await run.measure(_OTHER)
    await _free_slot(run, occupier)
    return run


async def _deadline_while_queued():
    run = _Run(max_inflight=1, max_queued=4)
    occupier = await run.occupy_slot()
    await run.measure(dict(_OTHER, deadline_ms=25.0))
    assert len(run.service._admit_queue) == 0
    await _free_slot(run, occupier)
    return run


async def _parse_error():
    run = _Run()
    await run.measure({"destination": "not-an-ip"})
    return run


async def _outside_space():
    run = _Run()
    await run.measure({"destination": "99.99.0.1"})
    return run


async def _internal_error():
    run = _Run()

    def broken(request, start_time):
        raise RuntimeError("engine exploded")

    run.service.engine.open_session = broken
    await run.measure(_PAYLOAD)
    return run


async def _fresh():
    run = _Run()
    await run.measure(_PAYLOAD)
    return run


async def _hit():
    run = _Run()
    async for _ in run.service.handle_trace(dict(_PAYLOAD)):
        pass
    await run.measure(_PAYLOAD)
    return run


async def _failed_flight():
    run = _Run()

    class BrokenSession:
        def stream(self):
            yield from _FAKE_HOPS
            raise RuntimeError("boom")

    run.service.engine.open_session = \
        lambda request, start_time: BrokenSession()
    await run.measure(_PAYLOAD)
    assert run.service.cache_len == 0, "a failed flight is never cached"
    return run


async def _client_gone():
    run = _Run()
    await run.measure(_PAYLOAD, walk_away_after=2)
    flight = run.service._cache[_KEY]
    assert [{"type": "hop", **hop} for hop in flight.hops] \
        == _reference()[0], "the vanished client's trace is cached whole"
    return run


_FRESH_PHASES = ["receive", "cache-lookup", "probe-stream", "respond"]

#: scenario → what must be observed.  ``terminal`` is the exact record
#: ("done:<mode>" stands for the done record around the reference
#: trace); ``moved`` the stats() counters that changed and by how much
#: ("probes" stands for the reference trace's probe count; every
#: counter not named must not move); ``hops`` the hop records the client
#: received — ``"all"`` of the reference trace or the first N of it —
#: and ``reported`` the hop count on the span where it differs.
_ENDINGS = {
    "bad-deadline": dict(
        scenario=_bad_deadline,
        terminal={"type": "error", "error": _DEADLINE_MESSAGE},
        moved={"requests": 1, "errors": 1},
        outcome="error", error=_DEADLINE_MESSAGE, cause="error",
        phases=["receive", "respond"], hops=0),
    "draining": dict(
        scenario=_draining,
        terminal={"type": "error", "code": "draining",
                  "error": _DRAINING_MESSAGE},
        moved={"requests": 1, "shed": 1},
        outcome="shed", error="draining", cause="overload_shed",
        phases=["receive", "respond"], hops=0,
        shed={"service.shed.total": 1, "service.shed.draining": 1}),
    "overloaded": dict(
        scenario=_overloaded,
        terminal={"type": "error", "code": "overloaded",
                  "error": "server overloaded (1 in flight, 0 queued)",
                  "retry_after_ms": 100.0},
        moved={"requests": 1, "shed": 1},
        outcome="shed", error="overloaded", cause="overload_shed",
        phases=["receive", "respond"], hops=0,
        shed={"service.shed.total": 1, "service.shed.overloaded": 1}),
    "deadline-while-queued": dict(
        scenario=_deadline_while_queued,
        terminal=_deadline_record(25.0),
        moved={"requests": 1, "deadline_exceeded": 1},
        outcome="deadline", error="deadline_exceeded",
        cause="deadline_exceeded",
        phases=["receive", "respond"], hops=0),
    "parse-error": dict(
        scenario=_parse_error,
        terminal={"type": "error",
                  "error": "destination 'not-an-ip' is not an IPv4 "
                           "address"},
        moved={"requests": 1, "errors": 1},
        outcome="error",
        error="destination 'not-an-ip' is not an IPv4 address",
        cause="error", phases=["receive", "respond"], hops=0),
    "outside-space": dict(
        scenario=_outside_space,
        terminal={"type": "error", "error": _OUTSIDE_MESSAGE},
        moved={"requests": 1, "errors": 1},
        outcome="error", error=_OUTSIDE_MESSAGE, cause="error",
        phases=["receive", "cache-lookup", "respond"], hops=0),
    "internal-error": dict(
        scenario=_internal_error,
        terminal={"type": "error", "code": "internal",
                  "error": "internal error: RuntimeError: "
                           "engine exploded"},
        moved={"requests": 1, "errors": 1, "internal_errors": 1},
        outcome="error",
        error="internal error: RuntimeError: engine exploded",
        cause="error",
        phases=["receive", "cache-lookup", "respond"], hops=0),
    "fresh": dict(
        scenario=_fresh, terminal="done:miss",
        moved={"requests": 1, "traces_started": 1,
               "probes_sent": "probes"},
        outcome="fresh", error=None, cause="cache_miss",
        phases=_FRESH_PHASES, hops="all", probes="probes",
        virtual=True),
    "hit": dict(
        scenario=_hit, terminal="done:hit",
        moved={"requests": 1, "cache_hits": 1},
        outcome="hit", error=None, cause="cache_replay",
        phases=["receive", "cache-lookup", "cache-replay", "respond"],
        hops="all", virtual=True),
    "failed-flight": dict(
        # The walk fails after two hops; none of them is served.
        scenario=_failed_flight,
        terminal={"type": "error", "error": "trace failed: boom"},
        moved={"requests": 1, "traces_started": 1, "errors": 1},
        outcome="error", error="trace failed: boom", cause="error",
        phases=_FRESH_PHASES, hops=0),
    "client-gone": dict(
        # The trace is whole before the first hop is served, so its
        # probes are counted though the client left after two hops.
        scenario=_client_gone, terminal=None,
        moved={"requests": 1, "traces_started": 1,
               "probes_sent": "probes"},
        outcome="cancelled", error=None, cause="client_disconnect",
        phases=_FRESH_PHASES, hops=2, reported=0),
}


@pytest.mark.parametrize("name", sorted(_ENDINGS))
def test_every_ending(name):
    want = _ENDINGS[name]
    reference_hops, reference_trace = _reference()

    run = asyncio.run(want["scenario"]())
    service = run.service

    # -- the terminal record, exactly -----------------------------------
    terminal = want["terminal"]
    if isinstance(terminal, str):
        terminal = {"type": "done", "cache": terminal.split(":")[1],
                    "epoch": 0, "trace": reference_trace}
    assert run.terminal == terminal

    # -- the hop records the client received ----------------------------
    hops = want["hops"]
    received = reference_hops[:None if hops == "all" else hops]
    assert run.hops == received
    reported = want.get("reported", len(received))

    # -- which counters moved -------------------------------------------
    moved = {counter: run.after[counter] - run.before[counter]
             for counter in _COUNTERS
             if run.after[counter] != run.before[counter]}
    expected = {counter: (reference_trace["probes"] if delta == "probes"
                          else delta)
                for counter, delta in want["moved"].items()}
    assert moved == expected

    # -- what telemetry recorded ----------------------------------------
    end, phases = run.span()
    assert phases == want["phases"]
    assert end["outcome"] == want["outcome"]
    assert end.get("error") == want["error"]
    assert end["hops"] == reported
    assert end["probes"] == (reference_trace["probes"]
                             if want.get("probes") else 0)
    virtual_ms = (round((reference_trace["last"]
                         - reference_trace["first"]) * 1000.0, 3)
                  if want.get("virtual") else 0.0)
    assert end["virtual_ms"] == virtual_ms
    entry = run.slow_entry()
    assert entry["outcome"] == want["outcome"]
    assert entry["error"] == want["error"]
    assert entry["cause"] == want["cause"]
    assert entry["probes"] == end["probes"]

    # -- coherence: every request has exactly one outcome ---------------
    counters = run.telemetry.registry.snapshot()["counters"]
    by_outcome = {outcome: counters.get(f"service.requests.{outcome}", 0)
                  for outcome in OUTCOMES}
    assert service.requests == counters["service.requests.total"] \
        == sum(by_outcome.values())
    assert by_outcome[want["outcome"]] >= 1
    shed = {key: value for key, value in counters.items()
            if key.startswith("service.shed.")}
    assert shed == want.get("shed", {})
    assert len(service._admit_queue) == 0


def test_hit_is_byte_equal_to_the_miss_that_filled_the_cache():
    async def run():
        service = TraceService(_engine())
        streams = []
        for _ in range(2):
            records = []
            async for record in service.handle_trace(dict(_PAYLOAD)):
                records.append(record)
            streams.append(records)
        return streams

    miss, hit = asyncio.run(run())
    assert (miss[-1]["cache"], hit[-1]["cache"]) == ("miss", "hit")

    def canonical(record):
        return json.dumps(record, sort_keys=True)

    assert [canonical(record) for record in hit[:-1]] \
        == [canonical(record) for record in miss[:-1]]
    assert canonical(hit[-1]["trace"]) == canonical(miss[-1]["trace"])
    assert hit[-1]["epoch"] == miss[-1]["epoch"]
