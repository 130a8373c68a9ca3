"""Micro-benchmarks: one layer's public functions in a timed loop.

Each loop runs for at least ``min_seconds`` (0.2 s in a full run) over a
stream captured from the workload's own scan — the probes a FlashRoute
or Yarrp scan actually emitted and the responses the simulator actually
gave — so the per-item costs are those of realistic inputs, and the
result of every call is consumed inside the timed region.
"""

from __future__ import annotations

import asyncio
import gc
import io
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import Engine, TraceRequest
from repro.core.dcb import DCBArray, initial_order
from repro.core.encoding import decode_response, encode_probe
from repro.core.output import write_json
from repro.service.daemon import TraceService
from repro.simnet.engine import ResponseQueue

#: Batch size of the warm replay (the issue's "16-probe batches").
REPLAY_BATCH = 16


def per_item_ns(one_pass: Callable[[], object], items: int,
                min_seconds: float) -> float:
    """Repeat ``one_pass`` (which handles ``items`` items) until
    ``min_seconds`` have gone by; nanoseconds per item.

    The cyclic collector is off inside the loop: with a topology and a
    route cache on the heap one full collection takes as long as the
    whole loop, and whether one falls inside it is chance, not a cost
    of the layer."""
    passes = 0
    budget = int(min_seconds * 1e9)
    gc.collect()
    gc.disable()
    try:
        start = perf_counter_ns()
        while True:
            one_pass()
            passes += 1
            elapsed = perf_counter_ns() - start
            if elapsed >= budget:
                return elapsed / (passes * max(items, 1))
    finally:
        gc.enable()


def warm_replay(engine: Engine, probes: List[tuple], proto: int,
                min_seconds: float) -> Tuple[float, list]:
    """The captured stream through the now-warm route cache, in
    16-probe batches; returns (ns per probe, the responses of one pass).

    Each pass opens its own session view so the per-scan rate-limiter
    bins start clean, exactly as they did for the scan."""
    chunks = [probes[index:index + REPLAY_BATCH]
              for index in range(0, len(probes), REPLAY_BATCH)]
    responses: list = []

    def one_pass() -> None:
        network = engine.network.open_session()
        collected: list = []
        for chunk in chunks:
            collected.extend(network.send_probes(chunk, proto=proto))
        responses[:] = collected

    one_pass()  # realize lazily built table slots outside the timing
    cost = per_item_ns(one_pass, len(probes), min_seconds)
    return cost, [response for response in responses
                  if response is not None]


def encoding(probes: List[tuple], responses: list,
             min_seconds: float) -> Tuple[float, float]:
    """(encode ns per probe, decode ns per response)."""
    def encode_pass() -> None:
        for dst, ttl, send_time, _port, _ipid, _length in probes:
            encode_probe(dst, ttl, send_time)

    def decode_pass() -> None:
        for response in responses:
            decode_response(response)

    return (per_item_ns(encode_pass, len(probes), min_seconds),
            per_item_ns(decode_pass, len(responses), min_seconds))


def response_queue(responses: list, min_seconds: float) -> float:
    """``push_many`` of a 16-response burst followed by ``pop_until``
    its last arrival, as a ring-walk step does; ns per response."""
    bursts = [responses[index:index + REPLAY_BATCH]
              for index in range(0, len(responses), REPLAY_BATCH)]

    def one_pass() -> None:
        queue = ResponseQueue()
        for burst in bursts:
            queue.push_many(burst)
            for _ in queue.pop_until(burst[-1].arrival_time):
                pass

    return per_item_ns(one_pass, len(responses), min_seconds)


def dcb(destinations: List[int], seed: int,
        min_seconds: float) -> Tuple[float, float]:
    """(seconds to build array + order + ring, ns per DCB of one ring
    pass that visits and unlinks every entry)."""
    size = len(destinations)
    start = perf_counter()
    array = DCBArray(destinations, split_ttl=16, gap_limit=5)
    order = initial_order(size, seed)
    array.link_ring(order)
    build_s = perf_counter() - start

    budget = int(min_seconds * 1e9)
    walked_ns = passes = 0
    while walked_ns < budget:
        start_ns = perf_counter_ns()
        for index in array.iter_ring():
            array.remove(index)
        walked_ns += perf_counter_ns() - start_ns
        passes += 1
        array.link_ring(order)  # refill the ring, outside the timing
    return build_s, walked_ns / (passes * size)


def output(result) -> Tuple[float, int]:
    """(seconds to ``write_json`` the result in memory, bytes written)."""
    stream = io.StringIO()
    start = perf_counter()
    write_json(result, stream)
    return perf_counter() - start, len(stream.getvalue().encode())


def trace_api(engine: Engine, keys: Sequence[Tuple[int, int]],
              min_seconds: float) -> Dict[str, float]:
    """``open_session`` alone, and ``open_session(...).run()``, in
    process over the workload's keys (µs per call, probes per trace)."""
    requests = [TraceRequest(destination=dst, flow=flow)
                for dst, flow in keys]
    probes = 0

    def open_pass() -> None:
        for request in requests:
            engine.open_session(request)

    def trace_pass() -> None:
        nonlocal probes
        probes = 0
        for request in requests:
            probes += engine.open_session(request).run()["probes"]

    trace_pass()  # warm the route cache: the daemon's is warm too
    return {
        "open_session_us": per_item_ns(open_pass, len(requests),
                                       min_seconds) / 1e3,
        "trace_us": per_item_ns(trace_pass, len(requests),
                                min_seconds) / 1e3,
        "trace_probes_mean": probes / len(requests),
    }


def handle_trace(engine: Engine, payloads: Sequence[dict], cache_size: int,
                 min_seconds: float) -> Tuple[float, float]:
    """Drain ``TraceService.handle_trace`` in process, no socket:
    (µs per fresh request, µs per cache hit).

    ``payloads`` must fit the cache; each fresh pass runs on a new
    service (empty cache), the hit passes reuse the last, filled one."""
    async def drain(service: TraceService) -> None:
        for payload in payloads:
            async for _ in service.handle_trace(dict(payload)):
                pass

    state: Dict[str, TraceService] = {}

    def fresh_pass() -> None:
        state["service"] = TraceService(engine, cache_size=cache_size)
        asyncio.run(drain(state["service"]))

    def hit_pass() -> None:
        asyncio.run(drain(state["service"]))

    fresh = per_item_ns(fresh_pass, len(payloads), min_seconds) / 1e3
    hit = per_item_ns(hit_pass, len(payloads), min_seconds) / 1e3
    return fresh, hit
