"""Load-test harness for the scan daemon.

Boots a real daemon on a loopback socket, fires a burst of concurrent
clients at it (each on its own connection), and reports wall-clock
latency percentiles plus the service's own counters — the numbers
``BENCH_service_latency.json`` and the CI ``service-smoke`` job pin.

The request mix cycles over a bounded set of ``(destination, flow)``
keys, smaller than the client count, so the burst exercises all three
serving paths: fresh traces, mid-flight coalescing, and cache hits.

The resilience knobs (``max_inflight``/``max_queued``,
``default_deadline_ms``, ``chaos``) turn the same harness into the
overload/chaos drill behind ``BENCH_service_resilience.json``: shed
and deadlined requests are classified by the structured ``code`` on
their error records, and ``latency_ms_admitted`` isolates the latency
of the requests the daemon actually served.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from ..api import Engine, ScanRequest
from ..net.addr import int_to_ip
from .client import trace_stream
from .daemon import DEFAULT_CACHE_SIZE, start_service
from .obs import ServiceTelemetry, latency_summary, percentile

__all__ = ["build_payloads", "percentile", "run_loadtest"]

#: Outcome labels of the per-outcome latency breakdown.  The wire's
#: ``cache: miss`` terminal is a *fresh* trace — the breakdown reports
#: it under that name so a tail regression in fresh traces can't hide
#: behind the (much larger, much faster) cache-hit population.
_OUTCOME_LABELS = {"miss": "fresh", "hit": "hit",
                   "coalesced": "coalesced"}

#: Structured error codes → report outcomes.  Anything without a
#: recognized code stays a plain ``error``.
_ERROR_CODE_LABELS = {"overloaded": "shed", "draining": "shed",
                      "deadline_exceeded": "deadline"}


def build_payloads(engine: Engine, clients: int, keys: int,
                   flows: int) -> List[Dict[str, object]]:
    """A deterministic request mix: ``clients`` requests cycling over
    ``keys`` distinct ``(destination, flow)`` identities spread across
    the engine's prefixes."""
    if keys < 1:
        raise ValueError("keys must be >= 1")
    base = engine.topology.base_prefix
    num = engine.topology.num_prefixes
    payloads = []
    for index in range(clients):
        key = index % keys
        prefix = base + (key * 7919) % num
        destination = (prefix << 8) + 1 + (key % 200)
        payloads.append({"destination": int_to_ip(destination),
                         "flow": key % max(1, flows),
                         "id": index})
    return payloads


async def _run(prefixes: int, seed: int, clients: int, keys: int,
               flows: int, cache_size: int, concurrency: Optional[int],
               telemetry: bool,
               max_inflight: Optional[int] = None,
               max_queued: int = 0,
               default_deadline_ms: Optional[float] = None,
               deadline_ms: Optional[float] = None,
               chaos=None) -> Dict[str, object]:
    engine = Engine.from_request(ScanRequest(prefixes=prefixes, seed=seed))
    bundle = ServiceTelemetry() if telemetry else None
    handle = await start_service(engine, host="127.0.0.1", port=0,
                                 cache_size=cache_size,
                                 telemetry=bundle,
                                 max_inflight=max_inflight,
                                 max_queued=max_queued,
                                 default_deadline_ms=default_deadline_ms)
    payloads = build_payloads(engine, clients, keys, flows)
    if deadline_ms is not None:
        for payload in payloads:
            payload["deadline_ms"] = deadline_ms
    # Warm half the key set sequentially (unmeasured) so the measured
    # burst exercises every serving path: warmed keys hit the cache,
    # cold keys trace fresh and coalesce their concurrent duplicates.
    warm = build_payloads(engine, (keys + 1) // 2, keys, flows)
    for payload in warm:
        await trace_stream(payload, host=handle.host, port=handle.port)
    gate = asyncio.Semaphore(concurrency) if concurrency else None
    latencies_ms: List[float] = []
    admitted_ms: List[float] = []
    by_outcome: Dict[str, List[float]] = {label: []
                                          for label in ("fresh", "hit",
                                                        "coalesced",
                                                        "shed",
                                                        "deadline")}
    outcomes = {"hit": 0, "miss": 0, "coalesced": 0, "error": 0,
                "shed": 0, "deadline": 0}
    client_exceptions = 0

    async def one_client(payload: Dict[str, object]) -> None:
        nonlocal client_exceptions
        if gate is not None:
            await gate.acquire()
        try:
            start = time.perf_counter()
            try:
                hops, final = await trace_stream(payload,
                                                 host=handle.host,
                                                 port=handle.port)
            except Exception:
                # Connection-level failure: the resilience drill pins
                # this at zero — overload must shed with structured
                # records, never by dropping connections.
                client_exceptions += 1
                return
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            latencies_ms.append(elapsed_ms)
            if final.get("type") == "done":
                outcomes[final["cache"]] += 1
                by_outcome[_OUTCOME_LABELS[final["cache"]]].append(
                    elapsed_ms)
                admitted_ms.append(elapsed_ms)
            else:
                label = _ERROR_CODE_LABELS.get(final.get("code"))
                if label is not None:
                    outcomes[label] += 1
                    by_outcome[label].append(elapsed_ms)
                else:
                    outcomes["error"] += 1
        finally:
            if gate is not None:
                gate.release()

    chaos_report = None
    wall_start = time.perf_counter()
    if chaos is not None and chaos.daemon_clients:
        from ..testing.chaos import run_daemon_chaos
        burst = asyncio.gather(*(one_client(payload)
                                 for payload in payloads))
        hostile = run_daemon_chaos(chaos, payloads, host=handle.host,
                                   port=handle.port)
        _, chaos_report = await asyncio.gather(burst, hostile)
    else:
        await asyncio.gather(*(one_client(payload)
                               for payload in payloads))
    wall_seconds = time.perf_counter() - wall_start
    # The daemon surviving the drill is part of the result: a live
    # control plane after the burst means no unhandled exception killed
    # the accept loop or the event loop.
    daemon_survived = True
    try:
        _, pong = await trace_stream({"control": "ping"},
                                     host=handle.host, port=handle.port,
                                     timeout=5.0)
        daemon_survived = pong.get("type") == "pong"
    except Exception:
        daemon_survived = False
    stats = handle.service.stats()
    await handle.drain()

    latencies_ms.sort()
    admitted_ms.sort()
    total = max(1, len(latencies_ms))
    report = {
        "clients": clients,
        "distinct_keys": keys,
        "concurrency": concurrency,
        "prefixes": prefixes,
        "seed": seed,
        "telemetry": telemetry,
        "wall_seconds": round(wall_seconds, 3),
        "requests_per_second": round(clients / wall_seconds, 1),
        "latency_ms": {
            "p50": round(percentile(latencies_ms, 0.50), 3),
            "p90": round(percentile(latencies_ms, 0.90), 3),
            "p99": round(percentile(latencies_ms, 0.99), 3),
            "max": round(latencies_ms[-1], 3) if latencies_ms else 0.0,
        },
        # Per-outcome percentiles: a tail regression in one serving
        # class (say, fresh traces) must be visible even when another
        # class (cache hits) dominates the aggregate distribution.
        "latency_ms_by_outcome": {
            label: latency_summary(values)
            for label, values in sorted(by_outcome.items()) if values},
        "outcomes": outcomes,
        "cache_hit_rate": round(outcomes["hit"] / total, 4),
        "coalesce_rate": round(outcomes["coalesced"] / total, 4),
        "service": stats,
    }
    if (max_inflight is not None or default_deadline_ms is not None
            or deadline_ms is not None or chaos is not None):
        # Resilience drill extras: admitted-only latency (the p99 the
        # acceptance bound compares against clean) plus survival.
        report["latency_ms_admitted"] = (latency_summary(admitted_ms)
                                         if admitted_ms else {"count": 0})
        report["admitted"] = len(admitted_ms)
        report["client_exceptions"] = client_exceptions
        report["daemon_survived"] = daemon_survived
        report["admission"] = {"max_inflight": max_inflight,
                               "max_queued": max_queued,
                               "default_deadline_ms": default_deadline_ms,
                               "deadline_ms": deadline_ms}
    if chaos is not None:
        report["chaos"] = {"spec": chaos.to_dict(),
                           "daemon": chaos_report}
    return report


def run_loadtest(prefixes: int = 256, seed: int = 20201027,
                 clients: int = 1000, keys: int = 64, flows: int = 4,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 concurrency: Optional[int] = None,
                 telemetry: bool = False,
                 max_inflight: Optional[int] = None,
                 max_queued: int = 0,
                 default_deadline_ms: Optional[float] = None,
                 deadline_ms: Optional[float] = None,
                 chaos=None) -> Dict[str, object]:
    """Run the burst and return the latency/counter report.

    ``concurrency=None`` opens every client connection at once (the
    full-burst mode the acceptance numbers use); an integer gates the
    burst through a semaphore for gentler environments.  ``telemetry``
    runs the daemon with the full observability bundle enabled — the
    overhead benchmark compares the two modes.

    The resilience knobs mirror :func:`repro.service.daemon.serve`:
    ``max_inflight``/``max_queued`` enable admission control (overflow
    requests come back as structured ``overloaded`` sheds, reported
    under the ``shed`` outcome), ``default_deadline_ms`` /
    ``deadline_ms`` bound request lifetimes (``deadline`` outcome), and
    ``chaos`` (a :class:`repro.testing.chaos.ChaosSpec`) runs hostile
    clients — slow-loris writers, mid-stream disconnects, resets,
    malformed floods — alongside the measured burst.
    """
    return asyncio.run(_run(prefixes, seed, clients, keys, flows,
                            cache_size, concurrency, telemetry,
                            max_inflight=max_inflight,
                            max_queued=max_queued,
                            default_deadline_ms=default_deadline_ms,
                            deadline_ms=deadline_ms, chaos=chaos))
