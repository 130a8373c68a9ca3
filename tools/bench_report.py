#!/usr/bin/env python
"""Raw probe-throughput benchmark: cached vs. uncached simulator fast path.

Replays a FlashRoute-shaped probe stream — per destination, one TTL-32
preprobe, the backward walk 16..1, and a short forward walk — straight into
``SimulatedNetwork``, measuring CPU-time probes-per-second three ways:

* ``uncached``:   scalar ``send_probe`` with ``use_route_cache=False``
                  (the pre-cache baseline);
* ``cached``:     scalar ``send_probe`` on the route-cache fast path;
* ``batched``:    ``send_probes`` in ring-walk-sized bursts on the fast
                  path (what the engines actually do).

All three paths answer the stream identically (asserted via response
counts); only the time differs.  Timing uses ``time.process_time`` (CPU
seconds) with the repetitions of all passes *interleaved* and best-of
reported — on a shared/throttled box, wall-clock and even sequential CPU
measurements drift with load and frequency scaling, while interleaved
minima sample every pass in the same speed windows.  The report lands in
``BENCH_probe_throughput.json`` at the repo root — the perf trajectory's
headline number.

Usage: python tools/bench_report.py [num_prefixes] [seed]
       (defaults: REPRO_BENCH_PREFIXES or 4096, REPRO_BENCH_SEED)
"""

from __future__ import annotations

import gc
import io
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Tuple

if __package__ in (None, ""):  # allow "python tools/bench_report.py"
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import bench_prefix_count, bench_seed, \
    bench_topology
from repro.net.checksum import flow_source_port
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology

REPORT_NAME = "BENCH_probe_throughput.json"

#: Virtual pacing of the replayed stream (the paper's probing rate).
_VIRTUAL_PPS = 100_000.0
#: Probes per ``send_probes`` burst in the batched pass (a ring-walk step
#: sends 1-2 probes; preprobing and Yarrp chunk larger, so use a middle
#: ground that exercises the per-burst amortization).
_BATCH = 16
#: Interleaved timing repetitions; best-of is reported to shave scheduler
#: and CPU-frequency noise.
_REPEATS = 9

#: Worker counts of the sharded-scan scaling curve.
_SCALING_WORKERS = (1, 2, 4, 8)
#: Tool the scaling curve runs (a full engine scan, not a replayed
#: stream — worker startup and merge costs are part of the measurement).
_SCALING_TOOL = "flashroute-16"
#: Best-of repetitions per scaling point.
_SCALING_REPEATS = 3

#: Worker count and virtual heartbeat interval of the heartbeat-overhead
#: benchmark (scan --shards N --progress).
_HEARTBEAT_SHARDS = 4
_HEARTBEAT_INTERVAL = 0.5
#: Best-of repetitions per heartbeat mode.
_HEARTBEAT_REPEATS = 3


def flashroute_stream(topology: Topology
                      ) -> List[Tuple[int, int, float, int, int, int]]:
    """A FlashRoute-16-shaped probe stream over every scanned /24.

    Per destination: preprobe at TTL 32, backward 16..1, forward 17..21 —
    ~22 probes with the per-destination locality a real ring walk has,
    paced at the virtual 100 Kpps.  Tuples are preserialized so the timed
    loops measure the network, not the generator.
    """
    gap = 1.0 / _VIRTUAL_PPS
    now = 0.0
    probes = []
    for prefix in topology.scanned_prefixes():
        dst = (prefix << 8) | 0x1D
        src_port = flow_source_port(dst, 0)
        for ttl in [32, *range(16, 0, -1), *range(17, 22)]:
            probes.append((dst, ttl, now, src_port, 0, 8))
            now += gap
    return probes


def _time_scalar(network: SimulatedNetwork, probes) -> Tuple[float, int]:
    send = network.send_probe
    responses = 0
    start = time.process_time()
    for dst, ttl, send_time, src_port, ipid, udp_length in probes:
        if send(dst, ttl, send_time, src_port, ipid=ipid,
                udp_length=udp_length) is not None:
            responses += 1
    return time.process_time() - start, responses


def _time_batched(network: SimulatedNetwork, probes) -> Tuple[float, int]:
    send_many = network.send_probes
    responses = 0
    start = time.process_time()
    for begin in range(0, len(probes), _BATCH):
        for response in send_many(probes[begin:begin + _BATCH]):
            if response is not None:
                responses += 1
    return time.process_time() - start, responses


def run_benchmark(num_prefixes: int = None, seed: int = None) -> Dict:
    topology = bench_topology(num_prefixes, seed)
    probes = flashroute_stream(topology)

    passes = [
        ("uncached", False, _time_scalar),
        ("cached", True, _time_scalar),
        ("batched", True, _time_batched),
    ]
    best: Dict[str, float] = {}
    response_counts = set()
    cache_stats = None
    for _ in range(_REPEATS):
        # Interleave the passes within each repetition so every pass
        # samples the same machine-speed windows (see module docstring).
        for label, use_cache, timer in passes:
            network = SimulatedNetwork(topology, use_route_cache=use_cache)
            # Keep cyclic-GC pauses out of the timed window (the passes
            # allocate ~100K response objects each; a gen-2 collection
            # landing mid-pass skews a single measurement by several ms).
            gc.collect()
            gc.disable()
            try:
                elapsed, responses = timer(network, probes)
            finally:
                gc.enable()
            if label not in best or elapsed < best[label]:
                best[label] = elapsed
            response_counts.add(responses)
            if use_cache:
                cache_stats = network.route_cache.stats()
    measured = {label: {"seconds": round(best[label], 4),
                        "pps": round(len(probes) / best[label])}
                for label, _, _ in passes}
    if len(response_counts) != 1:
        raise AssertionError(
            f"paths disagreed on response counts: {response_counts}")

    uncached_pps = measured["uncached"]["pps"]
    report = {
        "benchmark": "probe_throughput",
        "topology": {"num_prefixes": topology.num_prefixes,
                     "seed": topology.config.seed},
        "probes": len(probes),
        "responses": response_counts.pop(),
        "passes": measured,
        "speedup": {
            "cached_vs_uncached": round(
                measured["cached"]["pps"] / uncached_pps, 2),
            "batched_vs_uncached": round(
                measured["batched"]["pps"] / uncached_pps, 2),
        },
        "route_cache": cache_stats,
    }
    return report


def _aggregate_pps(slice_stats) -> float:
    """Sum of per-worker CPU-time probing rates from ``slice_stats``."""
    per_worker: Dict[int, Dict[str, float]] = {}
    for entry in slice_stats:
        bucket = per_worker.setdefault(
            entry["pid"], {"probes": 0, "cpu": 0.0})
        bucket["probes"] += entry["probes"]
        bucket["cpu"] += entry["cpu_seconds"]
    return sum(bucket["probes"] / bucket["cpu"]
               for bucket in per_worker.values()
               if bucket["cpu"] > 0)


def run_scaling_benchmark(num_prefixes: int = None, seed: int = None,
                          workers: Tuple[int, ...] = _SCALING_WORKERS
                          ) -> Dict:
    """Sharded full-engine scans at 1/2/4/8 workers (the ``scan --shards``
    path, see repro.core.sharding).

    Two throughputs are reported per point:

    * ``aggregate_pps`` — the sum of each worker's CPU-time probing rate
      (its probes over the CPU seconds its slices took inside that
      process).  This is the machine-independent software-scaling
      measure: it shows the keyspace partitions without per-worker
      overhead regardless of how many cores the benchmark box can
      actually grant the workers.
    * ``wall_pps`` — merged probes over wall-clock seconds, which tracks
      ``aggregate_pps`` only when enough idle cores exist.

    ``speedup`` and parallel ``efficiency`` derive from the aggregate;
    best-of ``_SCALING_REPEATS`` per point, same noise rationale as the
    stream benchmark.
    """
    from repro.api import ScanRequest
    from repro.core.sharding import ShardPlan, run_sharded_scan

    topology = bench_topology(num_prefixes, seed)
    points: Dict[str, Dict] = {}
    base_aggregate = None
    probes = None
    for count in workers:
        plan = ShardPlan(ScanRequest(
            tool=_SCALING_TOOL, prefixes=topology.num_prefixes,
            seed=topology.config.seed, shards=count,
            shard_slices=max(16, count)))
        best_wall = None
        best_aggregate = None
        for _ in range(_SCALING_REPEATS):
            gc.collect()
            begin = time.perf_counter()
            outcome = run_sharded_scan(plan, topology=topology)
            wall = time.perf_counter() - begin
            aggregate = _aggregate_pps(outcome.slice_stats)
            probes = outcome.result.probes_sent
            if best_wall is None or wall < best_wall:
                best_wall = wall
            if best_aggregate is None or aggregate > best_aggregate:
                best_aggregate = aggregate
        if base_aggregate is None:
            base_aggregate = best_aggregate
        speedup = best_aggregate / base_aggregate
        points[str(count)] = {
            "wall_seconds": round(best_wall, 3),
            "wall_pps": round(probes / best_wall),
            "aggregate_pps": round(best_aggregate),
            "speedup": round(speedup, 2),
            "efficiency": round(speedup / count, 2),
        }
    report = {
        "tool": _SCALING_TOOL,
        "topology": {"num_prefixes": topology.num_prefixes,
                     "seed": topology.config.seed},
        "probes_per_scan": probes,
        "workers": points,
        "note": ("aggregate_pps sums per-worker CPU-time probing rates "
                 "(software scaling, core-count independent); wall_pps "
                 "tracks it only with enough idle cores"),
    }
    four = points.get("4")
    if four is not None:
        report["speedup_4v1"] = four["speedup"]
    return report


def run_heartbeat_benchmark(num_prefixes: int = None,
                            seed: int = None) -> Dict:
    """Worker heartbeat streaming overhead on the sharded path.

    Runs the same ``--shards 4`` scan with heartbeats off (the telemetry
    default) and on (``--progress``-style: each worker streams throttled
    heartbeat records to the parent over a multiprocessing queue, and
    the parent aggregates them into a progress view).  The measure is
    ``aggregate_pps`` — per-worker CPU-time probing rates — so only the
    worker-side cost of building and enqueueing heartbeats counts, and
    the acceptance bar is ``overhead <= 1.15`` (heartbeat-on throughput
    within 15% of heartbeat-off).  Interleaved best-of, as everywhere.
    """
    from repro.api import ScanRequest
    from repro.core.sharding import ShardPlan, run_sharded_scan
    from repro.obs.shardobs import ShardProgressView

    topology = bench_topology(num_prefixes, seed)
    modes = {"heartbeat_off": None, "heartbeat_on": _HEARTBEAT_INTERVAL}
    best: Dict[str, float] = {}
    probes = None
    for _ in range(_HEARTBEAT_REPEATS):
        for label, interval in modes.items():
            request = ScanRequest(
                tool=_SCALING_TOOL, prefixes=topology.num_prefixes,
                seed=topology.config.seed, shards=_HEARTBEAT_SHARDS)
            plan = ShardPlan(request, heartbeat_interval=interval)
            progress = None
            if interval is not None:
                progress = ShardProgressView(
                    slices=request.shard_slices, workers=request.shards,
                    interval=3600.0, stream=io.StringIO())
            gc.collect()
            outcome = run_sharded_scan(plan, topology=topology,
                                       progress=progress)
            probes = outcome.result.probes_sent
            aggregate = _aggregate_pps(outcome.slice_stats)
            if label not in best or aggregate > best[label]:
                best[label] = aggregate
    overhead = best["heartbeat_off"] / best["heartbeat_on"]
    return {
        "shards": _HEARTBEAT_SHARDS,
        "heartbeat_interval_virtual_s": _HEARTBEAT_INTERVAL,
        "probes_per_scan": probes,
        "heartbeat_off_pps": round(best["heartbeat_off"]),
        "heartbeat_on_pps": round(best["heartbeat_on"]),
        "overhead": round(overhead, 3),
        "criterion": "overhead <= 1.15",
    }


def render_scaling(scaling: Dict) -> str:
    """The scaling section as the paper-style text table."""
    lines = [f"sharded scaling — {scaling['tool']} @ "
             f"{scaling['topology']['num_prefixes']} prefixes "
             f"({scaling['probes_per_scan']:,} probes/scan)",
             "workers  aggregate_pps  speedup  efficiency  wall_s"]
    for count in sorted(scaling["workers"], key=int):
        point = scaling["workers"][count]
        lines.append(f"{count:>7}  {point['aggregate_pps']:>13,}  "
                     f"{point['speedup']:>7.2f}  "
                     f"{point['efficiency']:>10.2f}  "
                     f"{point['wall_seconds']:>6.3f}")
    return "\n".join(lines)


def write_report(report: Dict, root: pathlib.Path = None) -> pathlib.Path:
    if root is None:
        root = pathlib.Path(__file__).resolve().parent.parent
    path = root / REPORT_NAME
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main() -> int:
    num_prefixes = (int(sys.argv[1]) if len(sys.argv) > 1
                    else bench_prefix_count())
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else bench_seed()
    report = run_benchmark(num_prefixes, seed)
    report["scaling"] = run_scaling_benchmark(num_prefixes, seed)
    report["heartbeat_overhead"] = run_heartbeat_benchmark(num_prefixes,
                                                           seed)
    path = write_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(render_scaling(report["scaling"]))
    print(f"saved: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
