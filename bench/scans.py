"""The scan workloads: ``scan_fr16``, ``scan_yarrp32``, ``scan_fr16_sharded``.

One run = five set-ups (``Topology`` + ``Engine``), one discarded
warm-up repeat, then measured repeats until ``--seconds`` of scanning
have gone by.  Every repeat is the same scan on a ``Topology`` built
once — but on a fresh ``Engine``, so the route cache is cold, as it is
for ``scan`` on the command line.  With tracing on, the warm-up captures
the probe stream, one more repeat runs behind the timing proxy, and the
micro-benchmarks replay the captured stream.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from itertools import chain
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.api import Engine, ScanRequest
from repro.core.output import result_to_dict
from repro.core.results import ScanResult
from repro.core.sharding import (ShardPlan, build_slice_targets,
                                 run_sharded_scan)
from repro.obs.telemetry import Telemetry
from repro.simnet.config import TopologyConfig
from repro.simnet.topology import Topology

from . import micro
from .proxy import TimingNetwork
from .spans import SpanRecorder
from .spec import (OUT_DIR, SETUPS, Tally, micro_seconds, summary,
                   untraced_budget)

#: Probes of the traced repeat kept for the micro-benchmarks to replay.
KEEP_PROBES = 65536


def build(prefixes: int, seed: int) -> Tuple[Topology, float, float]:
    """One set-up: (topology, topology seconds, engine seconds)."""
    start = perf_counter()
    topology = Topology(TopologyConfig(num_prefixes=prefixes, seed=seed))
    built = perf_counter()
    Engine(topology=topology)
    return topology, built - start, perf_counter() - built


def digest(result: ScanResult) -> str:
    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def real_interfaces(topology: Topology, tool: str) -> Set[int]:
    """Addresses of every interface the tool's probes could reveal."""
    udp = not tool.startswith("yarrp")  # Yarrp sends Paris TCP-ACK
    return {topology.iface_addrs[iface]
            for iface in topology.reachable_interfaces(udp=udp)}


def check_result(result: ScanResult, reference: str,
                 reachable: Set[int]) -> Optional[str]:
    """Why this repeat's output is wrong, or ``None`` when it is right:
    it must equal the first repeat's byte for byte, and every interface
    it reports must exist in the topology it scanned."""
    if digest(result) != reference:
        return "result digest differs from the first repeat's"
    stray = result.interfaces() - reachable
    if stray:
        return (f"{len(stray)} reported interface(s) are not in "
                f"Topology.reachable_interfaces()")
    return None


class Scan:
    """A workload's fixed inputs, and one repeat of it."""

    def __init__(self, name: str, params: Dict[str, object], seed: int,
                 topology: Topology) -> None:
        self.name = name
        self.topology = topology
        self.sharded = "shards" in params
        self.request = ScanRequest(
            tool=params["tool"], prefixes=params["prefixes"], seed=seed,
            shards=params.get("shards"),
            shard_slices=params.get("slices", 16))
        self.plan = (ShardPlan.from_request(self.request)
                     if self.sharded else None)
        #: Layer that owns the run() span's self time.
        self.engine_layer = ("baselines.yarrp"
                             if params["tool"].startswith("yarrp")
                             else "core.prober")

    def once(self, telemetry: Optional[Telemetry] = None
             ) -> Tuple[ScanResult, float]:
        """One untraced repeat: (result, wall seconds of the scan)."""
        gc.collect()
        if self.sharded:
            start = perf_counter()
            result = run_sharded_scan(self.plan,
                                      topology=self.topology).result
            return result, perf_counter() - start
        session = Engine(topology=self.topology).open_session(
            self.request, telemetry=telemetry)
        start = perf_counter()
        result = session.run()
        return result, perf_counter() - start

    def capture(self) -> Tuple[ScanResult, List[tuple], int]:
        """One unsharded repeat that keeps the first ``KEEP_PROBES``
        probes the engine emits: (result, probe stream, protocol).

        Kept apart from the timed repeats on purpose: holding ~10^5 live
        containers while the scan allocates changes what its collector
        costs (measured: +15 % on the scan), which is not a cost of the
        program."""
        gc.collect()
        session = Engine(topology=self.topology).open_session(self.request)
        proxy = session.network = TimingNetwork(session.network,
                                                keep_probes=KEEP_PROBES)
        result = session.run()
        stream = list(chain.from_iterable(proxy.batches))[:KEEP_PROBES]
        return result, stream, proxy.proto

    def traced(self, recorder: SpanRecorder, repeat: int) -> Dict[str, object]:
        """One repeat with spans around each call into a layer."""
        gc.collect()
        trace = f"{self.name}/r{repeat}"
        found: Dict[str, object] = {}
        with recorder.span("repeat", "bench", trace, repeat) as root:
            if self.sharded:
                with recorder.span("run_sharded_scan", "core.sharding",
                                   trace, repeat, root) as run_span:
                    outcome = run_sharded_scan(self.plan,
                                               topology=self.topology)
                found.update(outcome=outcome, result=outcome.result)
            else:
                with recorder.span("Engine + open_session", "api", trace,
                                   repeat, root):
                    engine = Engine(topology=self.topology)
                    session = engine.open_session(self.request)
                proxy = session.network = TimingNetwork(session.network)
                with recorder.span("ScanSession.run", self.engine_layer,
                                   trace, repeat, root) as run_span:
                    result = session.run()
                recorder.add_aggregate("SimulatedNetwork.send_probe(s)",
                                       "simnet", run_span, proxy.calls,
                                       proxy.busy_ns)
                found.update(engine=engine, proxy=proxy, result=result)
        found["run_span"] = run_span
        return found


def run(name: str, params: Dict[str, object], seed: int, seconds: float,
        trace: bool, smoke: bool) -> Dict[str, object]:
    tally = Tally()
    topology, topology_s, engine_s = build(params["prefixes"], seed)
    setups = [(topology_s, engine_s)]
    scan = Scan(name, params, seed, topology)
    reachable = real_interfaces(topology, params["tool"])

    # Warm-up, discarded; its output is the reference.  A traced pass
    # uses it to capture the probe stream its micro-benchmarks replay.
    stream: List[tuple] = []
    proto = 0
    if trace and not scan.sharded:
        result, stream, proto = scan.capture()
    else:
        result, _ = scan.once()
    reference = digest(result)

    budget, min_repeats = untraced_budget(params, seconds, trace)
    walls: List[float] = []
    while sum(walls) < budget or len(walls) < min_repeats:
        result, wall = scan.once()
        walls.append(wall)
        tally.record(check_result(result, reference, reachable))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    while len(setups) < SETUPS:
        setups.append(build(params["prefixes"], seed)[1:])
    setup_s = [sum(parts) for parts in setups]

    found = result.interfaces()
    probes = result.probes_sent
    rates = [probes / wall for wall in walls]
    outcome: Dict[str, object] = {
        "tally": tally,
        "labels": [],
        "parameters": {"repeats": len(walls), "warmup_repeats": 1,
                       "setups": len(setups)},
        "counts": {"virtual_scan_s": result.duration,
                   "interfaces_found": len(found),
                   "interfaces_reachable": len(reachable),
                   "digest": reference},
        # Keyed by the end-to-end metric each spread belongs to.
        "samples": {"setup_s": summary(setup_s),
                    "op_p50_ms": summary([wall * 1e3 for wall in walls]),
                    "throughput_per_s": summary(rates)},
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": statistics.median(walls) * 1e3,
            "throughput_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
            "probes_sent": probes,
            "interface_coverage": len(found) / len(reachable),
        },
    }
    if trace:
        outcome["metrics"].update(_per_layer(
            scan, seed, setups, walls, reference, reachable, tally, stream,
            proto, min_seconds=micro_seconds(smoke)))
    return outcome


def _per_layer(scan: Scan, seed: int, setups: List[Tuple[float, float]],
               walls: List[float], reference: str, reachable: Set[int],
               tally: Tally, stream: List[tuple], proto: int,
               min_seconds: float) -> Dict[str, float]:
    """The traced repeat and the micro-benchmarks it feeds."""
    recorder = SpanRecorder(scan.name)
    repeat = len(walls) + 1
    found = scan.traced(recorder, repeat)
    result: ScanResult = found["result"]
    # The traced repeat's output must equal the untraced one's.
    tally.record(check_result(result, reference, reachable))

    run_span = found["run_span"]
    traced_wall_s = recorder.duration_ns(run_span) / 1e9
    untraced_s = statistics.median(walls)
    probes = result.probes_sent
    metrics = {
        "bench.traced_wall_s": traced_wall_s,
        "bench.trace_overhead_ratio": traced_wall_s / untraced_s,
        "simnet.topology_build_s": statistics.median(
            parts[0] for parts in setups),
        "api.engine_build_s": statistics.median(
            parts[1] for parts in setups),
        "core.prober.rounds": (result.rounds
                               if scan.engine_layer == "core.prober" else 0),
    }
    metrics["core.output.result_json_s"], \
        metrics["core.output.result_bytes"] = micro.output(result)

    if scan.engine_layer == "core.prober":
        metrics["core.dcb.build_s"], \
            metrics["core.dcb.ring_pass_ns_per_dcb"] = micro.dcb(
                list(result.targets.values()), seed, min_seconds)

    if scan.sharded:
        cache = found["outcome"].simnet_stats["route_cache"]
        metrics["simnet.probes"] = \
            found["outcome"].simnet_stats["probes_sent"]
        metrics["simnet.responses"] = \
            found["outcome"].simnet_stats["responses_generated"]
        metrics.update(_sharding(scan, found["outcome"], traced_wall_s,
                                 recorder, run_span))
    else:
        proxy: TimingNetwork = found["proxy"]
        cache = proxy.stats()["route_cache"]
        self_s = recorder.self_ns(run_span) / 1e9
        metrics.update({
            "simnet.busy_s": proxy.busy_ns / 1e9,
            "simnet.calls": proxy.calls,
            "simnet.probes": proxy.probes,
            "simnet.responses": proxy.responses,
            "simnet.ns_per_probe": proxy.busy_ns / proxy.probes,
            "simnet.batch_mean": proxy.probes / proxy.calls,
            f"{scan.engine_layer}.self_s": self_s,
            f"{scan.engine_layer}.self_ns_per_probe": self_s * 1e9 / probes,
        })
        warm_ns, responses = micro.warm_replay(
            found["engine"], stream, proto, min_seconds)
        encode_ns, decode_ns = micro.encoding(stream, responses,
                                              min_seconds)
        metrics.update({
            "simnet.warm_replay_ns_per_probe": warm_ns,
            "simnet.engine.queue_ns_per_response": micro.response_queue(
                responses, min_seconds),
            "core.encoding.encode_ns_per_probe": encode_ns,
            "core.encoding.decode_ns_per_response": decode_ns,
            "core.encoding.share": (
                (encode_ns * probes + decode_ns * proxy.responses)
                / 1e9 / traced_wall_s),
        })
        if scan.engine_layer == "core.prober":
            # What the scan costs with a metrics registry attached.
            _, wall = scan.once(telemetry=Telemetry())
            metrics["obs.metrics_on_ratio"] = wall / untraced_s
    metrics["simnet.cache_hit_ratio"] = \
        cache["hits"] / max(cache["hits"] + cache["misses"], 1)
    metrics["simnet.cache_tables"] = \
        cache["udp_tables"] + cache["tcp_tables"]

    recorder.write(OUT_DIR / f"trace-{scan.name}.jsonl")
    return metrics


def _sharding(scan: Scan, outcome, traced_wall_s: float,
              recorder: SpanRecorder, run_span: int) -> Dict[str, float]:
    """core.sharding's numbers, from ``ShardedOutcome.slice_stats``."""
    per_worker: Dict[int, float] = {}
    slices: Dict[int, int] = {}
    for entry in outcome.slice_stats:
        pid = entry["pid"]
        per_worker[pid] = per_worker.get(pid, 0.0) + entry["wall_seconds"]
        slices[pid] = slices.get(pid, 0) + 1
    for pid in sorted(per_worker):
        recorder.add_aggregate(f"worker {pid}: slices", "core.prober",
                               run_span, slices[pid],
                               int(per_worker[pid] * 1e9))
    critical_path_s = max(per_worker.values())

    start = perf_counter()
    build_slice_targets(scan.topology, scan.plan)
    slice_targets_s = perf_counter() - start

    # The same scan unsharded: per-slice stop sets cannot share what
    # another slice found, so the sharded scan sends more probes.
    unsharded = Engine(topology=scan.topology).open_session(
        ScanRequest(tool=scan.request.tool,
                    prefixes=scan.request.prefixes,
                    seed=scan.request.seed)).run()
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "core.sharding.build_slice_targets_s": slice_targets_s,
        "core.sharding.slice_cpu_s": sum(
            entry["cpu_seconds"] for entry in outcome.slice_stats),
        "core.sharding.critical_path_s": critical_path_s,
        "core.sharding.parent_overhead_s": traced_wall_s - critical_path_s,
        "core.sharding.imbalance": (
            critical_path_s * len(per_worker) / sum(per_worker.values())),
        "core.sharding.slices_retried": outcome.slices_retried,
        "core.sharding.worker_peak_rss_mb": workers_kib / 1024,
        "core.sharding.extra_probe_ratio": (
            outcome.result.probes_sent / unsharded.probes_sent),
    }
