"""What the benchmark measures: workload sizes, metric catalogue, and the
small statistics every workload reports with.

``BENCHMARK.json`` at the repository root is the contract (names, units,
directions, bounds); it cannot carry more than that, so the parts the
contract has no key for live here: the size of each workload, which
end-to-end metrics are exact counts, and — written down before the first
measurement — which end-to-end metric on which workload each per-layer
metric is expected to move.  ``bench/test_bench.py`` holds the two in
step.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

#: Seed of the paper's publication date, the default everywhere else in
#: the repository too.
DEFAULT_SEED = 20201027

#: The serve workloads' input is the request stream, so their seed draws
#: the keys; the daemon's topology is always this one.  (A scan's input
#: *is* the topology, so there the seed builds it.)  Response size — and
#: with it request latency — follows the topology's route lengths, which
#: differ by several percent from one topology to the next.
SERVE_TOPOLOGY_SEED = DEFAULT_SEED

#: Requests slower than this miss the (fixed) latency limit.
LATENCY_LIMIT_MS = 50.0

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: A generator busier than this share of one core is the bottleneck of a
#: serve workload, not the daemon; the run is labelled ``generator_bound``.
GENERATOR_BOUND_SHARE = 0.95


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


# --------------------------------------------------------------------- #
# Workload sizes
# --------------------------------------------------------------------- #

#: Sized for a 2-core host: at most two busy processes at once (scan
#: parent + nothing, two shard workers, or generator + daemon), and a
#: whole run — five set-ups, one discarded warm-up repeat, the measured
#: repeats and the output checks — inside ~22 s at ``run_seconds`` = 10.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "scan_fr16": {"kind": "scan", "tool": "flashroute-16",
                  "prefixes": 16384, "min_repeats": 3},
    "scan_yarrp32": {"kind": "scan", "tool": "yarrp-32",
                     "prefixes": 16384, "min_repeats": 3},
    "scan_fr16_sharded": {"kind": "scan", "tool": "flashroute-16",
                          "prefixes": 16384, "shards": 2, "slices": 16,
                          "min_repeats": 3},
    # One repeat is one burst of `burst` requests, closed loop over
    # `clients` persistent connections driven by one generator thread.
    "serve_fresh": {"kind": "serve", "mode": "fresh", "prefixes": 4096,
                    "cache_size": 1024, "clients": 2, "burst": 2000,
                    "min_repeats": 3},
    "serve_hit": {"kind": "serve", "mode": "hit", "prefixes": 4096,
                  "cache_size": 1024, "clients": 2, "burst": 4000,
                  "working_set": 256, "min_repeats": 3},
}

#: ``--smoke``: the same code paths at a size the self-tests can afford.
SMOKE = {"prefixes": 256, "min_repeats": 1, "burst": 200}


def workload_params(name: str, smoke: bool = False) -> Dict[str, object]:
    params = dict(WORKLOADS[name])
    if smoke:
        params.update(SMOKE)
    return params


def untraced_budget(params: Dict[str, object], seconds: float,
                    trace: bool) -> Tuple[float, int]:
    """(seconds of untraced repeats, fewest of them) for one pass.  A
    traced pass spends half its time on the untraced repeats it needs as
    the base of the overhead ratio, the rest on the traced one."""
    if trace:
        return seconds / 2, min(params["min_repeats"], 2)
    return seconds, params["min_repeats"]


def micro_seconds(smoke: bool) -> float:
    """Shortest timed loop of a micro-benchmark."""
    return 0.02 if smoke else 0.2


# --------------------------------------------------------------------- #
# Metric catalogue
# --------------------------------------------------------------------- #

#: End-to-end metrics that are pure functions of the seed.  The driver's
#: bound on them is loose because it compares runs of *different* seeds;
#: ``compare.py`` holds two runs of the same seed to exact equality.
EXACT = ("probes_sent", "interface_coverage")

#: metric -> (layer, the end-to-end metric and workload it should move).
#: Written before the first baseline was taken; a later change that
#: speeds a layer up is judged against the line here, not against a
#: story told afterwards.
PREDICTIONS: Dict[str, Tuple[str, str]] = {
    "bench.traced_wall_s": (
        "bench", "none: the traced repeat's wall, base of every share"),
    "bench.trace_overhead_ratio": (
        "bench", "none: the harness's own cost, must stay <= 1.15"),
    "simnet.topology_build_s": (
        "simnet", "setup_s on every scan_* workload"),
    "simnet.busy_s": (
        "simnet", "op_p50_ms on scan_yarrp32 first, scan_fr16 second; "
                  "none on serve_hit"),
    "simnet.calls": ("simnet", "op_p50_ms on scan_fr16 (1.4 probes/call)"),
    "simnet.probes": ("simnet", "probes_sent, same workload"),
    "simnet.responses": ("simnet", "interface_coverage, same workload"),
    "simnet.ns_per_probe": (
        "simnet", "throughput_per_s on scan_yarrp32 first, scan_fr16 "
                  "second"),
    "simnet.batch_mean": (
        "simnet", "op_p50_ms on scan_fr16 if the ring walk batches more"),
    "simnet.cache_hit_ratio": (
        "simnet", "op_p50_ms on scan_* (cold table builds per scan)"),
    "simnet.cache_tables": ("simnet", "peak_rss_mb on scan_*"),
    "simnet.warm_replay_ns_per_probe": (
        "simnet", "op_p50_ms on both unsharded scans and on serve_fresh; "
                  "ns_per_probe minus this is cold table building"),
    "simnet.engine.queue_ns_per_response": (
        "simnet.engine", "op_p50_ms on scan_fr16"),
    "core.encoding.encode_ns_per_probe": (
        "core.encoding", "op_p50_ms on scan_yarrp32 (most probes), then "
                         "scan_fr16"),
    "core.encoding.decode_ns_per_response": (
        "core.encoding", "op_p50_ms on scan_yarrp32, then scan_fr16"),
    "core.encoding.share": (
        "core.encoding", "the ceiling of any encoding gain on that "
                         "workload's op_p50_ms"),
    "core.dcb.build_s": (
        "core.dcb", "op_p50_ms on scan_fr16 and, 16 times over, on "
                    "scan_fr16_sharded; no change on scan_yarrp32"),
    "core.dcb.ring_pass_ns_per_dcb": (
        "core.dcb", "op_p50_ms on scan_fr16 and scan_fr16_sharded; no "
                    "change on scan_yarrp32"),
    "core.prober.self_s": (
        "core.prober", "op_p50_ms and throughput_per_s on scan_fr16 and "
                       "scan_fr16_sharded"),
    "core.prober.self_ns_per_probe": (
        "core.prober", "throughput_per_s on scan_fr16"),
    "core.prober.rounds": (
        "core.prober", "none end to end: the virtual scan time recorded "
                       "beside the metrics follows it"),
    "baselines.yarrp.self_s": (
        "baselines.yarrp", "op_p50_ms on scan_yarrp32 only"),
    "baselines.yarrp.self_ns_per_probe": (
        "baselines.yarrp", "throughput_per_s on scan_yarrp32 only"),
    "core.output.result_json_s": (
        "core.output", "nothing end to end today: baseline for a later "
                       "`scan --output` workload"),
    "core.output.result_bytes": ("core.output", "nothing end to end today"),
    "obs.metrics_on_ratio": (
        "obs", "op_p50_ms on scan_fr16 when telemetry hooks change"),
    "core.sharding.build_slice_targets_s": (
        "core.sharding", "op_p50_ms on scan_fr16_sharded only"),
    "core.sharding.slice_cpu_s": (
        "core.sharding", "throughput_per_s on scan_fr16_sharded only"),
    "core.sharding.critical_path_s": (
        "core.sharding", "op_p50_ms on scan_fr16_sharded: the slowest "
                         "worker sets the wall time"),
    "core.sharding.parent_overhead_s": (
        "core.sharding", "op_p50_ms on scan_fr16_sharded (pool start, "
                         "pickled return, merge)"),
    "core.sharding.imbalance": (
        "core.sharding", "op_p50_ms on scan_fr16_sharded; imbalance x "
                         "critical_path_s is the number to watch as "
                         "workers are added"),
    "core.sharding.slices_retried": (
        "core.sharding", "none: must stay 0 on a clean run"),
    "core.sharding.worker_peak_rss_mb": (
        "core.sharding", "none: peak_rss_mb covers the parent only"),
    "core.sharding.extra_probe_ratio": (
        "core.sharding", "probes_sent on scan_fr16_sharded (wasted work "
                         "from per-slice stop sets)"),
    "api.engine_build_s": ("api", "setup_s on every scan_* workload"),
    "api.open_session_us": ("api", "op_p50_ms on serve_fresh"),
    "api.trace_us": (
        "api", "op_p50_ms and throughput_per_s on serve_fresh; no change "
               "on serve_hit"),
    "api.trace_probes_mean": ("api", "probes_sent on serve_fresh"),
    "service.daemon.handle_fresh_us": (
        "service.daemon", "op_p50_ms on serve_fresh"),
    "service.daemon.handle_hit_us": (
        "service.daemon", "op_p50_ms on serve_hit"),
    "service.daemon.cache_hits": (
        "service.daemon", "none: exact, a change is a behaviour change"),
    "service.daemon.traces_started": (
        "service.daemon", "none: exact, a change is a behaviour change"),
    "service.daemon.evicted_lru": (
        "service.daemon", "none: exact, a change is a behaviour change"),
    "service.daemon.evicted_epoch": (
        "service.daemon", "none: exact, a change is a behaviour change"),
    "service.daemon.errors": ("service.daemon", "none: must stay 0"),
    "service.daemon.shed": ("service.daemon", "none: must stay 0"),
    "service.client.ping_us": (
        "service.client", "op_p50_ms on serve_hit: the transport floor"),
    "service.client.transport_us": (
        "service.client", "op_p50_ms and throughput_per_s on serve_hit, "
                          "where it is nearly all of the latency"),
    "service.client.req_p99_ms": (
        "service.client", "none bounded: tail latency of serve_*, too "
                          "noisy on a shared host to carry a bound"),
    "service.client.over_limit_share": (
        "service.client", "none: must stay 0 on serve_*"),
    "service.client.gen_cpu_share": (
        "service.client", "none: near 1.0 the generator, not the daemon, "
                          "is the bottleneck"),
}


# --------------------------------------------------------------------- #
# Statistics and accounting
# --------------------------------------------------------------------- #

def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile of the samples of one run (inclusive
    method: a handful of repeats is the whole population, and the
    exclusive method would extrapolate beyond them); a single value is
    its own."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, third


def percentile(values: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent`` % of the samples at or below it.  With fewer than 100
    samples the 99th percentile is therefore the slowest one."""
    ordered = sorted(values)
    rank = -(-len(ordered) * percent // 100)  # integer ceiling
    return ordered[max(0, rank - 1)]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, count and raw values of one metric's samples."""
    first, third = quartiles(values)
    return {"median": statistics.median(values), "q1": first, "q3": third,
            "n": len(values), "values": list(values)}


class Tally:
    """Operations attempted and failed; a failed one also misses every
    latency limit, so ``fail_share`` above 0 fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, failure: Optional[str] = None) -> None:
        """Count one operation; ``failure`` says why it failed, ``None``
        that it did not."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(failure)

    def fail_all(self, reason: str) -> None:
        """A run that stopped exercising the path it is named for cannot
        report a number: every operation counts as failed."""
        self.failed = max(self.attempted, 1)
        self.attempted = max(self.attempted, 1)
        self.reasons.insert(0, reason)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
