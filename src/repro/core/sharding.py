"""Sharded multi-worker scanning with a byte-stable merge.

The scan keyspace is cut into a **fixed number of logical slices**
(:data:`DEFAULT_SLICES`, independent of the worker count): the global
:class:`~repro.core.permutation.MultiplicativeCycle` over the prefix
domain assigns the ``k``-th emitted prefix to slice ``k % slices``
(exactly :meth:`~repro.core.permutation.MultiplicativeCycle.iter_shard`'s
stride-residue partition).  Each slice runs as an independent, fully
deterministic subscan — its own :class:`~repro.api.ScanSession` on a
fresh :class:`~repro.api.Engine` (fresh virtual clock, rate-limiter
bins, route cache and fault counters) over the *shared read-only*
:class:`~repro.simnet.topology.Topology` — and ``--shards N`` merely
distributes the slices over ``N`` worker processes.

Because a slice's outcome depends only on (topology config, tool options,
slice membership) and never on which worker ran it or when, the merged
output is **invariant in the worker count**: ``--shards 4`` produces the
same result file, metrics snapshot and event logs, byte for byte, as
``--shards 1`` (the single-worker baseline that runs the same slices
sequentially in one process).  The merge folds per-slice payloads in
slice-index order — reproducing the single-worker emission order — never
in completion order.

Worker-init contract (enforced by tests/test_sharding_workerinit.py):
the parent builds the :class:`Topology` once and workers inherit it via
``fork`` (copy-on-write, no per-worker rebuild); under ``spawn`` each
worker rebuilds it from the request's picklable
:class:`~repro.simnet.config.TopologyConfig`, which is deterministic in
its seed, so both start methods serve identical topologies.  Workers
never mutate the topology — all mutable per-scan state (rate-limiter
bins, caches, fault counters) lives in the per-slice network.

Checkpointing gains a shard dimension here: the parent writes an
``engine="sharded"`` checkpoint holding every *completed slice's* payload
(result, simnet stats, metrics, event bytes); resume re-runs only the
missing slices and merges to a byte-identical final output.  See
docs/scaling.md for the full contract.
"""

from __future__ import annotations

import base64
import io
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import Engine, ScanRequest
from ..simnet.topology import Topology
from .output import result_from_dict, result_to_dict
from .permutation import MultiplicativeCycle
from .resilience import (
    CheckpointError,
    ScanInterrupted,
    write_checkpoint,
)
from .results import ScanResult
from .scanner import create_scanner
from .targets import random_targets

#: Logical slices the keyspace always splits into, independent of the
#: worker count — what makes the merged output invariant in ``--shards``.
DEFAULT_SLICES = 16

#: Salt mixed into the tool's seed for the slice-assignment permutation.
_SLICE_SALT = 0x51BCE5

#: Checkpoint engine tag of sharded-scan checkpoints.
SHARDED_ENGINE = "sharded"


class ShardError(RuntimeError):
    """A worker failed while scanning one slice; carries the slice index
    and the worker's formatted traceback.

    ``attempts`` counts how many times the slice was tried (1 + the
    exhausted ``--slice-retries`` budget); ``checkpoint_path`` names the
    salvage checkpoint holding every *completed* slice, when one could
    be written — ``--resume`` finishes the scan from it byte-identically
    instead of discarding the work.
    """

    def __init__(self, slice_index: int, worker_traceback: str,
                 attempts: int = 1,
                 checkpoint_path: Optional[str] = None) -> None:
        message = f"slice {slice_index} failed in a shard worker"
        if attempts > 1:
            message += f" (all {attempts} attempts)"
        message += f":\n{worker_traceback}"
        if checkpoint_path is not None:
            message += (f"\ncompleted slices salvaged to "
                        f"{checkpoint_path} (finish with --resume "
                        f"{checkpoint_path})")
        super().__init__(message)
        self.slice_index = slice_index
        self.worker_traceback = worker_traceback
        self.attempts = attempts
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to run one slice — plain, picklable data.

    A shard is *the scan plus a residue class*: ``request`` is the scan's
    :class:`repro.api.ScanRequest`, whose ``shards`` is the
    worker-process count (``None`` reads as 1), ``shard_slices`` the
    (fixed) logical decomposition and ``shard_index`` one worker's
    residue class of slices (``slice % shards == shard_index``) for
    standalone runs.  The other fields are the telemetry *wishes* of
    this particular run, deliberately not part of the serialized
    request; telemetry objects are built worker-side so the plan stays
    picklable.  ``events_format`` is ``None`` (no event log),
    ``"jsonl"`` or ``"binary"``.
    """

    request: ScanRequest
    collect_metrics: bool = False
    events_format: Optional[str] = None
    events_sample: float = 1.0
    events_ring: Optional[int] = None
    #: Collect a per-slice span tree (merged into one multi-root forest
    #: by the parent — what ``scan --shards --trace`` writes).
    collect_trace: bool = False
    #: Base capture path; each slice writes its own suffixed file
    #: (``out.pcap`` -> ``out.slice00.pcap``, ...).
    pcap_base: Optional[str] = None
    #: Virtual-time interval between worker heartbeats; ``None`` streams
    #: no heartbeats (the zero-overhead default).
    heartbeat_interval: Optional[float] = None

    @classmethod
    def from_request(cls, request: ScanRequest, **wishes) -> "ShardPlan":
        """The plan ``request`` implies, with this run's wishes."""
        return cls(request, **wishes)

    def __post_init__(self) -> None:
        if self.events_format not in (None, "jsonl", "binary"):
            raise ValueError(
                f"events_format must be None, 'jsonl' or 'binary', got "
                f"{self.events_format!r}")
        if self.heartbeat_interval is not None \
                and self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got "
                f"{self.heartbeat_interval}")


@dataclass
class ShardedOutcome:
    """What a sharded scan hands back to the caller, already merged."""

    result: ScanResult
    simnet_stats: Dict[str, object]
    metrics_snapshot: Optional[Dict[str, object]] = None
    events_payload: Optional[object] = None  # str (JSONL) or bytes
    slices_total: int = 0
    slices_resumed: int = 0
    #: Failed slice attempts that were re-run under ``--slice-retries``
    #: (0 on a clean run; never affects the merged byte-stable outputs).
    slices_retried: int = 0
    #: Per-slice wall-side accounting (slice, worker pid, CPU seconds,
    #: wall seconds, probes) in slice order; the shard wall report and
    #: ``bench/`` sum per-worker CPU and probes from it.  Slices restored from a checkpoint
    #: carry no pid/cpu (they were not run this time).
    slice_stats: List[Dict[str, object]] = field(default_factory=list)
    #: Merged multi-root span forest (JSONL text) when the plan collects
    #: traces; ``None`` otherwise.
    trace_payload: Optional[str] = None
    #: Per-slice capture files written this run, in slice order.
    pcap_paths: List[str] = field(default_factory=list)


# --------------------------------------------------------------------- #
# Slice construction
# --------------------------------------------------------------------- #

def _tool_profile(plan: ShardPlan) -> Tuple[int, int]:
    """The tool's effective (seed, granularity) for the target draw.

    Each engine defaults its targets to ``random_targets(topology,
    config.seed, granularity)``; the driver must pre-draw the *full* map
    with the same knobs (the draw is one sequential RNG over all
    prefixes, so per-slice draws would not compose) and hand each slice
    its sub-dict.
    """
    probe = create_scanner(plan.request.tool,
                           plan.request.scanner_options())
    config = getattr(probe, "config", probe)
    return getattr(config, "seed", 1), getattr(config, "granularity", 24)


def slice_assignment(num_prefixes: int, seed: int,
                     slices: int) -> List[int]:
    """Slice index of each prefix offset, derived from the global
    permutation: the ``k``-th prefix the full
    :class:`MultiplicativeCycle` walk emits lands in slice
    ``k % slices`` (the same stride-residue partition
    :meth:`MultiplicativeCycle.iter_shard` yields slice by slice)."""
    cycle = MultiplicativeCycle(num_prefixes, seed=seed ^ _SLICE_SALT)
    assignment = [0] * num_prefixes
    for emission, offset in enumerate(cycle):
        assignment[offset] = emission % slices
    return assignment


def build_slice_targets(topology: Topology, plan: ShardPlan
                        ) -> List[Dict[int, int]]:
    """The full deterministic target map, cut into per-slice sub-dicts.

    Keys are block indexes at the tool's granularity; a /24's sub-blocks
    always travel with their /24's slice, so finer granularities shard
    along the same prefix partition.
    """
    seed, granularity = _tool_profile(plan)
    slices = plan.request.shard_slices
    full = random_targets(topology, seed, granularity=granularity)
    prefixes = list(topology.scanned_prefixes())
    assignment = slice_assignment(len(prefixes), seed, slices)
    slice_of = {prefix: assignment[index]
                for index, prefix in enumerate(prefixes)}
    shift = granularity - 24
    per_slice: List[Dict[int, int]] = [{} for _ in range(slices)]
    for block, addr in full.items():
        per_slice[slice_of[block >> shift]][block] = addr
    return per_slice


# --------------------------------------------------------------------- #
# Per-slice execution (runs inside a worker process)
# --------------------------------------------------------------------- #

#: Worker-process context: set by :func:`_worker_init` (or inherited from
#: the parent via fork — see the worker-init contract in the module
#: docstring).
_WORKER: Dict[str, object] = {}


def _worker_init(plan: ShardPlan,
                 slice_targets: List[Dict[int, int]],
                 heartbeat: Optional[object] = None,
                 chaos: Optional[object] = None) -> None:
    """Populate the worker's shared read-only context exactly once.

    Under ``fork`` the parent populated :data:`_WORKER` before creating
    the pool, so the built topology is inherited copy-on-write and this
    returns immediately; under ``spawn`` the topology is rebuilt from the
    request's picklable :class:`~repro.simnet.config.TopologyConfig`
    (deterministic in its seed, hence identical).

    ``heartbeat`` is the upstream heartbeat channel: a multiprocessing
    queue (pool mode) or a direct callable (sequential mode); ``None``
    streams nothing.  ``chaos`` is this run's (picklable)
    :class:`~repro.testing.chaos.ChaosSpec`, or ``None``.  Both are
    per-run state, normalized outside the plan-equality fast path, so a
    fork-inherited context still picks up this run's channel and spec —
    they are deliberately not part of the plan, whose equality gates the
    topology rebuild.
    """
    _WORKER["heartbeat"] = getattr(heartbeat, "put", heartbeat)
    _WORKER["chaos"] = chaos
    if _WORKER.get("plan") == plan and _WORKER.get("topology") is not None:
        return
    _WORKER["plan"] = plan
    _WORKER["topology"] = Topology(plan.request.topology_config())
    _WORKER["slice_targets"] = slice_targets


def _execute_slice(plan: ShardPlan, topology: Topology,
                   targets: Dict[int, int], slice_index: int
                   ) -> Dict[str, object]:
    """Run one slice's subscan; returns a picklable payload carrying the
    :class:`ScanResult` itself (it becomes JSON only in a checkpoint)."""
    from ..obs.events import EventRecorder, strip_event_header
    from ..obs.metrics import MetricsRegistry
    from ..obs.shardobs import ShardHeartbeatReporter, slice_pcap_path
    from ..obs.telemetry import Telemetry
    from ..obs.trace import ScanTracer

    telemetry = None
    events_sink = None
    trace_sink = None
    binary = plan.events_format == "binary"
    heartbeat_emit = (_WORKER.get("heartbeat")
                      if plan.heartbeat_interval is not None else None)
    if plan.collect_metrics or plan.events_format is not None \
            or plan.collect_trace or heartbeat_emit is not None:
        events = None
        if plan.events_format is not None:
            events_sink = io.BytesIO() if binary else io.StringIO()
            # The slice records its full stream; --events-ring trims
            # *after* the merge so sharded and single-worker ring files
            # agree (see repro.obs.events.merge_event_logs).
            events = EventRecorder(stream=events_sink, binary=binary,
                                   sample=plan.events_sample)
        tracer = None
        if plan.collect_trace:
            trace_sink = io.StringIO()
            tracer = ScanTracer(stream=trace_sink)
        progress = None
        if heartbeat_emit is not None:
            progress = ShardHeartbeatReporter(plan.heartbeat_interval,
                                              heartbeat_emit, slice_index)
        # Registry only when the merged snapshot needs it: a heartbeat-
        # or trace-only slice keeps the engine's per-probe counters off
        # (the metrics hot path costs real throughput).
        telemetry = Telemetry(
            registry=MetricsRegistry() if plan.collect_metrics else None,
            metrics=plan.collect_metrics,
            tracer=tracer, progress=progress, events=events)
    # A fresh engine per slice (not one shared per worker): every slice
    # starts from a cold route cache, so simnet.cache.* and the merged
    # route_cache stats never depend on which worker ran what before.
    session = Engine(topology=topology).open_session(plan.request,
                                                     telemetry=telemetry)
    network = session.network
    pcap_path = None
    pcap_handle = None
    if plan.pcap_base is not None:
        from ..simnet.capture import CapturingNetwork

        pcap_path = slice_pcap_path(plan.pcap_base, slice_index,
                                    plan.request.shard_slices)
        pcap_handle = open(pcap_path, "wb")
        session.network = CapturingNetwork(network, pcap_handle)
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        result = session.run(targets=dict(targets))
    finally:
        if pcap_handle is not None:
            pcap_handle.close()
    cpu_seconds = time.process_time() - cpu_start
    wall_seconds = time.perf_counter() - wall_start
    payload: Dict[str, object] = {
        "slice": slice_index,
        "result": result,
        "stats": network.stats(),
        # Wall-side accounting for bench/ and the shard wall report:
        # which worker process ran the slice and how much
        # CPU/wall time the scan took.  Never part of the merged
        # (byte-stable) outputs.
        "pid": os.getpid(),
        "cpu_seconds": cpu_seconds,
        "wall_seconds": wall_seconds,
    }
    if pcap_path is not None:
        payload["pcap"] = pcap_path
    if telemetry is not None:
        telemetry.record_network(network)
        telemetry.close()
        if plan.collect_metrics:
            payload["metrics"] = telemetry.registry.snapshot()
        if events_sink is not None:
            payload["events"] = strip_event_header(events_sink.getvalue(),
                                                   binary)
        if trace_sink is not None:
            payload["trace"] = trace_sink.getvalue()
    return payload


def _run_slice_job(job) -> Dict[str, object]:
    """Pool entry point: run one slice attempt from the worker context.

    ``job`` is ``(slice_index, attempt)`` (a bare index means attempt
    0).  Failures are returned as payloads (not raised) so the parent
    can attribute them to the slice and either retry it under the
    ``--slice-retries`` budget or fail the scan with the worker's
    traceback (see :class:`ShardError`).  A chaos spec in the worker
    context may kill the attempt at the slice boundary — through the
    very same error-payload path a real crash takes.
    """
    slice_index, attempt = job if isinstance(job, tuple) else (job, 0)
    try:
        chaos = _WORKER.get("chaos")
        if chaos is not None:
            from ..testing.chaos import maybe_kill_slice

            maybe_kill_slice(chaos, slice_index, attempt)
        return _execute_slice(_WORKER["plan"], _WORKER["topology"],
                              _WORKER["slice_targets"][slice_index],
                              slice_index)
    except KeyboardInterrupt:  # pragma: no cover - propagation path
        raise
    except BaseException:
        return {"slice": slice_index, "attempt": attempt,
                "error": traceback.format_exc()}


# --------------------------------------------------------------------- #
# Merging
# --------------------------------------------------------------------- #

def merge_results(results: Sequence[ScanResult]) -> ScanResult:
    """Fold per-slice :class:`ScanResult`s (in slice order) into one.

    Per-prefix maps union (slices are disjoint by construction); probe
    and response counters sum; ``duration``/``rounds`` take the maximum
    (slices run concurrently on independent virtual clocks).  With the
    same slice decomposition, the merged result — and hence its
    :meth:`~ScanResult.fingerprint` — is identical for every worker
    count.
    """
    if not results:
        raise ValueError("need at least one result to merge")
    first = results[0]
    merged = ScanResult(tool=first.tool, granularity=first.granularity)
    for result in results:
        if result.tool != first.tool:
            raise ValueError(
                f"cannot merge results from different tools: "
                f"{first.tool!r} vs {result.tool!r}")
        merged.num_targets += result.num_targets
        merged.routes.update(result.routes)
        merged.dest_distance.update(result.dest_distance)
        merged.targets.update(result.targets)
        merged.probes_sent += result.probes_sent
        merged.preprobe_probes += result.preprobe_probes
        merged.responses += result.responses
        merged.duplicate_responses += result.duplicate_responses
        merged.mismatched_quotes += result.mismatched_quotes
        merged.skipped_probes += result.skipped_probes
        merged.duration = max(merged.duration, result.duration)
        merged.rounds = max(merged.rounds, result.rounds)
        merged.aborted = merged.aborted or result.aborted
        merged.ttl_probe_histogram.update(result.ttl_probe_histogram)
        merged.response_kinds.update(result.response_kinds)
        merged.rtt_sum_ms += result.rtt_sum_ms
        merged.rtt_count += result.rtt_count
    return merged


def _sum_dicts(dicts: Sequence[Optional[Dict[str, int]]],
               last_wins: Tuple[str, ...] = ()) -> Optional[Dict[str, int]]:
    present = [d for d in dicts if d is not None]
    if not present:
        return None
    merged: Dict[str, int] = dict.fromkeys(present[0], 0)
    for entry in present:
        for key, value in entry.items():
            if key in last_wins:
                merged[key] = value
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def merge_simnet_stats(stats_list: Sequence[Dict[str, object]]
                       ) -> Dict[str, object]:
    """Fold per-slice ``SimulatedNetwork.stats()`` dicts in slice order.

    Counters sum across the slices' independent networks; the rate
    limiter's ``limit`` is a configuration gauge (identical per slice)
    and keeps the last value.  ``overprobed_interfaces`` and the cache
    size gauges sum per-slice state — shared transit interfaces/routes
    can be counted once per slice, which is documented in
    docs/scaling.md and excluded from the equivalence contract the same
    way ``simnet.cache.*`` already is.
    """
    if not stats_list:
        raise ValueError("need at least one stats dict to merge")
    merged: Dict[str, object] = {
        "probes_sent": sum(s["probes_sent"] for s in stats_list),
        "responses_generated": sum(s["responses_generated"]
                                   for s in stats_list),
        "rewritten_responses": sum(s["rewritten_responses"]
                                   for s in stats_list),
        "ratelimit": _sum_dicts([s["ratelimit"] for s in stats_list],
                                last_wins=("limit",)),
        "route_cache": _sum_dicts([s["route_cache"] for s in stats_list]),
        "faults": _sum_dicts([s["faults"] for s in stats_list]),
    }
    return merged


def _merged_metrics(plan: ShardPlan, ordered: List[Dict[str, object]],
                    result: ScanResult) -> Optional[Dict[str, object]]:
    if not plan.collect_metrics:
        return None
    from ..obs.metrics import merge_snapshots

    snapshot = merge_snapshots([payload["metrics"] for payload in ordered])
    # Scan-wide gauges are properties of the merged scan, not of the last
    # slice: overwrite them from the merged result so the snapshot reads
    # like one scan's registry.
    gauges = snapshot["gauges"]
    gauges["scan.duration_virtual_seconds"] = result.duration
    gauges["scan.targets"] = result.num_targets
    if result.duration > 0:
        gauges["scan.rate_pps"] = result.probes_sent / result.duration
    snapshot["gauges"] = {name: gauges[name] for name in sorted(gauges)}
    return snapshot


def _merged_events(plan: ShardPlan,
                   ordered: List[Dict[str, object]]) -> Optional[object]:
    if plan.events_format is None:
        return None
    from ..obs.events import merge_event_logs

    return merge_event_logs([payload["events"] for payload in ordered],
                            binary=plan.events_format == "binary",
                            ring=plan.events_ring)


def _merged_trace(plan: ShardPlan,
                  ordered: List[Dict[str, object]]) -> Optional[str]:
    if not plan.collect_trace:
        return None
    from ..obs.shardobs import merge_trace_logs

    return merge_trace_logs([payload["trace"] for payload in ordered])


def _shard_metrics(plan: ShardPlan, snapshot: Optional[Dict[str, object]],
                   ordered: List[Dict[str, object]],
                   results: Sequence[ScanResult]
                   ) -> Optional[Dict[str, object]]:
    """The merged snapshot plus the per-slice shard dimension."""
    if snapshot is None:
        return None
    from ..obs.shardobs import add_shard_dimension

    pairs = [(payload["slice"], result)
             for payload, result in zip(ordered, results)]
    return add_shard_dimension(snapshot, pairs,
                               plan.request.shard_slices)


# --------------------------------------------------------------------- #
# Checkpointing (the shard dimension of the PR-5 format)
# --------------------------------------------------------------------- #

def _payload_to_state(payload: Dict[str, object]) -> Dict[str, object]:
    state = {"result": result_to_dict(payload["result"]),
             "stats": payload["stats"]}
    if "metrics" in payload:
        state["metrics"] = payload["metrics"]
    if "trace" in payload:
        state["trace"] = payload["trace"]
    if "events" in payload:
        events = payload["events"]
        if isinstance(events, bytes):
            state["events_b64"] = base64.b64encode(events).decode("ascii")
        else:
            state["events_text"] = events
    return state


def _payload_from_state(slice_index: int,
                        state: Dict[str, object]) -> Dict[str, object]:
    payload: Dict[str, object] = {"slice": slice_index,
                                  "result": result_from_dict(state["result"]),
                                  "stats": state["stats"]}
    if "metrics" in state:
        payload["metrics"] = state["metrics"]
    if "trace" in state:
        payload["trace"] = state["trace"]
    if "events_b64" in state:
        payload["events"] = base64.b64decode(state["events_b64"])
    elif "events_text" in state:
        payload["events"] = state["events_text"]
    return payload


def _checkpoint_state(plan: ShardPlan,
                      completed: Dict[int, Dict[str, object]]
                      ) -> Dict[str, object]:
    return {
        "engine": SHARDED_ENGINE,
        "tool": plan.request.tool,
        "slices": plan.request.shard_slices,
        "completed": {str(index): _payload_to_state(completed[index])
                      for index in sorted(completed)},
    }


def load_sharded_state(plan: ShardPlan, state: Dict[str, object]
                       ) -> Dict[int, Dict[str, object]]:
    """Validate a sharded checkpoint's state against ``plan`` and decode
    the completed-slice payloads.  Raises :class:`CheckpointError` on an
    engine/tool/slice-count mismatch — resuming under a different
    decomposition would merge mismatched keyspaces."""
    if state.get("engine") != SHARDED_ENGINE:
        raise CheckpointError(
            f"checkpoint engine {state.get('engine')!r} is not "
            f"{SHARDED_ENGINE!r}")
    request = plan.request
    if state.get("tool") != request.tool:
        raise CheckpointError(
            f"checkpoint tool {state.get('tool')!r} does not match "
            f"{request.tool!r}")
    if state.get("slices") != request.shard_slices:
        raise CheckpointError(
            f"checkpoint has {state.get('slices')!r} slices, this scan "
            f"uses {request.shard_slices}")
    completed = {}
    for key, payload_state in state.get("completed", {}).items():
        index = int(key)
        if not 0 <= index < request.shard_slices:
            raise CheckpointError(f"checkpoint slice {index} out of range")
        if plan.collect_trace and "trace" not in payload_state:
            raise CheckpointError(
                f"checkpoint slice {index} carries no span tree; the "
                f"interrupted run did not use --trace, so the resumed "
                f"one cannot either")
        completed[index] = _payload_from_state(index, payload_state)
    return completed


# --------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------- #

def _pool_context(start_method: Optional[str] = None):
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(
                f"start method {start_method!r} unavailable on this "
                f"platform (have {methods})")
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


#: How long the parent blocks on the next slice result before draining
#: the heartbeat queue (seconds); only used when heartbeats stream.
_HEARTBEAT_POLL_SECONDS = 0.1


def _drain_heartbeats(queue, progress) -> None:
    """Feed every queued worker heartbeat into the progress view."""
    while True:
        try:
            record = queue.get_nowait()
        except Exception:  # queue.Empty (or a closed queue on teardown)
            return
        progress.observe(record)


def run_sharded_scan(plan: ShardPlan, *,
                     topology: Optional[Topology] = None,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_every: int = 1,
                     resume_state: Optional[dict] = None,
                     slice_hook: Optional[Callable[[int], None]] = None,
                     progress=None,
                     start_method: Optional[str] = None,
                     slice_retries: int = 0,
                     chaos=None,
                     salvage_path: Optional[str] = None,
                     ) -> ShardedOutcome:
    """Run a sharded scan end to end and return the merged outcome.

    ``slice_hook`` is called with the total completed-slice count after
    every slice (the shard-layer analog of the engines' ``round_hook``);
    raising ``KeyboardInterrupt`` from it simulates an interrupt
    deterministically.  On interrupt with a ``checkpoint_path`` the
    completed slices are flushed and :class:`ScanInterrupted` is raised;
    ``resume_state`` (the ``"state"`` payload of such a checkpoint) skips
    the already-completed slices, and the finished scan is byte-identical
    to an uninterrupted one.  Every checkpoint records ``plan.request``
    as its invocation, which is all ``scan --resume`` needs.

    ``progress`` is a :class:`repro.obs.shardobs.ShardProgressView` (or
    compatible object with ``observe``/``slice_done``/``finish``): slice
    completions always feed it, and when the plan sets
    ``heartbeat_interval`` the workers additionally stream heartbeats to
    it — over a multiprocessing queue in pool mode, directly in
    sequential mode.  ``start_method`` forces a specific multiprocessing
    start method (``"fork"``/``"spawn"``) for tests; the default picks
    fork where available.

    ``slice_retries`` is the per-slice retry budget: a crashed slice is
    re-run (in a later pass over the same pool) up to that many extra
    times.  Slice subscans are deterministic, so a retried run's merged
    output is byte-identical to a clean one.  When a slice exhausts the
    budget, every *completed* slice is salvaged into a PR 5/6-format
    checkpoint — at ``checkpoint_path`` when set, else ``salvage_path``
    — and the raised :class:`ShardError` carries that path so
    ``--resume`` can finish the scan instead of discarding the work.
    ``chaos`` is an optional
    :class:`~repro.testing.chaos.ChaosSpec` whose seeded worker kills
    exercise exactly this machinery.
    """
    if slice_retries < 0:
        raise ValueError(
            f"slice_retries must be >= 0, got {slice_retries}")
    request = plan.request
    shards = request.shards if request.shards is not None else 1
    if topology is None:
        topology = Topology(request.topology_config())
    slice_targets = build_slice_targets(topology, plan)
    completed: Dict[int, Dict[str, object]] = {}
    if resume_state is not None:
        completed = load_sharded_state(plan, resume_state)
    slices_resumed = len(completed)
    slices_retried = 0
    pending = [index for index in range(request.shard_slices)
               if index not in completed]
    if request.shard_index is not None:
        pending = [index for index in pending
                   if index % shards == request.shard_index]

    def flush_checkpoint(target: Optional[str] = None) -> Optional[str]:
        path = target if target is not None else checkpoint_path
        if path is None:
            return None
        return write_checkpoint(path, SHARDED_ENGINE,
                                _checkpoint_state(plan, completed),
                                meta=request.to_dict())

    def salvage() -> Optional[str]:
        """Exhausted retries: persist every completed slice so the scan
        can be finished with ``--resume`` (an empty-state checkpoint is
        still written — the contract is that exhausted retries always
        leave something resumable when a path is configured)."""
        target = checkpoint_path if checkpoint_path is not None \
            else salvage_path
        if target is None:
            return None
        return flush_checkpoint(target)

    def on_complete(payload: Dict[str, object], attempt: int,
                    failed: List[int]) -> None:
        nonlocal slices_retried
        if "error" in payload:
            if attempt < slice_retries:
                slices_retried += 1
                failed.append(payload["slice"])
                return
            raise ShardError(payload["slice"], payload["error"],
                             attempts=attempt + 1,
                             checkpoint_path=salvage())
        completed[payload["slice"]] = payload
        finished = len(completed)
        if checkpoint_path is not None and checkpoint_every \
                and (finished - slices_resumed) % checkpoint_every == 0:
            flush_checkpoint()
        if progress is not None:
            progress.slice_done(payload["slice"],
                                payload["result"].probes_sent,
                                payload["result"].duration)
        if slice_hook is not None:
            slice_hook(finished)

    heartbeats = plan.heartbeat_interval is not None \
        and progress is not None
    workers = min(shards, len(pending))
    try:
        if workers <= 1:
            # Sequential mode: heartbeats short-circuit the queue and
            # feed the view directly.  Failed slices carry over into the
            # next pass (attempt) until the retry budget runs dry.
            _worker_init(plan, slice_targets,
                         heartbeat=progress.observe if heartbeats
                         else None,
                         chaos=chaos)
            to_run, attempt = list(pending), 0
            while to_run:
                failed: List[int] = []
                for index in to_run:
                    on_complete(_run_slice_job((index, attempt)),
                                attempt, failed)
                to_run, attempt = sorted(failed), attempt + 1
        else:
            # Populate the parent-side context first so fork()ed workers
            # inherit the built topology copy-on-write (the worker-init
            # contract); spawn-based platforms rebuild it per worker from
            # the picklable plan (the queue and chaos spec ride along in
            # initargs, which multiprocessing allows during worker
            # spawning).  Retry passes resubmit only the failed slices
            # to the same pool — respawning the work, not the scan.
            context = _pool_context(start_method)
            heartbeat_queue = context.Queue() if heartbeats else None
            _worker_init(plan, slice_targets, heartbeat=heartbeat_queue,
                         chaos=chaos)
            with context.Pool(processes=workers,
                              initializer=_worker_init,
                              initargs=(plan, slice_targets,
                                        heartbeat_queue, chaos)) as pool:
                to_run, attempt = list(pending), 0
                while to_run:
                    failed = []
                    iterator = pool.imap_unordered(
                        _run_slice_job,
                        [(index, attempt) for index in to_run])
                    remaining = len(to_run)
                    while remaining:
                        if heartbeat_queue is not None:
                            try:
                                payload = iterator.next(
                                    _HEARTBEAT_POLL_SECONDS)
                            except multiprocessing.TimeoutError:
                                _drain_heartbeats(heartbeat_queue,
                                                  progress)
                                continue
                            _drain_heartbeats(heartbeat_queue, progress)
                        else:
                            payload = next(iterator)
                        remaining -= 1
                        on_complete(payload, attempt, failed)
                    to_run, attempt = sorted(failed), attempt + 1
                if heartbeat_queue is not None:
                    _drain_heartbeats(heartbeat_queue, progress)
    except KeyboardInterrupt:
        path = flush_checkpoint()
        if path is not None:
            raise ScanInterrupted(path, rounds=len(completed)) from None
        raise

    ordered = [completed[index] for index in sorted(completed)]
    if not ordered:
        raise ValueError("sharded scan completed no slices")
    results = [payload["result"] for payload in ordered]
    result = merge_results(results)
    if progress is not None:
        progress.finish(result.probes_sent)
    return ShardedOutcome(
        result=result,
        simnet_stats=merge_simnet_stats([payload["stats"]
                                         for payload in ordered]),
        metrics_snapshot=_shard_metrics(
            plan, _merged_metrics(plan, ordered, result), ordered,
            results),
        events_payload=_merged_events(plan, ordered),
        slices_total=request.shard_slices,
        slices_resumed=slices_resumed,
        slices_retried=slices_retried,
        slice_stats=[{"slice": payload["slice"],
                      "pid": payload.get("pid"),
                      "cpu_seconds": payload.get("cpu_seconds"),
                      "wall_seconds": payload.get("wall_seconds"),
                      "probes": payload["result"].probes_sent}
                     for payload in ordered],
        trace_payload=_merged_trace(plan, ordered),
        pcap_paths=[payload["pcap"] for payload in ordered
                    if "pcap" in payload],
    )
