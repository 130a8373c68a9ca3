"""Sharded scanning: the byte-stable merge is the whole contract.

The acceptance pin: merged N-shard output is byte-identical to the
single-worker (``shards=1``) run of the same plan — result fingerprint,
deterministic metrics snapshot, and event logs (JSONL and binary) — at
N in {2, 4}, with and without faults, composed with retries, and across
an interrupt/resume cycle.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine, ScanRequest
from repro.core.output import result_to_dict
from repro.core.resilience import (
    CheckpointError,
    ScanInterrupted,
    load_checkpoint,
)
from repro.core.results import ScanResult
from repro.core.scanner import scanner_names
from repro.core import sharding
from repro.core.sharding import (
    DEFAULT_SLICES,
    ShardError,
    ShardPlan,
    build_slice_targets,
    load_sharded_state,
    merge_results,
    merge_simnet_stats,
    run_sharded_scan,
    slice_assignment,
)
from repro.core.targets import random_targets
from repro.obs.events import (
    BINARY_MAGIC,
    event_log_header,
    merge_event_logs,
    strip_event_header,
)
from repro.obs.metrics import METRICS_SCHEMA, deterministic_snapshot, \
    merge_snapshots
from repro.simnet.topology import Topology

_PREFIXES = 96
_SEED = 11
_REQUEST_FIELDS = {spec.name for spec in dataclasses.fields(ScanRequest)}


def _plan(**overrides) -> ShardPlan:
    """A plan from mixed request fields and telemetry wishes."""
    settings = dict(tool="flashroute-16", prefixes=_PREFIXES, seed=_SEED,
                    collect_metrics=True, events_format="jsonl")
    settings.update(overrides)
    request = ScanRequest(**{name: settings.pop(name)
                             for name in list(settings)
                             if name in _REQUEST_FIELDS})
    return ShardPlan(request, **settings)


def _deterministic(outcome):
    """The byte-stable triple a sharded run must reproduce exactly."""
    return (outcome.result.fingerprint(),
            deterministic_snapshot(outcome.metrics_snapshot),
            outcome.events_payload)


class TestByteStableMerge:
    @pytest.mark.parametrize("faulty", [False, True])
    def test_worker_count_invariance(self, faulty):
        overrides = {}
        if faulty:
            overrides.update(loss=0.03, blackout=0.05, fault_seed=9)
        baseline = _deterministic(
            run_sharded_scan(_plan(shards=1, **overrides)))
        for shards in (2, 4):
            outcome = run_sharded_scan(_plan(shards=shards, **overrides))
            assert _deterministic(outcome) == baseline, \
                f"shards={shards} diverged from the single-worker run"

    def test_binary_events_invariant(self):
        baseline = run_sharded_scan(_plan(shards=1,
                                          events_format="binary"))
        sharded = run_sharded_scan(_plan(shards=4,
                                         events_format="binary"))
        assert isinstance(baseline.events_payload, bytes)
        assert baseline.events_payload.startswith(BINARY_MAGIC)
        assert sharded.events_payload == baseline.events_payload
        assert sharded.result.fingerprint() == \
            baseline.result.fingerprint()

    def test_composes_with_retries(self):
        overrides = dict(loss=0.05, fault_seed=7, retries=2)
        baseline = _deterministic(
            run_sharded_scan(_plan(shards=1, **overrides)))
        assert _deterministic(
            run_sharded_scan(_plan(shards=4, **overrides))) == baseline

    def test_events_ring_invariant(self):
        overrides = dict(events_ring=64)
        baseline = run_sharded_scan(_plan(shards=1, **overrides))
        sharded = run_sharded_scan(_plan(shards=2, **overrides))
        assert sharded.events_payload == baseline.events_payload
        # The ring kept the header plus at most 64 event lines.
        assert len(baseline.events_payload.splitlines()) <= 65

    def test_every_tool_merges_identically(self):
        for tool in ("yarrp-32-udp-sim", "scamper-16", "traceroute"):
            baseline = run_sharded_scan(
                _plan(tool=tool, shards=1, collect_metrics=False,
                      events_format=None))
            sharded = run_sharded_scan(
                _plan(tool=tool, shards=2, collect_metrics=False,
                      events_format=None))
            assert sharded.result.fingerprint() == \
                baseline.result.fingerprint(), tool
            assert sharded.simnet_stats == baseline.simnet_stats, tool

    def test_shard_index_runs_partition_the_scan(self):
        full = run_sharded_scan(_plan(shards=1, collect_metrics=False,
                                      events_format=None))
        partials = [
            run_sharded_scan(_plan(shards=2, shard_index=index,
                                   collect_metrics=False,
                                   events_format=None))
            for index in range(2)
        ]
        assert sum(p.result.probes_sent for p in partials) == \
            full.result.probes_sent
        recombined = merge_results(
            [p.result for p in partials])
        assert recombined.fingerprint() == full.result.fingerprint()

    def test_pool_path_reports_slice_stats(self):
        outcome = run_sharded_scan(_plan(shards=4))
        assert outcome.slices_total == DEFAULT_SLICES
        assert len(outcome.slice_stats) == DEFAULT_SLICES
        assert [entry["slice"] for entry in outcome.slice_stats] == \
            list(range(DEFAULT_SLICES))
        for entry in outcome.slice_stats:
            assert entry["pid"] is not None
            assert entry["cpu_seconds"] >= 0
            assert entry["probes"] > 0


class TestSliceIsAScanSession:
    """What lets ``_execute_slice`` own no construction code: slice *i*
    is exactly ``Engine.open_session(request).run(targets=slice i)``."""

    @pytest.mark.parametrize("faults", [
        {}, dict(loss=0.05, fault_seed=7, retries=1)],
        ids=["clean", "lossy-retried"])
    @pytest.mark.parametrize("tool", scanner_names())
    def test_slice_equals_open_session_run(self, tmp_path, tool, faults):
        request = ScanRequest(tool=tool, prefixes=48, seed=_SEED,
                              shard_slices=4, **faults)
        plan = ShardPlan(request)
        topology = Topology(request.topology_config())
        path = str(tmp_path / "slices.ckpt")
        run_sharded_scan(plan, topology=topology, checkpoint_path=path)
        completed = load_checkpoint(path)["state"]["completed"]
        per_slice = build_slice_targets(topology, plan)
        assert sorted(completed) == [str(i) for i in range(len(per_slice))]
        for index, targets in enumerate(per_slice):
            session = Engine(topology=topology).open_session(request)
            direct = result_to_dict(session.run(targets=targets))
            # The checkpoint stored the slice's dict through JSON.
            assert completed[str(index)]["result"] == \
                json.loads(json.dumps(direct)), f"{tool} slice {index}"


class TestPreprobeLedger:
    """``scan.preprobe.measured + predicted + unresolved`` accounts for
    every target exactly once, whether the scan runs whole or as slices
    (a slice once predicted distances for other slices' blocks)."""

    @pytest.mark.parametrize("tool,preprobe", [
        ("flashroute-16", None), ("flashroute-32", "random")],
        ids=["hitlist", "folded"])
    def test_ledger_sums_to_the_targets(self, tool, preprobe):
        from repro.obs.telemetry import Telemetry

        plan = _plan(tool=tool, preprobe=preprobe, prefixes=256, shards=1,
                     events_format=None)
        telemetry = Telemetry()
        Engine.from_request(plan.request).open_session(
            plan.request, telemetry=telemetry).run()
        for snapshot in (telemetry.registry.snapshot(),
                         run_sharded_scan(plan).metrics_snapshot):
            counters = snapshot["counters"]
            ledger = [counters[f"scan.preprobe.{entry}"] for entry
                      in ("measured", "predicted", "unresolved")]
            assert min(ledger) > 0
            assert sum(ledger) == snapshot["gauges"]["scan.targets"] == 256


class TestShardedCheckpoint:
    def _interrupt_after(self, count):
        def hook(finished):
            if finished >= count:
                raise KeyboardInterrupt
        return hook

    def test_interrupt_resume_is_byte_identical(self, tmp_path):
        plan = _plan(shards=1, loss=0.02, fault_seed=3)
        baseline = _deterministic(run_sharded_scan(plan))
        path = str(tmp_path / "scan.ckpt")
        with pytest.raises(ScanInterrupted) as exc_info:
            run_sharded_scan(plan, checkpoint_path=path,
                             slice_hook=self._interrupt_after(5))
        assert exc_info.value.checkpoint_path == path
        document = load_checkpoint(path)
        assert document["engine"] == sharding.SHARDED_ENGINE
        assert document["invocation"] == plan.request.to_dict()
        resumed = run_sharded_scan(plan,
                                   resume_state=document["state"])
        assert resumed.slices_resumed == 5
        assert _deterministic(resumed) == baseline

    def test_interrupt_resume_binary_events(self, tmp_path):
        plan = _plan(shards=2, events_format="binary")
        baseline = run_sharded_scan(plan)
        path = str(tmp_path / "scan.ckpt")
        with pytest.raises(ScanInterrupted):
            run_sharded_scan(plan, checkpoint_path=path,
                             slice_hook=self._interrupt_after(3))
        state = load_checkpoint(path)["state"]
        resumed = run_sharded_scan(plan, resume_state=state)
        assert resumed.events_payload == baseline.events_payload
        assert resumed.result.fingerprint() == \
            baseline.result.fingerprint()

    def test_resume_rejects_mismatched_plan(self, tmp_path):
        plan = _plan(shards=1)
        path = str(tmp_path / "scan.ckpt")
        with pytest.raises(ScanInterrupted):
            run_sharded_scan(plan, checkpoint_path=path,
                             slice_hook=self._interrupt_after(2))
        state = load_checkpoint(path)["state"]
        with pytest.raises(CheckpointError):
            load_sharded_state(_plan(tool="scamper-16"), state)
        with pytest.raises(CheckpointError):
            load_sharded_state(_plan(shard_slices=8), state)
        with pytest.raises(CheckpointError):
            load_sharded_state(plan, dict(state, engine="flashroute"))

    @pytest.mark.parametrize("partition", [None, "stride"])
    def test_resume_refuses_another_partition(self, tmp_path, partition):
        """A checkpoint cut by another partition (or one written before
        checkpoints named theirs) would merge slices holding other
        prefixes: overlapping some, missing others."""
        plan = _plan(shards=1)
        path = str(tmp_path / "scan.ckpt")
        with pytest.raises(ScanInterrupted):
            run_sharded_scan(plan, checkpoint_path=path,
                             slice_hook=self._interrupt_after(2))
        state = load_checkpoint(path)["state"]
        assert state["partition"] == "contiguous"
        state = {key: value for key, value in state.items()
                 if key != "partition"}
        if partition is not None:
            state["partition"] = partition
        with pytest.raises(CheckpointError, match="'partition'"):
            run_sharded_scan(plan, resume_state=state)

    def test_interrupt_without_checkpoint_reraises(self):
        with pytest.raises(KeyboardInterrupt):
            run_sharded_scan(_plan(shards=1),
                             slice_hook=self._interrupt_after(2))


class TestBenchmarkedScan:
    """Tier-1 guards for what the benchmark measures and checks on its
    sharded workload (bench/scans.py)."""

    @pytest.mark.parametrize("tool", ["flashroute-16", "flashroute-32"])
    def test_slicing_re_probes_little(self, tool):
        """A slice holds whole stubs, so its stop set and proximity
        spans do not re-trace its neighbours' (a stride partition, which
        deals every stub's /24s out to every slice, read 1.126 / 1.338
        here)."""
        request = ScanRequest(tool=tool, prefixes=1024, seed=3)
        topology = Topology(request.topology_config())
        sharded = run_sharded_scan(
            ShardPlan(dataclasses.replace(request, shards=1)),
            topology=topology).result
        whole = Engine(topology=topology).open_session(request).run()
        assert sharded.probes_sent <= 1.05 * whole.probes_sent

    def test_repeated_pool_runs_agree_and_stay_on_the_topology(self):
        """One plan and one topology reused across pool runs, as the
        benchmark's repeats do: equal digests, and every reported
        interface exists in the topology."""
        request = ScanRequest(tool="flashroute-16", prefixes=1024, seed=3,
                              shards=2)
        plan = ShardPlan(request)
        topology = Topology(request.topology_config())
        first, second = (run_sharded_scan(plan, topology=topology).result
                         for _ in range(2))
        assert json.dumps(result_to_dict(first), sort_keys=True) == \
            json.dumps(result_to_dict(second), sort_keys=True)
        reachable = {topology.iface_addrs[iface]
                     for iface in topology.reachable_interfaces()}
        assert first.interfaces() <= reachable


class TestFailurePropagation:
    def test_worker_error_becomes_shard_error(self, monkeypatch):
        real = sharding._execute_slice

        def broken(plan, topology, targets, slice_index):
            if slice_index == 3:
                raise RuntimeError("synthetic slice failure")
            return real(plan, topology, targets, slice_index)

        monkeypatch.setattr(sharding, "_execute_slice", broken)
        monkeypatch.setattr(sharding, "_WORKER", {})
        with pytest.raises(ShardError) as exc_info:
            run_sharded_scan(_plan(shards=1, collect_metrics=False,
                                   events_format=None))
        assert exc_info.value.slice_index == 3
        assert "synthetic slice failure" in exc_info.value.worker_traceback


class TestSliceConstruction:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=1, max_value=64))
    def test_slice_assignment_partitions_prefixes(self, prefixes, slices):
        """Slice k is the one contiguous run [k*n//s, (k+1)*n//s): the
        slices cover every offset once, in order, sizes within one."""
        assignment = slice_assignment(prefixes, slices)
        assert len(assignment) == prefixes
        assert assignment == sorted(assignment)
        assert 0 <= assignment[0] and assignment[-1] < slices
        sizes = [assignment.count(index) for index in range(slices)]
        assert sum(sizes) == prefixes
        assert max(sizes) - min(sizes) <= 1
        starts = [index * prefixes // slices for index in range(slices)]
        for index, start in enumerate(starts):
            assert assignment[start:start + sizes[index]] == \
                [index] * sizes[index]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           slices=st.integers(min_value=1, max_value=32))
    def test_slice_assignment_deterministic(self, tiny_topology, seed,
                                            slices):
        """The tool's seed draws each /24's target, never its slice."""
        topology = tiny_topology
        plan = _plan(seed=seed, shard_slices=slices)
        assignment = slice_assignment(topology.num_prefixes, slices)
        for index, targets in enumerate(
                build_slice_targets(topology, plan)):
            assert [block - topology.base_prefix for block in targets] \
                == [offset for offset, owner in enumerate(assignment)
                    if owner == index]

    def test_build_slice_targets_partitions_full_draw(self):
        plan = _plan(shards=1)
        topology = Topology(plan.request.topology_config())
        per_slice = build_slice_targets(topology, plan)
        assert len(per_slice) == plan.request.shard_slices
        union = {}
        total = 0
        for targets in per_slice:
            total += len(targets)
            union.update(targets)
        full = random_targets(topology, 1, granularity=24)
        assert total == len(union) == len(full)
        assert union == full

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            _plan(shards=0)
        with pytest.raises(ValueError):
            _plan(shard_slices=0)
        with pytest.raises(ValueError):
            _plan(shards=4, shard_slices=2)
        with pytest.raises(ValueError):
            _plan(shards=2, shard_index=2)
        with pytest.raises(ValueError):
            _plan(events_format="csv")

    def test_plan_is_picklable(self):
        plan = _plan(shards=4, loss=0.1, events_format="binary")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestMergeHelpers:
    def _result(self, **overrides):
        result = ScanResult(tool="FlashRoute-16", granularity=24)
        for key, value in overrides.items():
            setattr(result, key, value)
        return result

    def test_merge_results_sums_and_unions(self):
        a = self._result(num_targets=2, probes_sent=10, responses=8,
                         duration=1.5, rounds=3, targets={1: 0x0101011D})
        a.add_hop(1, 9, 0xA)
        b = self._result(num_targets=3, probes_sent=20, responses=15,
                         duration=2.5, rounds=2, targets={2: 0x0202021D})
        b.add_hop(2, 9, 0xB)
        merged = merge_results([a, b])
        assert merged.num_targets == 5
        assert merged.probes_sent == 30
        assert merged.responses == 23
        assert merged.duration == 2.5
        assert merged.rounds == 3
        assert merged.routes == {1: {9: 0xA}, 2: {9: 0xB}}
        assert merged.targets == {1: 0x0101011D, 2: 0x0202021D}

    def test_merge_results_rejects_empty_and_mixed_tools(self):
        with pytest.raises(ValueError):
            merge_results([])
        with pytest.raises(ValueError):
            merge_results([self._result(),
                           ScanResult(tool="Yarrp-32", granularity=24)])

    def test_merge_snapshots_counters_sum_gauges_last_win(self):
        a = {"schema": METRICS_SCHEMA, "counters": {"scan.probes": 5},
             "gauges": {"scan.rate_pps": 100.0},
             "histograms": {"rtt": {"bounds": [1, 2], "counts": [1, 0, 0],
                                    "count": 1, "sum": 0.5}}}
        b = {"schema": METRICS_SCHEMA, "counters": {"scan.probes": 7},
             "gauges": {"scan.rate_pps": 200.0},
             "histograms": {"rtt": {"bounds": [1, 2], "counts": [0, 2, 0],
                                    "count": 2, "sum": 3.0}}}
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"scan.probes": 12}
        assert merged["gauges"] == {"scan.rate_pps": 200.0}
        assert merged["histograms"]["rtt"] == {
            "bounds": [1, 2], "counts": [1, 2, 0], "count": 3, "sum": 3.5}

    def test_merge_snapshots_rejects_bad_input(self):
        with pytest.raises(ValueError):
            merge_snapshots([])
        with pytest.raises(ValueError):
            merge_snapshots([{"schema": "bogus/9"}])
        a = {"schema": METRICS_SCHEMA, "counters": {}, "gauges": {},
             "histograms": {"h": {"bounds": [1], "counts": [0, 0],
                                  "count": 0, "sum": 0.0}}}
        b = {"schema": METRICS_SCHEMA, "counters": {}, "gauges": {},
             "histograms": {"h": {"bounds": [2], "counts": [0, 0],
                                  "count": 0, "sum": 0.0}}}
        with pytest.raises(ValueError):
            merge_snapshots([a, b])

    def test_merge_event_logs_jsonl(self):
        header = event_log_header(binary=False)
        merged = merge_event_logs(['{"a":1}\n', '{"b":2}\n'],
                                  binary=False)
        assert merged == header + '{"a":1}\n{"b":2}\n'
        assert strip_event_header(merged, binary=False) == \
            '{"a":1}\n{"b":2}\n'

    def test_merge_event_logs_jsonl_ring_trims_merged_stream(self):
        lines = [f'{{"n":{n}}}\n' for n in range(10)]
        merged = merge_event_logs(lines, binary=False, ring=3)
        body = strip_event_header(merged, binary=False)
        assert body.splitlines() == ['{"n":7}', '{"n":8}', '{"n":9}']

    def test_merge_event_logs_binary_ring_requires_alignment(self):
        with pytest.raises(ValueError):
            merge_event_logs([b"\x01\x02\x03"], binary=True, ring=1)

    def test_strip_event_header_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            strip_event_header("not a header\n", binary=False)
        with pytest.raises(ValueError):
            strip_event_header(b"NOTMAGIC", binary=True)

    def test_merge_simnet_stats_sums_counters_keeps_limit(self):
        a = {"probes_sent": 10, "responses_generated": 8,
             "rewritten_responses": 1,
             "ratelimit": {"limit": 100, "dropped": 2},
             "route_cache": {"hits": 5}, "faults": {"probe_losses": 1}}
        b = {"probes_sent": 20, "responses_generated": 16,
             "rewritten_responses": 0,
             "ratelimit": {"limit": 100, "dropped": 3},
             "route_cache": {"hits": 7}, "faults": {"probe_losses": 2}}
        merged = merge_simnet_stats([a, b])
        assert merged["probes_sent"] == 30
        assert merged["ratelimit"] == {"limit": 100, "dropped": 5}
        assert merged["route_cache"] == {"hits": 12}
        assert merged["faults"] == {"probe_losses": 3}
        with pytest.raises(ValueError):
            merge_simnet_stats([])
