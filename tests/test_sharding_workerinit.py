"""The shard worker-init contract (see repro.core.sharding's docstring).

The parent builds the Topology once; ``fork`` workers inherit it
copy-on-write, ``spawn`` workers rebuild it from the picklable
TopologyConfig.  Both paths must serve the *same* topology, and workers
must never perturb it — all mutable per-scan state lives in each slice's
own SimulatedNetwork.
"""

import copy
import multiprocessing
import pickle

from repro.api import ScanRequest
from repro.core import sharding
from repro.core.scanner import create_scanner
from repro.core.sharding import ShardPlan, build_slice_targets
from repro.simnet.config import TopologyConfig
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology

_CONFIG = TopologyConfig(num_prefixes=64, seed=5)


def _plan(events_format=None, **request_fields) -> ShardPlan:
    settings = dict(tool="flashroute-16", prefixes=_CONFIG.num_prefixes,
                    seed=_CONFIG.seed)
    settings.update(request_fields)
    return ShardPlan(ScanRequest(**settings), events_format=events_format)


class TestPicklability:
    def test_topology_config_round_trips(self):
        clone = pickle.loads(pickle.dumps(_CONFIG))
        assert clone == _CONFIG

    def test_plan_round_trips_with_config(self):
        plan = _plan(shards=4, loss=0.1, events_format="jsonl")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.request.topology_config() == _CONFIG

    def test_plan_round_trips_through_a_spawned_worker(self):
        """``spawn`` pickles the plan into a cold interpreter (which
        imports ``repro.core.sharding`` before ``repro.api``) and the
        ``_WORKER`` fast path compares plans by ``==``."""
        plan = _plan(shards=4, loss=0.1, events_format="binary")
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(copy.copy, (plan,)) == plan


class TestDeterministicRebuild:
    def test_rebuild_from_config_is_identical(self):
        """A spawn worker's rebuilt topology equals the parent's."""
        a, b = Topology(_CONFIG), Topology(_CONFIG)
        assert list(a.scanned_prefixes()) == list(b.scanned_prefixes())
        prefixes = list(a.scanned_prefixes())[:8]
        for prefix in prefixes:
            dst = (prefix << 8) | 0x1D
            assert a.true_route(dst) == b.true_route(dst)
            assert a.destination_distance(dst) == \
                b.destination_distance(dst)

    def test_rebuilt_topology_scans_identically(self):
        """End to end: a scan over the rebuilt topology fingerprints the
        same as one over the original."""
        fingerprints = []
        for topology in (Topology(_CONFIG), Topology(_CONFIG)):
            network = SimulatedNetwork(topology)
            scanner = create_scanner(ScanRequest())
            fingerprints.append(scanner.scan(network).fingerprint())
        assert fingerprints[0] == fingerprints[1]


class TestWorkerInit:
    def test_init_is_idempotent_per_plan(self, monkeypatch):
        monkeypatch.setattr(sharding, "_WORKER", {})
        plan = _plan()
        sharding._worker_init(plan, [])
        first = sharding._WORKER["topology"]
        sharding._worker_init(plan, [])
        assert sharding._WORKER["topology"] is first

    def test_init_rebuilds_for_a_new_plan(self, monkeypatch):
        monkeypatch.setattr(sharding, "_WORKER", {})
        sharding._worker_init(_plan(), [])
        first = sharding._WORKER["topology"]
        other = _plan(prefixes=32)
        sharding._worker_init(other, [])
        assert sharding._WORKER["topology"] is not first
        assert sharding._WORKER["topology"].num_prefixes == 32


class TestSharedReadOnlyTopology:
    def test_concurrent_networks_do_not_perturb_each_other(self):
        """Two slices sharing one Topology behave exactly as they do on
        private copies — the workers-never-mutate-topology contract."""
        plan = _plan()
        shared = Topology(_CONFIG)
        per_slice = build_slice_targets(shared, plan)

        def run_slice(topology, index):
            payload = sharding._execute_slice(plan, topology,
                                              per_slice[index], index)
            return payload["result"]

        # Private topologies: the reference behavior.
        private = [run_slice(Topology(_CONFIG), index)
                   for index in (0, 1)]
        # Shared topology, interleaved slices: must match exactly.
        assert run_slice(shared, 0) == private[0]
        assert run_slice(shared, 1) == private[1]
        # And again after both ran — nothing accumulated in the topology.
        assert run_slice(shared, 0) == private[0]
