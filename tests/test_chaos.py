"""The seeded chaos harness and the shard pool's crash recovery.

The acceptance pins: the injector is a pure function of (seed, slice,
attempt) — the same spec replays the same fault sequence; a scan that
loses workers under ``slice_retries`` merges byte-identically to a
clean run; exhausted retries salvage completed slices into a
checkpoint that ``--resume`` finishes byte-identically.
"""

import json

import pytest

from repro.api import ScanRequest
from repro.core.resilience import load_checkpoint
from repro.core.sharding import ShardError, ShardPlan, run_sharded_scan
from repro.obs.metrics import deterministic_snapshot
from repro.testing.chaos import (
    ChaosError,
    ChaosKilled,
    ChaosSpec,
    kill_schedule,
    load_chaos_spec,
    maybe_kill_slice,
    should_kill,
)

_PREFIXES = 64
_SEED = 11


def _plan(**request_fields) -> ShardPlan:
    request = ScanRequest(tool="flashroute-16", prefixes=_PREFIXES,
                          seed=_SEED, **request_fields)
    return ShardPlan(request, collect_metrics=True, events_format="jsonl")


def _deterministic(outcome):
    """The byte-stable triple a chaotic run must reproduce exactly."""
    return (outcome.result.fingerprint(),
            deterministic_snapshot(outcome.metrics_snapshot),
            outcome.events_payload)


class TestChaosSpec:
    def test_validation(self):
        with pytest.raises(ChaosError):
            ChaosSpec(kill_rate=1.5)
        with pytest.raises(ChaosError):
            ChaosSpec(kill_rate=-0.1)
        with pytest.raises(ChaosError):
            ChaosSpec(kills_per_slice=-1)
        with pytest.raises(ChaosError):
            ChaosSpec(kill_slices=(-1,))
        with pytest.raises(ChaosError):
            ChaosSpec(slow_loris=-1)

    @pytest.mark.parametrize("field, value", [
        ("seed", "x"), ("seed", 1.5), ("seed", True),
        ("kill_rate", True), ("kill_rate", "0.5"),
        ("kills_per_slice", 1.5), ("kills_per_slice", False),
        ("slow_loris", 2.5), ("disconnects", "2"), ("resets", True),
        ("malformed", None),
    ])
    def test_each_field_is_held_to_its_type(self, field, value):
        # Each was accepted, or failed without naming its field; a string
        # or float seed then killed every slice attempt in should_kill.
        with pytest.raises(ChaosError, match=field):
            ChaosSpec.from_dict({field: value})

    def test_zero_kills_per_slice_disarms_the_injector(self):
        spec = ChaosSpec(seed=1, kill_slices=(3,), kills_per_slice=0)
        assert not spec.kills_workers
        assert not should_kill(spec, 3, 0)

    def test_round_trips_through_dict(self):
        spec = ChaosSpec(seed=9, kill_slices=(1, 5), kill_rate=0.25,
                         kills_per_slice=2, slow_loris=3, disconnects=2,
                         resets=1, malformed=4)
        assert ChaosSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ChaosError):
            ChaosSpec.from_dict({"seed": 1, "bogus": True})

    def test_load_inline_json(self):
        spec = load_chaos_spec('{"seed": 3, "kill_slices": [2]}')
        assert spec.seed == 3
        assert spec.kill_slices == (2,)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 4, "kill_rate": 0.5}))
        spec = load_chaos_spec(str(path))
        assert spec.seed == 4
        assert spec.kill_rate == 0.5

    def test_load_rejects_garbage(self):
        with pytest.raises(ChaosError):
            load_chaos_spec("not json at all")
        with pytest.raises(ChaosError):
            load_chaos_spec('[1, 2, 3]')


class TestDeterministicInjection:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec(seed=5, kill_rate=0.4)
        twice = [kill_schedule(spec, slices=16, max_attempts=3)
                 for _ in range(2)]
        assert twice[0] == twice[1]
        assert twice[0]  # 40% over 16 slices: some kill fires

    def test_different_seeds_differ(self):
        schedules = {
            seed: kill_schedule(ChaosSpec(seed=seed, kill_rate=0.4),
                                slices=64, max_attempts=1)
            for seed in (1, 2)
        }
        assert schedules[1] != schedules[2]

    def test_kill_slices_always_fire(self):
        spec = ChaosSpec(seed=0, kill_slices=(3, 7))
        assert should_kill(spec, 3, 0)
        assert should_kill(spec, 7, 0)
        assert not should_kill(spec, 4, 0)

    def test_kills_per_slice_caps_attempts(self):
        spec = ChaosSpec(seed=0, kill_slices=(3,), kills_per_slice=2)
        assert should_kill(spec, 3, 0)
        assert should_kill(spec, 3, 1)
        assert not should_kill(spec, 3, 2)  # retries can succeed

    def test_maybe_kill_raises_with_context(self):
        spec = ChaosSpec(seed=12, kill_slices=(6,))
        with pytest.raises(ChaosKilled) as exc_info:
            maybe_kill_slice(spec, 6, 0)
        message = str(exc_info.value)
        assert "slice 6" in message
        assert "seed 12" in message
        maybe_kill_slice(spec, 5, 0)  # no kill, no raise


class TestSliceRetryRecovery:
    def test_kill_two_of_four_workers_is_byte_identical(self):
        baseline = _deterministic(run_sharded_scan(_plan(shards=4)))
        spec = ChaosSpec(seed=7, kill_slices=(2, 9))
        outcome = run_sharded_scan(_plan(shards=4), slice_retries=1,
                                   chaos=spec)
        assert outcome.slices_retried == 2
        assert _deterministic(outcome) == baseline

    def test_same_seed_twice_same_merged_output(self):
        spec = ChaosSpec(seed=5, kill_rate=0.3)
        runs = [run_sharded_scan(_plan(shards=2), slice_retries=2,
                                 chaos=spec) for _ in range(2)]
        assert runs[0].slices_retried == runs[1].slices_retried
        assert runs[0].slices_retried > 0
        assert _deterministic(runs[0]) == _deterministic(runs[1])

    def test_sequential_path_retries_too(self):
        baseline = _deterministic(run_sharded_scan(_plan(shards=1)))
        outcome = run_sharded_scan(_plan(shards=1), slice_retries=1,
                                   chaos=ChaosSpec(seed=1,
                                                   kill_slices=(4,)))
        assert outcome.slices_retried == 1
        assert _deterministic(outcome) == baseline

    def test_retries_compose_with_faults(self):
        overrides = dict(loss=0.03, blackout=0.05, fault_seed=9)
        baseline = _deterministic(
            run_sharded_scan(_plan(shards=4, **overrides)))
        outcome = run_sharded_scan(
            _plan(shards=4, **overrides), slice_retries=1,
            chaos=ChaosSpec(seed=2, kill_slices=(0, 11)))
        assert _deterministic(outcome) == baseline

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_sharded_scan(_plan(shards=2), slice_retries=-1)


class TestSalvageCheckpoint:
    def test_exhausted_retries_salvage_then_resume(self, tmp_path):
        baseline = _deterministic(run_sharded_scan(_plan(shards=4)))
        path = str(tmp_path / "scan.ckpt")
        # kills_per_slice=2 outlives slice_retries=1: slice 14 dies on
        # both attempts, so the pool gives up and salvages.
        spec = ChaosSpec(seed=3, kill_slices=(14,), kills_per_slice=2)
        with pytest.raises(ShardError) as exc_info:
            run_sharded_scan(_plan(shards=4), slice_retries=1,
                             chaos=spec, salvage_path=path)
        error = exc_info.value
        assert error.slice_index == 14
        assert error.attempts == 2
        assert error.checkpoint_path == path
        assert "--resume" in str(error)
        document = load_checkpoint(path)
        resumed = run_sharded_scan(_plan(shards=4),
                                   resume_state=document["state"])
        assert resumed.slices_resumed > 0
        assert _deterministic(resumed) == baseline

    def test_checkpoint_path_doubles_as_salvage_target(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        spec = ChaosSpec(seed=3, kill_slices=(8,), kills_per_slice=1)
        with pytest.raises(ShardError) as exc_info:
            run_sharded_scan(_plan(shards=2), checkpoint_path=path,
                             chaos=spec)
        assert exc_info.value.checkpoint_path == path
        assert load_checkpoint(path)["engine"] == "sharded"

    def test_no_path_no_salvage(self):
        spec = ChaosSpec(seed=3, kill_slices=(8,))
        with pytest.raises(ShardError) as exc_info:
            run_sharded_scan(_plan(shards=2), chaos=spec)
        assert exc_info.value.checkpoint_path is None


class TestChaosCliFlags:
    def _scan(self, *extra):
        from repro.cli import main

        return main(["scan", "--prefixes", "64", *extra])

    def test_slice_retries_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            self._scan("--slice-retries", "1")
        assert exc_info.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_chaos_spec_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            self._scan("--chaos-spec", '{"seed": 1}')
        assert exc_info.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_invalid_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            self._scan("--shards", "2", "--chaos-spec",
                       '{"seed": 1, "bogus": 2}')
        assert exc_info.value.code == 2
        assert "--chaos-spec" in capsys.readouterr().err

    def test_mistyped_spec_field_exits_two(self, capsys):
        # Used to exit 0: every first attempt died of OverflowError in
        # should_kill, so the spec acted as kill_rate 1.0.
        with pytest.raises(SystemExit) as exc_info:
            self._scan("--shards", "2", "--slice-retries", "1",
                       "--chaos-spec", '{"seed": "x", "kill_rate": 0.5}')
        assert exc_info.value.code == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_cli_kill_and_recover_matches_clean(self, tmp_path, capsys):
        from repro.cli import main

        clean = tmp_path / "clean.json"
        chaotic = tmp_path / "chaotic.json"
        assert main(["scan", "--prefixes", "64", "--shards", "4",
                     "--output", str(clean)]) == 0
        assert main(["scan", "--prefixes", "64", "--shards", "4",
                     "--slice-retries", "1",
                     "--chaos-spec", '{"seed": 7, "kill_slices": [2, 9]}',
                     "--output", str(chaotic)]) == 0
        capsys.readouterr()
        assert clean.read_bytes() == chaotic.read_bytes()
