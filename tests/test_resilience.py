"""Resilience layer (repro.core.resilience): probe retransmission,
adaptive rate backoff, checkpoint/resume, and the CLI's interrupt/resume
surface.  The headline properties: an inert config is byte-identical to
the seed behaviour for every scanner, and an interrupted-then-resumed
scan equals an uninterrupted one."""

import dataclasses
import gc
import json
import warnings

import pytest

from repro.api import ScanRequest
from repro.baselines.yarrp import Yarrp, YarrpConfig
from repro.cli import main
from repro.core.config import FlashRouteConfig
from repro.core.prober import FlashRoute
from repro.core.resilience import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    AdaptiveRateController,
    CheckpointError,
    ResilienceConfig,
    RetryTracker,
    ScanInterrupted,
    load_checkpoint,
    write_checkpoint,
)
from repro.core.scanner import create_scanner
from repro.core.targets import random_targets
from repro.obs import EventRecorder, Telemetry, read_events, validate_events
from repro.obs.scandiff import diff_views, view_from_events
from repro.simnet import (
    FaultModel,
    SimulatedNetwork,
    Topology,
    TopologyConfig,
)

from oracle.network import OracleNetwork

CFG = TopologyConfig(num_prefixes=96, seed=13)
FAULT_SEED = 0x10552020

ALL_TOOLS = ("flashroute-16", "yarrp-16", "scamper-16", "traceroute")

#: An inert config: every knob at its default.  The tentpole property is
#: that this is indistinguishable from ``resilience=None``.
INERT = dict(retries=0, adaptive_rate=False)


@pytest.fixture(scope="module")
def topology():
    return Topology(CFG)


@pytest.fixture(scope="module")
def targets(topology):
    return random_targets(topology, seed=1)


def run_tool(topology, tool, resilience=None, events_path=None,
             faults=None, network_class=SimulatedNetwork, rate=None):
    telemetry = None
    if events_path is not None:
        telemetry = Telemetry(events=EventRecorder(path=str(events_path)))
    scanner = create_scanner(ScanRequest(tool=tool, rate=rate), telemetry,
                             resilience)
    network = network_class(topology, faults=faults)
    result = scanner.scan(network, targets=random_targets(topology, seed=1))
    if telemetry is not None:
        telemetry.close()
    return result


# --------------------------------------------------------------------- #
# Property: inert resilience is byte-identical to seed behaviour
# --------------------------------------------------------------------- #

class TestInertEquivalence:
    @pytest.mark.parametrize("tool", ALL_TOOLS)
    def test_results_byte_identical(self, topology, tool):
        baseline = run_tool(topology, tool)
        inert = run_tool(topology, tool,
                         resilience=ResilienceConfig(**INERT))
        assert inert.fingerprint() == baseline.fingerprint()

    @pytest.mark.parametrize("tool", ALL_TOOLS)
    def test_event_logs_byte_identical(self, topology, tool, tmp_path):
        base_log = tmp_path / "base.jsonl"
        inert_log = tmp_path / "inert.jsonl"
        run_tool(topology, tool, events_path=base_log)
        run_tool(topology, tool, resilience=ResilienceConfig(**INERT),
                 events_path=inert_log)
        assert inert_log.read_bytes() == base_log.read_bytes()

    def test_uncached_network_equivalence(self, topology):
        """The property holds on the simulator's uncached path too."""
        for tool in ("flashroute-16", "yarrp-16"):
            baseline = run_tool(topology, tool, network_class=OracleNetwork)
            inert = run_tool(topology, tool,
                             resilience=ResilienceConfig(**INERT),
                             network_class=OracleNetwork)
            assert inert.fingerprint() == baseline.fingerprint()
            # And the uncached result equals the cached one.
            assert inert.fingerprint() == \
                run_tool(topology, tool).fingerprint()

    def test_retries_are_deterministic(self, topology):
        faults = FaultModel.symmetric_loss(0.05, seed=FAULT_SEED)
        resil = ResilienceConfig(retries=2)
        first = run_tool(topology, "flashroute-16", resilience=resil,
                         faults=faults)
        again = run_tool(topology, "flashroute-16", resilience=resil,
                         faults=faults)
        assert first.fingerprint() == again.fingerprint()


# --------------------------------------------------------------------- #
# Retransmission: recovery under loss
# --------------------------------------------------------------------- #

class TestRetryRecovery:
    @pytest.mark.parametrize("tool", ALL_TOOLS)
    def test_retries_recover_responses(self, topology, tool):
        faults = FaultModel.symmetric_loss(0.05, seed=FAULT_SEED)
        bare = run_tool(topology, tool, faults=faults)
        retried = run_tool(topology, tool,
                           resilience=ResilienceConfig(retries=2),
                           faults=faults)
        assert retried.probes_sent > bare.probes_sent
        assert retried.responses > bare.responses
        assert retried.interface_count() >= bare.interface_count()

    def test_recovers_80_percent_of_induced_holes(self):
        """The acceptance number, at the bench configuration."""
        from repro.experiments import ExperimentContext, run_loss_recovery

        context = ExperimentContext.for_bench(128)
        outcome = run_loss_recovery(
            context, loss_rates=(0.05,),
            tools=("flashroute-16", "yarrp-16"), retries=2)
        for (tool, loss), fraction in outcome.recovery.items():
            assert fraction >= 0.80, (tool, loss, fraction)
        payload = outcome.to_json()
        assert set(payload) == {"headers", "rows", "recovery"}
        assert payload["recovery"]  # machine-readable CI artifact

    def test_retry_events_validate(self, topology, tmp_path):
        """Retried scans still produce valid logs, in both encodings."""
        faults = FaultModel.symmetric_loss(0.05, seed=FAULT_SEED)
        resil = ResilienceConfig(retries=2)
        jsonl = tmp_path / "retry.jsonl"
        binary = tmp_path / "retry.bin"
        run_tool(topology, "flashroute-16", resilience=resil,
                 faults=faults, events_path=jsonl)
        run_tool(topology, "flashroute-16", resilience=resil,
                 faults=faults, events_path=binary)
        text_events = read_events(str(jsonl))
        validate_events(text_events)
        retry_events = [e for e in text_events[1:]
                        if e["ev"] == "retry"]
        assert retry_events
        assert all(e["attempt"] >= 1 for e in retry_events)
        assert read_events(str(binary)) == text_events


# --------------------------------------------------------------------- #
# Adaptive rate backoff
# --------------------------------------------------------------------- #

class TestAdaptiveRateController:
    def controller(self, base=1000.0):
        return AdaptiveRateController(base)

    def test_quiet_round_is_a_no_op(self):
        controller = self.controller()
        assert controller.observe_round(100, 90, 0) is None
        assert controller.rate == 1000.0

    def test_loss_backs_off_multiplicatively(self):
        controller = self.controller()
        assert controller.observe_round(100, 10, 0) == ("backoff", 500.0)
        assert controller.observe_round(100, 10, 0) == ("backoff", 250.0)
        assert controller.backoffs == 2

    def test_drops_back_off_too(self):
        controller = self.controller()
        assert controller.observe_round(100, 95, 10) == ("backoff", 500.0)

    def test_rate_is_floor_bounded(self):
        controller = self.controller()
        for _ in range(20):
            controller.observe_round(100, 0, 0)
        assert controller.rate == pytest.approx(100.0)  # 10% of base
        assert controller.observe_round(100, 0, 0) is None  # at the floor

    def test_clean_rounds_recover_additively(self):
        controller = self.controller()
        controller.observe_round(100, 0, 0)          # 1000 -> 500
        assert controller.observe_round(100, 90, 0) == ("recover", 625.0)
        for _ in range(10):
            controller.observe_round(100, 90, 0)
        assert controller.rate == 1000.0             # capped at base
        assert controller.observe_round(100, 90, 0) is None

    def test_state_round_trip(self):
        controller = self.controller()
        controller.observe_round(100, 0, 0)
        restored = self.controller()
        restored.restore_state(controller.state_dict())
        assert restored.rate == controller.rate
        assert restored.backoffs == controller.backoffs

    def test_engine_emits_rate_change_events(self, topology, tmp_path):
        """Heavy loss must trigger at least one recorded backoff.

        The base rate is pinned well above the controller's 1 pps
        absolute floor so the backoff has room to act (the scaled
        default for a 96-prefix simulation sits *at* the floor).
        """
        log = tmp_path / "adaptive.jsonl"
        faults = FaultModel.symmetric_loss(0.9, seed=FAULT_SEED)
        run_tool(topology, "flashroute-16",
                 resilience=ResilienceConfig(adaptive_rate=True),
                 faults=faults, events_path=log, rate=200.0)
        events = read_events(str(log))
        validate_events(events)
        changes = [e for e in events[1:] if e["ev"] == "rate_change"]
        assert changes
        assert changes[0]["reason"] == "backoff"
        assert changes[0]["rate"] == 100.0  # 200 halved once


class TestRetryTracker:
    def test_lifecycle(self):
        tracker = RetryTracker(budget=1, timeout=1.0)
        tracker.record_sent(5, 7, vt=0.0, attempt=0)
        assert tracker.has_open(5)
        tracker.sweep(0.5)                 # not timed out yet
        assert tracker.take_due(5) == []
        tracker.sweep(1.0)                 # timed out -> due
        assert tracker.take_due(5) == [(7, 1)]
        tracker.record_sent(5, 7, vt=1.0, attempt=1)
        tracker.record_response(5, 7)
        assert tracker.recovered == 1
        assert not tracker.has_open(5)

    def test_budget_exhaustion(self):
        tracker = RetryTracker(budget=1, timeout=1.0)
        tracker.record_sent(5, 7, vt=0.0, attempt=1)
        tracker.sweep(2.0)
        assert tracker.exhausted == 1
        assert tracker.take_due(5) == []

    def test_state_round_trip(self):
        tracker = RetryTracker(budget=2, timeout=1.0)
        tracker.record_sent(5, 7, vt=0.0, attempt=0)
        tracker.record_sent(5, 9, vt=0.0, attempt=0)
        tracker.sweep(1.0)
        restored = RetryTracker(budget=2, timeout=1.0)
        restored.restore_state(tracker.state_dict())
        assert restored.state_dict() == tracker.state_dict()
        assert restored.take_due(5) == [(7, 1), (9, 1)]


# --------------------------------------------------------------------- #
# Checkpoint files
# --------------------------------------------------------------------- #

class TestCheckpointFiles:
    STATE = {"engine": "flashroute", "clock": 1.25, "result": {}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE,
                         meta={"tool": "flashroute-16"})
        loaded = load_checkpoint(str(path))
        assert loaded["format"] == CHECKPOINT_FORMAT
        assert loaded["version"] == CHECKPOINT_VERSION
        assert loaded["engine"] == "flashroute"
        assert loaded["invocation"] == {"tool": "flashroute-16"}
        assert loaded["state"] == self.STATE

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("this is not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "future.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        document = json.loads(path.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_rejects_tampered_state(self, tmp_path):
        path = tmp_path / "tampered.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        document = json.loads(path.read_text())
        document["state"]["clock"] = 99.0
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(path))


class TestAtomicCheckpointWrite:
    """``write_checkpoint`` is tmp-file-then-rename: a crash mid-write
    can truncate the temp file, never the checkpoint itself."""

    STATE = {"engine": "flashroute", "clock": 1.25, "result": {}}

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        assert path.exists()
        assert not (tmp_path / "scan.ckpt.tmp").exists()

    def test_failed_write_preserves_previous_checkpoint(self, tmp_path,
                                                        monkeypatch):
        import os as os_module

        from repro.core import resilience

        path = tmp_path / "scan.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        good = path.read_bytes()

        # A crash between the tmp write and the rename (the fsync here)
        # must leave the previous checkpoint byte-identical and clean
        # up the truncated tmp file.
        def exploding_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(resilience.os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(str(path), "flashroute",
                             dict(self.STATE, clock=9.0))
        monkeypatch.setattr(resilience.os, "fsync", os_module.fsync)
        assert path.read_bytes() == good
        assert load_checkpoint(str(path))["state"] == self.STATE
        assert not (tmp_path / "scan.ckpt.tmp").exists()

    def test_truncated_tmp_does_not_break_load_or_next_write(
            self, tmp_path):
        path = tmp_path / "scan.ckpt"
        write_checkpoint(str(path), "flashroute", self.STATE)
        # Simulate a crash that left a half-written temp file around.
        (tmp_path / "scan.ckpt.tmp").write_text('{"format": "flashro')
        assert load_checkpoint(str(path))["state"] == self.STATE
        write_checkpoint(str(path), "flashroute",
                         dict(self.STATE, clock=2.5))
        assert load_checkpoint(str(path))["state"]["clock"] == 2.5
        assert not (tmp_path / "scan.ckpt.tmp").exists()


# --------------------------------------------------------------------- #
# Interrupt + resume equals uninterrupted (engine level)
# --------------------------------------------------------------------- #

def interrupt_after(rounds, path):
    def hook(round_no):
        if round_no >= rounds:
            raise KeyboardInterrupt
    return ResilienceConfig(checkpoint_path=str(path), checkpoint_every=1,
                            round_hook=hook)


class TestInterruptResume:
    @pytest.mark.parametrize("stop_after", [1, 3, 7])
    def test_flashroute(self, topology, targets, tmp_path, stop_after):
        reference = FlashRoute(FlashRouteConfig.flashroute_16()).scan(
            SimulatedNetwork(topology), targets=targets)
        path = tmp_path / "fr.ckpt"
        config = FlashRouteConfig.flashroute_16(
            resilience=interrupt_after(stop_after, path))
        with pytest.raises(ScanInterrupted) as exc_info:
            FlashRoute(config).scan(SimulatedNetwork(topology),
                                    targets=targets)
        assert exc_info.value.checkpoint_path == str(path)
        document = load_checkpoint(str(path))
        resumed = FlashRoute(FlashRouteConfig.flashroute_16()).resume(
            SimulatedNetwork(topology), document["state"])
        assert resumed.fingerprint() == reference.fingerprint()

    @pytest.mark.parametrize("stop_after", [2, 10, 20])
    def test_yarrp(self, topology, targets, tmp_path, stop_after):
        reference = Yarrp(YarrpConfig.yarrp_16()).scan(
            SimulatedNetwork(topology), targets=targets)
        path = tmp_path / "yarrp.ckpt"
        config = dataclasses.replace(
            YarrpConfig.yarrp_16(),
            resilience=interrupt_after(stop_after, path))
        with pytest.raises(ScanInterrupted) as exc_info:
            Yarrp(config).scan(SimulatedNetwork(topology), targets=targets)
        assert exc_info.value.checkpoint_path == str(path)
        document = load_checkpoint(str(path))
        resumed = Yarrp(YarrpConfig.yarrp_16()).resume(
            SimulatedNetwork(topology), document["state"])
        assert resumed.fingerprint() == reference.fingerprint()

    def test_wrong_engine_state_rejected(self, topology, targets, tmp_path):
        path = tmp_path / "fr.ckpt"
        config = FlashRouteConfig.flashroute_16(
            resilience=interrupt_after(1, path))
        with pytest.raises(ScanInterrupted):
            FlashRoute(config).scan(SimulatedNetwork(topology),
                                    targets=targets)
        state = load_checkpoint(str(path))["state"]
        with pytest.raises(CheckpointError):
            Yarrp(YarrpConfig.yarrp_16()).resume(
                SimulatedNetwork(topology), state)


# --------------------------------------------------------------------- #
# CLI: --checkpoint / --interrupt-after-round / --resume
# --------------------------------------------------------------------- #

SCAN_ARGS = ["scan", "--prefixes", "96", "--seed", "3"]


class TestCliInterruptResume:
    def reference_payload(self, capsys, tool="flashroute-16"):
        assert main(SCAN_ARGS + ["--tool", tool, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("tool", ["flashroute-16", "yarrp-16"])
    def test_interrupt_exits_130_then_resume_matches(self, capsys,
                                                     tmp_path, tool):
        reference = self.reference_payload(capsys, tool)
        ckpt = str(tmp_path / "scan.ckpt")
        code = main(SCAN_ARGS + ["--tool", tool, "--checkpoint", ckpt,
                                 "--interrupt-after-round", "2"])
        captured = capsys.readouterr()
        assert code == 130
        assert f"checkpoint written to {ckpt}" in captured.err
        assert f"--resume {ckpt}" in captured.err
        # --resume replays the checkpoint's invocation record: no other
        # flags needed, and the finished scan equals the uninterrupted one.
        assert main(["scan", "--resume", ckpt, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == reference

    def test_interrupt_without_checkpoint_still_exits_130(self, capsys):
        code = main(SCAN_ARGS + ["--interrupt-after-round", "1"])
        captured = capsys.readouterr()
        assert code == 130
        assert "no checkpoint" in captured.err

    def test_resume_missing_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(tmp_path / "absent.ckpt")])
        assert exc_info.value.code == 2
        assert "resume:" in capsys.readouterr().err

    def test_resume_malformed_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(path)])
        assert exc_info.value.code == 2
        assert "resume:" in capsys.readouterr().err

    def test_resume_truncated_exits_2(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        payload = ckpt.read_bytes()
        ckpt.write_bytes(payload[:len(payload) // 2])
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(ckpt)])
        assert exc_info.value.code == 2
        assert "resume:" in capsys.readouterr().err

    def test_resume_version_mismatch_exits_2(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        document["version"] = CHECKPOINT_VERSION + 1
        ckpt.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(ckpt)])
        assert exc_info.value.code == 2
        assert "version" in capsys.readouterr().err

    def test_resume_refuses_a_version_1_checkpoint(self, capsys, tmp_path):
        """Version 1 invocation records carried ``route_cache``; such a
        file must be named as an old version, not as a file without a
        usable invocation record."""
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        assert document["version"] == 2
        document["version"] = 1
        document["invocation"]["route_cache"] = True
        ckpt.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(ckpt)])
        assert exc_info.value.code == 2
        assert "checkpoint version 1 is not supported" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("prefixes", "64"), ("loss", None), ("shards", "2")])
    def test_resume_wrongly_typed_invocation_exits_2(self, capsys,
                                                     tmp_path, field,
                                                     value):
        """The invocation record sits outside ``state_sha256``, so a
        hand-edited one loads; a wrong type must be refused as an
        unusable record, not die comparing ``str <= int``."""
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        document["invocation"][field] = value
        ckpt.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(ckpt)])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "no usable invocation record" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("preprobe", "bogus"), ("split_ttl", 0), ("gap_limit", -3)])
    def test_resume_out_of_domain_invocation_exits_2(self, capsys,
                                                     tmp_path, field,
                                                     value):
        """A well-typed value outside its field's domain, in a file whose
        checksum holds, is an unusable record naming the field — it used
        to pass the type check and die in the engine config."""
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = load_checkpoint(str(ckpt))
        document["invocation"][field] = value
        write_checkpoint(str(ckpt), document["engine"], document["state"],
                         meta=document["invocation"])
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--resume", str(ckpt)])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "no usable invocation record" in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("iface", ["one past the last", -1])
    def test_resume_refuses_a_limiter_bin_outside_the_topology(
            self, capsys, tmp_path, iface):
        """The limiter's store is one slot per interface of the topology:
        a checkpoint (checksum and all) naming any other interface is
        refused, not filed somewhere the probe path never reads."""
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = load_checkpoint(str(ckpt))
        if iface != -1:
            request = ScanRequest.from_dict(document["invocation"],
                                            complete=True)
            iface = len(Topology(request.topology_config()).iface_addrs)
        document["state"]["network"]["ratelimit"]["bins"].append(
            [iface, 0, 1])
        write_checkpoint(str(ckpt), document["engine"], document["state"],
                         meta=document["invocation"])
        assert main(["scan", "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("resume:") and f"interface {iface}" in err
        assert "Traceback" not in err

    def test_resume_unsupported_tool_exits_2(self, capsys, tmp_path):
        """A checkpoint whose invocation names a tool without resume()."""
        ckpt = tmp_path / "scan.ckpt"
        assert main(SCAN_ARGS + ["--checkpoint", str(ckpt),
                                 "--interrupt-after-round", "1"]) == 130
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        document["invocation"]["tool"] = "traceroute"
        ckpt.write_text(json.dumps(document))
        # The checksum covers only the state payload, so the edited
        # invocation loads fine; the scan path then refuses the tool —
        # and closes the telemetry files it had already opened.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["scan", "--resume", str(ckpt), "--events",
                         str(tmp_path / "events.jsonl")]) == 2
            gc.collect()
        assert "does not support" in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_retry_flags_on_cli(self, capsys):
        assert main(SCAN_ARGS + ["--loss", "0.05", "--fault-seed", "7",
                                 "--retries", "2", "--json"]) == 0
        retried = json.loads(capsys.readouterr().out)
        assert main(SCAN_ARGS + ["--loss", "0.05", "--fault-seed", "7",
                                 "--json"]) == 0
        bare = json.loads(capsys.readouterr().out)
        assert retried["probes"] > bare["probes"]
        assert retried["holes"] <= bare["holes"]

    def test_rejects_negative_retries(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(SCAN_ARGS + ["--retries", "-1"])
        assert exc_info.value.code == 2


# --------------------------------------------------------------------- #
# scan-diff attribution of exhausted retry budgets
# --------------------------------------------------------------------- #

class TestScanDiffExhaustedRetries:
    def test_persistent_holes_cite_every_attempt(self, topology, tmp_path):
        clean_log = tmp_path / "clean.jsonl"
        lossy_log = tmp_path / "lossy.jsonl"
        run_tool(topology, "flashroute-16", events_path=clean_log)
        model = FaultModel.symmetric_loss(0.4, seed=FAULT_SEED)
        run_tool(topology, "flashroute-16",
                 resilience=ResilienceConfig(retries=2),
                 faults=model, events_path=lossy_log)
        view_a = view_from_events("clean", read_events(str(clean_log)))
        view_b = view_from_events("lossy", read_events(str(lossy_log)))
        divergences = diff_views(view_a, view_b, fault_model=model)
        exhausted = [d for d in divergences
                     if d.cause == "exhausted_retries"]
        assert exhausted, "no hole survived the whole retry budget"
        for divergence in exhausted:
            # One citation per attempt, each naming the injector's draw.
            assert "attempt 0:" in divergence.detail
            assert "attempt 1:" in divergence.detail
            assert "@vt=" in divergence.detail

    def test_without_fault_model_still_classified(self, topology, tmp_path):
        clean_log = tmp_path / "clean.jsonl"
        lossy_log = tmp_path / "lossy.jsonl"
        run_tool(topology, "flashroute-16", events_path=clean_log)
        model = FaultModel.symmetric_loss(0.4, seed=FAULT_SEED)
        run_tool(topology, "flashroute-16",
                 resilience=ResilienceConfig(retries=2),
                 faults=model, events_path=lossy_log)
        view_a = view_from_events("clean", read_events(str(clean_log)))
        view_b = view_from_events("lossy", read_events(str(lossy_log)))
        divergences = diff_views(view_a, view_b)   # no fault model given
        exhausted = [d for d in divergences
                     if d.cause == "exhausted_retries"]
        assert exhausted
        assert all("attempts, all unanswered" in d.detail
                   for d in exhausted)
