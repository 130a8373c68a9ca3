"""Per-destination delivery and the burst ring walk.

FlashRoute's ring walk delivers responses only when the visited block is
owed one (``ScanRuntime.owes``) and sends its probes in bursts.  That is
meant to be *exact*: the same probes, responses and decisions as a walk
that drains before and sends after every visit.  An attached event
recorder pins that per-visit schedule, so a recorder that samples nothing
(``sample=0.0``) is the in-tree oracle the burst walk is compared with.

Yarrp's bulk loop makes the same bargain: its oracle is the per-step loop
in ``oracle.yarrp``, which delivers before every (destination, TTL) step.
"""

import io
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracle.yarrp import OracleYarrp
from repro.api import Engine, ScanRequest
from repro.baselines.yarrp import Yarrp, YarrpConfig, YarrpUdpEncodingError
from repro.core.config import FlashRouteConfig
from repro.core.output import result_to_dict
from repro.core.prober import FlashRoute
from repro.core.resilience import (ResilienceConfig, ScanInterrupted,
                                   load_checkpoint)
from repro.core.runtime import BURST_PROBES, ScanRuntime
from repro.net.icmp import IcmpResponse, ResponseKind
from repro.net.packets import ProbeHeader
from repro.obs.events import EventRecorder
from repro.obs.telemetry import Telemetry
from repro.simnet.config import TopologyConfig
from repro.simnet.faults import FaultModel
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology

TOOLS = {
    "flashroute-16": FlashRouteConfig.flashroute_16,
    "flashroute-32": FlashRouteConfig.flashroute_32,
    "yarrp-32-udp-sim": FlashRouteConfig.yarrp32_udp_simulation,
}

#: name -> (fault model, resilience knobs)
ADVERSITY = {
    "clean": (None, {}),
    "loss+retries": (FaultModel(probe_loss=0.1, seed=3), {"retries": 2}),
    "duplicates+reorder": (FaultModel(duplicate_probability=0.3,
                                      reorder_window=0.5, seed=4), {}),
    "adaptive": (None, {"adaptive_rate": True}),
}


@lru_cache(maxsize=None)
def topology(prefixes, hop_latency=0.002, jitter=0.004, seed=5):
    return Topology(TopologyConfig(num_prefixes=prefixes, seed=seed,
                                   hop_latency=hop_latency,
                                   latency_jitter=jitter))


def per_visit():
    """Telemetry that records nothing but makes every visit deliver."""
    return Telemetry(metrics=False, events=EventRecorder(
        stream=io.StringIO(), sample=0.0))


def scan(topo, config, faults=None, telemetry=None):
    network = SimulatedNetwork(topo, faults=faults)
    result = FlashRoute(config, telemetry=telemetry).scan(network)
    return result, network


def interrupting(stop_after, path, **knobs):
    """A resilience config that checkpoints to ``path`` and interrupts the
    scan at the boundary of round ``stop_after``."""
    def hook(round_no):
        if round_no >= stop_after:
            raise KeyboardInterrupt
    return ResilienceConfig(checkpoint_path=str(path), round_hook=hook,
                            **knobs)


class CountingNetwork:
    """Forwards to a network and keeps the length of every batch."""

    def __init__(self, network):
        self._network = network
        self.batches = []

    def __getattr__(self, name):
        return getattr(self._network, name)

    def send_probes(self, probes, dst_port=33434, proto=17, flow=None):
        self.batches.append(len(probes))
        return self._network.send_probes(probes, dst_port, proto, flow)


class TestBurstWalkEqualsPerVisitWalk:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(prefixes=st.integers(2, 300),
           hop_latency=st.sampled_from([0.002, 0.03, 0.2]),
           rate=st.sampled_from([100.0, 2000.0, 50000.0]),
           round_seconds=st.sampled_from([0.05, 1.0]),
           tool=st.sampled_from(sorted(TOOLS)),
           adversity=st.sampled_from(sorted(ADVERSITY)),
           seed=st.integers(0, 50))
    def test_generated(self, prefixes, hop_latency, rate, round_seconds,
                       tool, adversity, seed):
        faults, knobs = ADVERSITY[adversity]
        config = TOOLS[tool](
            probing_rate=rate, round_seconds=round_seconds, seed=seed,
            resilience=ResilienceConfig(**knobs) if knobs else None)
        topo = topology(prefixes, hop_latency, hop_latency)
        burst, burst_net = scan(topo, config, faults)
        oracle, oracle_net = scan(topo, config, faults, per_visit())
        assert result_to_dict(burst) == result_to_dict(oracle)
        assert burst_net.stats() == oracle_net.stats()

    @staticmethod
    def pinned(hop_latency, jitter, rate, telemetry=None):
        request = ScanRequest(tool="flashroute-16", prefixes=8, seed=5,
                              rate=rate)
        engine = Engine(topology=topology(8, hop_latency, jitter))
        return engine.open_session(request, telemetry=telemetry).run()

    def test_late_arrivals_steer_the_walk(self):
        """Responses that arrive after their block's next visit change
        its decisions: the slow network takes 142 probes where the default
        one takes 134, and both walks agree on it."""
        burst = self.pinned(0.08, 0.08, 2000.0)
        assert result_to_dict(burst) == \
            result_to_dict(self.pinned(0.08, 0.08, 2000.0, per_visit()))
        assert burst.probes_sent == 142
        assert self.pinned(0.002, 0.004, 2000.0).probes_sent == 134

    def test_mid_round_deliveries_decide(self, monkeypatch):
        """A case that needs the owed-in-mid-round branch: delivering only
        at round end would send 138 probes, not 134."""
        owed = []
        owes = ScanRuntime.owes
        monkeypatch.setattr(
            ScanRuntime, "owes",
            lambda self, offset: owed.append(owes(self, offset)) or owed[-1])
        burst = self.pinned(0.03, 0.03, 500.0)
        assert any(owed) and not all(owed)
        assert burst.probes_sent == 134
        monkeypatch.setattr(ScanRuntime, "owes", lambda self, offset: False)
        assert self.pinned(0.03, 0.03, 500.0).probes_sent == 138


YARRP = {
    "yarrp-16": YarrpConfig.yarrp_16,
    "yarrp-32": YarrpConfig.yarrp_32,
}


def yarrp_scan(scanner, topo, config, faults=None, telemetry=None):
    """A Yarrp scan's result and its per-probe ``(send_time, dst, ttl)``
    log."""
    network = SimulatedNetwork(topo, faults=faults, log_probes=True)
    result = scanner(config, telemetry=telemetry).scan(network)
    return result_to_dict(result), list(network.probe_log)


def yarrp_recorded(scanner, topo, config, faults=None, sample=0.0):
    """:func:`yarrp_scan` with an event recorder attached, plus what it
    wrote."""
    stream = io.StringIO()
    recorder = EventRecorder(stream=stream, sample=sample)
    outcome = yarrp_scan(scanner, topo, config, faults,
                         Telemetry(metrics=False, events=recorder))
    return outcome, stream.getvalue(), recorder.events_sampled_out


class TestYarrpBurstsEqualPerStepLoop:
    """Yarrp's bulk loop sends in bursts and delivers only when an
    answer it is owed could change the next send; the per-step loop in
    ``oracle.yarrp`` delivers before every step.  Same probes at the same
    times, same result.  An attached recorder makes every TTL steer once
    fill mode or protection is on, so then the two write the same event
    stream line for line; Yarrp-32 alone keeps its 64-probe bursts, and
    a recorder that samples nothing compares what is left."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prefixes=st.integers(2, 300),
           rate=st.floats(1.0, 100_000.0),
           tool=st.sampled_from(sorted(YARRP)),
           radius=st.integers(0, 6),
           timeout=st.floats(0.2, 30.0),
           adversity=st.sampled_from(sorted(ADVERSITY)),
           seed=st.integers(0, 50))
    def test_generated(self, prefixes, rate, tool, radius, timeout,
                       adversity, seed):
        faults, knobs = ADVERSITY[adversity]
        config = YARRP[tool](
            probing_rate=rate, neighborhood_radius=radius,
            neighborhood_timeout=timeout, seed=seed,
            resilience=ResilienceConfig(**knobs) if knobs else None)
        topo = topology(prefixes)
        assert yarrp_scan(Yarrp, topo, config, faults) \
            == yarrp_scan(OracleYarrp, topo, config, faults)
        sample = 1.0 if tool == "yarrp-16" or radius else 0.0
        assert yarrp_recorded(Yarrp, topo, config, faults, sample) \
            == yarrp_recorded(OracleYarrp, topo, config, faults, sample)


class TestYarrpCrossResume:
    """With fill mode or protection on, both loops deliver the chunk's last
    step before its boundary, so they write the same checkpoint there;
    each resumes from the other's and sends what the uninterrupted scan
    sent after that boundary, at the same times, to the same result."""

    @pytest.mark.parametrize("stop_after", [1, 2, 5, 9])
    @pytest.mark.parametrize("latency, rate", [(0.01, 20.0), (0.002, 50.0)],
                             ids=["in-flight", "arrived"])
    @pytest.mark.parametrize("variant", [
        YarrpConfig.yarrp_16,
        lambda **knobs: YarrpConfig.yarrp_32(neighborhood_radius=3,
                                             neighborhood_timeout=2.0,
                                             **knobs)],
        ids=["yarrp-16", "yarrp-32-protected"])
    def test_resume(self, tmp_path, variant, latency, rate, stop_after):
        topo = topology(48, latency, latency, 3)

        def network():
            return SimulatedNetwork(topo, log_probes=True,
                                    faults=FaultModel(probe_loss=0.1, seed=3))

        def config(resilience):
            return variant(probing_rate=rate, seed=5, resilience=resilience)

        plain = config(ResilienceConfig(retries=1))
        reference = network()
        expected = result_to_dict(Yarrp(plain).scan(reference))
        states = {}
        for writer in (OracleYarrp, Yarrp):
            path = tmp_path / f"{writer.__name__}.ckpt"
            with pytest.raises(ScanInterrupted):
                writer(config(interrupting(stop_after, path,
                                           retries=1))).scan(network())
            states[writer] = load_checkpoint(str(path))["state"]
        assert states[OracleYarrp] == states[Yarrp]
        sent_before = states[Yarrp]["result"]["probes_sent"]
        for writer, reader in ((OracleYarrp, Yarrp), (Yarrp, OracleYarrp)):
            resumed = network()
            result = reader(plain).resume(resumed, states[writer])
            assert result_to_dict(result) == expected
            assert list(resumed.probe_log) \
                == list(reference.probe_log)[sent_before:]


class TestInterruptResume:
    """A checkpoint restores the queue but not what each block is owed;
    ``restore_state`` has to rebuild it.  Sized so that round trips span
    several rounds (a ring walk outlasts ``round_seconds``): with the debt
    left empty on resume, a dozen of these cases send different probes."""

    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("stop_after", [2, 3, 5])
    @pytest.mark.parametrize("topology_seed", [3, 5])
    @pytest.mark.parametrize("prefixes", [8, 11, 16])
    def test_tiny_ring(self, tmp_path, prefixes, topology_seed, stop_after,
                       retries):
        topo = topology(prefixes, 0.01, 0.01, topology_seed)
        faults = FaultModel(probe_loss=0.1, seed=3) if retries else None

        def config(resilience):
            return FlashRouteConfig.flashroute_16(
                probing_rate=200.0, round_seconds=0.05, seed=5,
                resilience=resilience)

        plain = config(ResilienceConfig(retries=retries))
        reference, _ = scan(topo, plain, faults)
        assert reference.rounds > stop_after
        path = tmp_path / "scan.ckpt"
        with pytest.raises(ScanInterrupted):
            scan(topo, config(interrupting(stop_after, path,
                                           retries=retries)), faults)
        resumed = FlashRoute(plain).resume(
            SimulatedNetwork(topo, faults=faults),
            load_checkpoint(str(path))["state"])
        assert result_to_dict(resumed) == result_to_dict(reference)


def response(arrival, dup=None):
    quoted = ProbeHeader(src=1, dst=2, ttl=1, ipid=0, proto=17,
                         src_port=1024, dst_port=33434, udp_length=8)
    answer = IcmpResponse(kind=ResponseKind.TTL_EXCEEDED, responder=9,
                          quoted=quoted, arrival_time=arrival,
                          quoted_residual_ttl=1)
    answer.dup = dup
    return answer


class ScriptedNetwork:
    """Answers the n-th probe with the n-th scripted response."""

    def __init__(self, topo, script):
        self.topology = topo
        self.script = list(script)

    def send_probes(self, probes, dst_port=33434, proto=17, flow=None):
        return [self.script.pop(0) for _ in probes]

    def export_dynamic_state(self, now):
        return None  # no limiter bins or fault counters to carry


class TestOwes:
    def runtime(self, script):
        topo = topology(8)
        self.base = topo.base_prefix << 8
        return ScanRuntime(ScriptedNetwork(topo, script), "test", {}, 1000.0,
                           on_response=lambda *args: None)

    def test_block_with_an_answer_in_flight_is_owed(self):
        rt = self.runtime([response(0.5), None])
        rt.emit([(self.base + 0x105, 3), (self.base + 0x205, 3)])
        assert rt.owes(1)
        assert not rt.owes(2)  # probed, but nothing will ever arrive
        assert not rt.owes(0)  # never probed

    def test_settled_block_is_not_owed(self):
        rt = self.runtime([response(0.5)])
        rt.emit([(self.base + 0x105, 3)])
        rt.clock.advance_to(0.4)
        rt.drain()
        assert rt.owes(1)  # delivered up to 0.4, the answer comes at 0.5
        rt.clock.advance_to(0.5)
        rt.drain()
        assert not rt.owes(1)

    def test_a_duplicates_later_arrival_keeps_the_block_owed(self):
        rt = self.runtime([response(0.5, dup=response(0.9))])
        rt.emit([(self.base + 0x105, 3)])
        rt.clock.advance_to(0.6)
        rt.drain()
        assert rt.owes(1)
        rt.clock.advance_to(0.9)
        rt.drain()
        assert not rt.owes(1)

    def test_debt_is_keyed_by_the_probes_block_not_the_quoted_one(self):
        rt = self.runtime([response(0.5)])  # quotes dst=2, outside the scan
        rt.emit([(self.base + 0x305, 3)])
        assert rt.owes(3)

    def test_restore_marks_every_block_owed_until_the_queue_is_delivered(self):
        rt = self.runtime([response(0.5), response(0.7)])
        rt.policy_state = dict
        rt.emit([(self.base + 0x105, 3), (self.base + 0x205, 3)])
        rt.clock.advance_to(0.6)
        rt.drain()
        state = rt.capture_state()
        restored = self.runtime([])
        restored.restore_state(state)
        assert all(restored.owes(offset) for offset in range(8))
        restored.clock.advance_to(0.7)
        restored.drain()
        assert not any(restored.owes(offset) for offset in range(8))

    def test_an_event_recorder_pins_per_visit_delivery(self):
        topo = topology(8)
        rt = ScanRuntime(ScriptedNetwork(topo, []), "test", {}, 1000.0,
                         telemetry=per_visit())
        assert all(rt.owes(offset) for offset in range(8))


class TestBurstSize:
    def test_main_phase_probes_arrive_in_bursts(self):
        """An exact count, so the per-visit walk (1.4 probes per call)
        cannot come back unnoticed."""
        topo = topology(1024, seed=7)
        network = CountingNetwork(SimulatedNetwork(topo))
        result = FlashRoute(FlashRouteConfig.flashroute_16()).scan(network)
        main_probes = result.probes_sent - result.preprobe_probes
        assert sum(network.batches) == main_probes
        assert max(network.batches) <= BURST_PROBES
        assert main_probes / len(network.batches) >= 32

    def test_with_retries_too(self):
        topo = topology(1024, seed=7)
        network = CountingNetwork(SimulatedNetwork(
            topo, faults=FaultModel(probe_loss=0.1, seed=3)))
        config = FlashRouteConfig.flashroute_16(
            resilience=ResilienceConfig(retries=2))
        result = FlashRoute(config).scan(network)
        main_probes = result.probes_sent - result.preprobe_probes
        assert max(network.batches) <= BURST_PROBES
        assert main_probes / len(network.batches) >= 32


class TestEveryProbeCountedReachesTheNetwork:
    """``network.probes_sent == result.probes_sent`` on every exit of
    ``ScanRuntime.run``."""

    def test_return(self):
        result, network = scan(topology(64), FlashRouteConfig.flashroute_16())
        assert network.probes_sent == result.probes_sent > 0

    def test_interrupt(self, tmp_path):
        network = SimulatedNetwork(topology(64))
        path = tmp_path / "scan.ckpt"
        with pytest.raises(ScanInterrupted):
            FlashRoute(FlashRouteConfig.flashroute_16(
                resilience=interrupting(2, path))).scan(network)
        partial = load_checkpoint(str(path))["state"]["result"]
        assert network.probes_sent == partial["probes_sent"] > 0

    def test_engine_exception_mid_burst(self):
        """Yarrp's UDP encoding dies mid-chunk (paper footnote 2): the
        probes stamped before it still reach the network."""
        topo = topology(128, seed=3)
        network = SimulatedNetwork(topo)
        scanner = Yarrp(YarrpConfig(max_ttl=32, probe_type="udp",
                                    probing_rate=100.0))
        captured = {}
        run = ScanRuntime.run

        def spy(self, policy, *args):
            captured["result"] = self.result
            return run(self, policy, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScanRuntime, "run", spy)
            with pytest.raises(YarrpUdpEncodingError):
                scanner.scan(network)
        assert network.probes_sent == captured["result"].probes_sent > 0
        assert network.probes_sent % BURST_PROBES  # died inside a chunk
