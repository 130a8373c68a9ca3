"""The probe path's loops against the functions that specify them.

``ScanRuntime.emit`` and ``ScanRuntime.drain`` compute the §3.1 marking
and its decoding inline and read the per-destination source port from a
memo; ``encode_probe``, ``decode_response``, ``destination_intact`` and
``rtt_ms`` remain the specification.  The generated tests here hold the
two loops to those functions, the census holds the gain as a count (calls
per probe, not a timing), and the §5.3 check is held as a conservation
law against the simulator's own counters.
"""

import collections
import os
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.yarrp import Yarrp, YarrpConfig, YarrpUdpEncodingError
from repro.core.config import FlashRouteConfig
from repro.core.encoding import (EncodingError, decode_response,
                                 destination_intact, encode_probe, rtt_ms)
from repro.core.prober import FlashRoute, _ScanRun
from repro.core.runtime import ScanRuntime
from repro.net.icmp import IcmpResponse, ResponseKind
from repro.net.packets import ProbeHeader
from repro.simnet.config import TopologyConfig
from repro.simnet.network import SimulatedNetwork
from repro.simnet.topology import Topology

PREFIXES = 8


@lru_cache(maxsize=None)
def topology(prefixes=PREFIXES, seed=5, **knobs):
    return Topology(TopologyConfig(num_prefixes=prefixes, seed=seed, **knobs))


def yarrp_udp_length(send_time):
    """Yarrp's UDP mode: elapsed milliseconds in the length field."""
    length = 8 + int(send_time * 1000.0)
    if length > 1472:
        raise YarrpUdpEncodingError("Message too long")
    return length


class EchoNetwork:
    """Records every probe it is handed and answers it ``delay`` seconds
    later, quoting the probe's own marking — except that ``rewrites`` maps
    a probe's index to the address a middlebox put in its quotation."""

    def __init__(self, topo, delay=0.0, rewrites=None):
        self.topology = topo
        self.delay = delay
        self.rewrites = rewrites or {}
        self.sent = []
        self.singles = []

    def _answer(self, dst, ttl, send_time, src_port, ipid, udp_length):
        quoted_dst = self.rewrites.get(len(self.sent), dst)
        self.sent.append((dst, ttl, send_time, src_port, ipid, udp_length))
        if self.delay is None:
            return None
        quoted = ProbeHeader(src=1, dst=quoted_dst, ttl=1, ipid=ipid,
                             src_port=src_port, udp_length=udp_length)
        return IcmpResponse(kind=ResponseKind.TTL_EXCEEDED, responder=9,
                            quoted=quoted,
                            arrival_time=send_time + self.delay,
                            quoted_residual_ttl=1)

    def send_probes(self, probes, dst_port=33434, proto=17, flow=None):
        return [self._answer(*probe) for probe in probes]

    def send_probe(self, dst, ttl, send_time, src_port, ipid=0,
                   udp_length=8, single=False):
        self.singles.append(single)
        return self._answer(dst, ttl, send_time, src_port, ipid, udp_length)


class RecordingRuntime(ScanRuntime):
    """A runtime that keeps what it accounts and what it hands over."""

    def __init__(self, network, **kwargs):
        self.accounted = []
        self.handled = []
        super().__init__(network, "test", {}, kwargs.pop("rate", 1000.0),
                         on_response=self._handle, **kwargs)

    def _handle(self, response, *args):
        if len(args) == 2:
            # The ``(response, decoded, offset)`` form of the commit this
            # pin was written against, so the file runs there unchanged.
            decoded, offset = args
            args = (decoded.dst, decoded.initial_ttl, decoded.is_preprobe,
                    offset)
        self.handled.append((response,) + args)

    def _account(self, response, dst, ttl, rtt, preprobe=False):
        self.accounted.append((response, dst, ttl, rtt, preprobe))
        super()._account(response, dst, ttl, rtt, preprobe)


def addresses(topo):
    """Addresses inside the scanned space, with a few just outside it."""
    low = topo.base_prefix << 8
    return st.integers(low - 512, low + (topo.num_prefixes << 8) + 511)


#: Send times: anywhere in three timestamp wraps, and exactly on a
#: millisecond (where ``int(now * 1000.0)`` is one float rounding away
#: from the neighbouring stamp).
START_TIMES = st.one_of(
    st.floats(0.0, 200.0, allow_nan=False),
    st.integers(0, 200_000).map(lambda ms: ms / 1000.0))
RATES = st.sampled_from([7.0, 1000.0, 3000.0, 100_000.0])
ITEMS = st.lists(st.tuples(addresses(topology()), st.integers(1, 32)),
                 min_size=1, max_size=12)


class TestEmitIsEncodeProbe:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(items=ITEMS, start=START_TIMES, rate=RATES,
           preprobe=st.booleans(), fold=st.booleans(),
           scan_offset=st.integers(0, 5), yarrp=st.booleans())
    def test_generated(self, items, start, rate, preprobe, fold, scan_offset,
                       yarrp):
        network = EchoNetwork(topology(), delay=None)
        rt = RecordingRuntime(network, rate=rate, scan_offset=scan_offset,
                              fold_preprobe=fold, start_time=start)
        # Yarrp's length only while it fits the MTU (the overflow has its
        # own test below).
        udp_length = (yarrp_udp_length
                      if yarrp and start + len(items) / rate < 1.4 else None)
        batch = rt.emit(items, udp_length=udp_length, preprobe=preprobe)
        assert batch == network.sent
        now = start
        for (dst, ttl), probe in zip(items, batch):
            ipid, length, port = encode_probe(dst, ttl, now, preprobe,
                                              scan_offset)
            if udp_length is not None:
                length = udp_length(now)
            assert probe == (dst, ttl, now, port, ipid, length)
            now = now + rt.send_gap
        assert rt.clock.now == now
        assert rt.result.probes_sent == len(items)
        # Only unfolded preprobes (each address probed once) take the scalar
        # entry point and its ``single`` hint; the rest go as the burst.
        assert network.singles == ([True] * len(items)
                                   if preprobe and not fold else [])

    @pytest.mark.parametrize("bad_ttl", [0, 33])
    @pytest.mark.parametrize("position", [0, 3])
    def test_unencodable_ttl_raises_after_sending_what_was_built(
            self, bad_ttl, position):
        with pytest.raises(EncodingError) as spec:
            encode_probe(7, bad_ttl, 0.0)
        network = EchoNetwork(topology(), delay=None)
        rt = RecordingRuntime(network, start_time=2.5)
        base = topology().base_prefix << 8
        items = [(base + 5 + n, 4) for n in range(position)]
        with pytest.raises(EncodingError) as raised:
            rt.emit(items + [(base + 99, bad_ttl), (base + 100, 4)])
        assert str(raised.value) == str(spec.value)
        assert [probe[:2] for probe in network.sent] == items
        assert rt.result.probes_sent == position
        now = 2.5
        for _ in range(position):
            now = now + rt.send_gap
        assert rt.clock.now == now

    def test_udp_length_raising_mid_burst_keeps_the_clock(self):
        """``clock.now`` is stored per tick, so the probes built before
        Yarrp's length overflows are sent at their own times and the clock
        stands where per-probe sends would have left it."""
        network = EchoNetwork(topology(), delay=None)
        rt = RecordingRuntime(network, rate=10.0, start_time=1.3)
        base = topology().base_prefix << 8
        with pytest.raises(YarrpUdpEncodingError):
            rt.emit([(base + n, 3) for n in range(5)],
                    udp_length=yarrp_udp_length)
        assert len(network.sent) == rt.result.probes_sent == 2
        assert rt.clock.now == 1.3 + rt.send_gap + rt.send_gap


class TestDrainIsDecodeResponse:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(items=ITEMS, start=START_TIMES, rate=RATES,
           preprobe=st.booleans(), fold=st.booleans(),
           scan_offset=st.integers(0, 5), verify=st.booleans(),
           delay=st.one_of(st.floats(0.0, 140.0, allow_nan=False),
                           st.integers(0, 140_000).map(
                               lambda ms: ms / 1000.0)),
           rewrites=st.dictionaries(st.integers(0, 11), st.integers(-3, 11),
                                    max_size=4))
    def test_generated(self, items, start, rate, preprobe, fold, scan_offset,
                       verify, delay, rewrites):
        # A rewrite moves the quoted address by a few hosts (a memo miss)
        # or onto the address of another probe of the burst (a memo hit,
        # unless this is an unfolded preprobe burst, which fills nothing).
        moved = {}
        for index, choice in rewrites.items():
            if index < len(items):
                moved[index] = (items[index][0] + 97 if choice < 0
                                else items[choice % len(items)][0])
        network = EchoNetwork(topology(), delay, moved)
        rt = RecordingRuntime(network, rate=rate, scan_offset=scan_offset,
                              fold_preprobe=fold, verify_quotes=verify,
                              start_time=start)
        rt.emit(items, preprobe=preprobe)
        responses = rt.queue.snapshot()
        assert len(responses) == len(items)
        rt.clock.advance(delay + 1.0)
        rt.drain()

        handled, accounted, mismatched = [], [], 0
        for response in responses:
            decoded = decode_response(response)
            if verify and not destination_intact(decoded, scan_offset):
                mismatched += 1
                continue
            offset = (decoded.dst >> 8) - topology().base_prefix
            if not 0 <= offset < PREFIXES:
                continue
            handled.append((response, decoded.dst, decoded.initial_ttl,
                            decoded.is_preprobe, offset))
            accounted.append((response, decoded.dst, decoded.initial_ttl,
                              rtt_ms(decoded, response.arrival_time),
                              decoded.is_preprobe))
        assert rt.handled == handled
        assert rt.accounted == accounted
        assert rt.result.mismatched_quotes == mismatched
        assert rt.result.responses == len(handled)

    def test_a_rewrite_onto_another_probed_address_is_still_dropped(self):
        """The memo caches a pure function: the verdict on a quotation is
        the same whether its (rewritten) address is a memo hit or a miss."""
        base = topology().base_prefix << 8
        first, second = base + 0x105, base + 0x205
        for rewritten in (second, second + 1):
            rt = RecordingRuntime(EchoNetwork(topology(), 0.01,
                                              {0: rewritten}),
                                  verify_quotes=True)
            rt.emit([(first, 3), (second, 3)])
            rt.settle()
            assert rt.result.mismatched_quotes == 1
            assert [args[1] for args in rt.handled] == [second]


# --------------------------------------------------------------------- #
# §5.3 as a conservation law
# --------------------------------------------------------------------- #

class TestQuoteVerificationConserves:
    @pytest.mark.parametrize("granularity", [24, 26])
    @pytest.mark.parametrize("scan_offset", [0, 3])
    def test_every_rewritten_response_is_dropped_and_nothing_else(
            self, scan_offset, granularity):
        topo = topology(64, seed=7, rewrite_middlebox_probability=0.5)
        network = SimulatedNetwork(topo)
        result = FlashRoute(FlashRouteConfig.flashroute_16(
            scan_offset=scan_offset, granularity=granularity)).scan(network)
        assert result.mismatched_quotes == network.rewritten_responses > 0
        assert result.responses + result.mismatched_quotes \
            == network.responses_generated


# --------------------------------------------------------------------- #
# What the per-destination state costs in memory
# --------------------------------------------------------------------- #

def test_memo_and_owed_column_sizes():
    """Hitlist preprobes (unfolded: each address probed once) and
    quotations stay out of the memo, and what a block is owed is one
    double per ring slot."""
    base = topology().base_prefix << 8
    for preprobe, fold, held in ((False, False, 2), (True, True, 2),
                                 (True, False, 0)):
        rt = RecordingRuntime(EchoNetwork(topology(), 0.01, {0: base + 7}),
                              verify_quotes=True, fold_preprobe=fold)
        rt.emit([(base + 0x105, 3), (base + 0x205, 3), (base + 0x105, 4)],
                preprobe=preprobe)
        rt.settle()
        assert len(rt._ports) == held and base + 7 not in rt._ports
    topo = topology(256, seed=7)
    run = _ScanRun(FlashRouteConfig.flashroute_16(), SimulatedNetwork(topo),
                   None, None, None, None, None, None)
    result = run.execute()
    assert result.preprobe_probes == 256 and not run.fold_preprobe
    assert set(run.rt._ports) == set(run.targets.values())
    assert run.rt._owed.itemsize * len(run.rt._owed) == 8 * 256


# --------------------------------------------------------------------- #
# The gain as a count: Python-level calls per probe
# --------------------------------------------------------------------- #

SRC = os.path.dirname(repro.__file__)


class ObservedNetwork:
    """Forwards to a network, keeping the distinct addresses the bursts
    probed, and how many preprobes (the scalar entry point) were sent and
    how many of them were answered."""

    def __init__(self, network):
        self._network = network
        self.destinations = set()
        self.preprobes = 0
        self.preprobe_responses = 0

    def __getattr__(self, name):
        return getattr(self._network, name)

    def send_probes(self, probes, dst_port=33434, proto=17, flow=None):
        self.destinations.update(probe[0] for probe in probes)
        return self._network.send_probes(probes, dst_port, proto, flow)

    def send_probe(self, *args, **kwargs):
        response = self._network.send_probe(*args, **kwargs)
        self.preprobes += 1
        self.preprobe_responses += response is not None
        return response


@pytest.mark.parametrize("scanner, bar", [
    (FlashRoute(FlashRouteConfig.flashroute_16()), 7.0),
    (Yarrp(YarrpConfig.yarrp_32()), 4.0),
    (Yarrp(YarrpConfig.yarrp_16()), 6.0),
    (Yarrp(YarrpConfig.yarrp_32(neighborhood_radius=3)), 4.0),
], ids=["flashroute-16", "yarrp-32", "yarrp-16", "yarrp-32-protected"])
def test_call_census(scanner, bar):
    """A 1,024-prefix scan under ``sys.setprofile``: every Python-level
    ``call`` event (function entries and generator resumptions) outside
    this file, by source file.  A count, so it repeats exactly."""
    network = ObservedNetwork(SimulatedNetwork(topology(1024)))
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = scanner.scan(network)
    finally:
        sys.setprofile(previous)
    calls.pop(__file__, None)
    probes = result.probes_sent
    total = sum(calls.values())
    print(f"\n{result.tool}: {total} calls for {probes} probes = "
          f"{total / probes:.2f} per probe")
    for filename, count in calls.most_common():
        print(f"  {count / probes:6.3f}  {count:7d}  "
              f"{os.path.relpath(filename, SRC)}")
    assert total <= bar * probes
    assert calls[os.path.join(SRC, "core", "encoding.py")] == 0
    # A memo miss costs flow_source_port + addr_checksum: once per address
    # a burst probed, once per unfolded preprobe (probed once, so computed
    # and not stored), and at delivery for a quotation of an address the
    # memo does not hold — an unfolded preprobe's or a rewritten one.
    assert calls[os.path.join(SRC, "net", "checksum.py")] <= 2 * (
        len(network.destinations) + network.preprobes
        + network.preprobe_responses + result.mismatched_quotes)
