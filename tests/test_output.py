"""Scan result serialization: JSON round-trip, CSV, traceroute text."""

import gc
import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracle import output as per_hop
from repro.api import Engine, ScanRequest
from repro.core.config import FlashRouteConfig
from repro.core.output import (
    format_route,
    format_scan_report,
    hops_csv_text,
    load_json,
    read_json,
    result_from_dict,
    result_to_dict,
    save_json,
    write_hops_csv,
    write_json,
)
from repro.core.prober import FlashRoute
from repro.core.results import ScanResult
from repro.net.addr import AddressError
from repro.simnet import TopologyConfig
from repro.simnet.network import SimulatedNetwork


def _sample_result():
    result = ScanResult(tool="sample", num_targets=2)
    result.targets = {100: (100 << 8) | 7, 101: (101 << 8) | 9}
    result.add_hop(100, 1, 0x01020304)
    result.add_hop(100, 2, 0x01020305)
    result.record_destination(100, 3)
    result.probes_sent = 10
    result.responses = 3
    result.duration = 12.5
    result.rounds = 4
    result.ttl_probe_histogram.update({1: 2, 2: 2, 3: 1})
    result.response_kinds.update({"ttl_exceeded": 2, "port_unreachable": 1})
    result.add_rtt(42.0)
    return result


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        original = _sample_result()
        rebuilt = result_from_dict(result_to_dict(original))
        assert rebuilt.tool == original.tool
        assert rebuilt.routes == original.routes
        assert rebuilt.targets == original.targets
        assert rebuilt.dest_distance == original.dest_distance
        assert rebuilt.ttl_probe_histogram == original.ttl_probe_histogram
        assert rebuilt.response_kinds == original.response_kinds
        assert rebuilt.duration == original.duration
        assert rebuilt.mean_rtt_ms() == original.mean_rtt_ms()

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        write_json(_sample_result(), buffer)
        buffer.seek(0)
        rebuilt = read_json(buffer)
        assert rebuilt.interface_count() == 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scan.json"
        save_json(_sample_result(), str(path))
        rebuilt = load_json(str(path))
        assert rebuilt.probes_sent == 10

    def test_rejects_unknown_version(self):
        payload = result_to_dict(_sample_result())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            result_from_dict(payload)

    def test_full_scan_round_trip(self, tiny_topology, tiny_targets):
        scan = FlashRoute(FlashRouteConfig(preprobe="none")).scan(
            SimulatedNetwork(tiny_topology), targets=tiny_targets)
        rebuilt = result_from_dict(result_to_dict(scan))
        assert rebuilt.routes == scan.routes
        assert rebuilt.interface_count() == scan.interface_count()
        assert rebuilt.summary() == scan.summary()


class TestCsv:
    def test_header_and_rows(self):
        text = hops_csv_text(_sample_result())
        lines = text.strip().splitlines()
        assert lines[0] == "prefix,target,ttl,interface,is_destination"
        assert len(lines) == 1 + 3  # 2 hops + 1 destination row

    def test_destination_row_flagged(self):
        text = hops_csv_text(_sample_result())
        destination_rows = [line for line in text.splitlines()
                            if line.endswith(",1")]
        assert len(destination_rows) == 1
        assert "0.0.100.7" in destination_rows[0]

    def test_prefix_formatting(self):
        assert "0.0.100.0/24" in hops_csv_text(_sample_result())


class TestText:
    def test_format_route_marks_destination(self):
        text = format_route(_sample_result(), 100)
        assert "[destination]" in text
        assert "1.2.3.4" in text

    def test_format_route_stars_missing_hops(self):
        result = _sample_result()
        result.record_destination(100, 5)  # does not lower the min
        text = format_route(_sample_result(), 100)
        assert text.count("\n") >= 3

    def test_report_limits_routes(self):
        report = format_scan_report(_sample_result(), max_routes=0)
        assert "traceroute to" not in report
        report = format_scan_report(_sample_result(), max_routes=5)
        assert "traceroute to" in report


@st.composite
def _results(draw):
    """Results whose routes repeat a few responders, each hop holding its
    own ``int`` object of an address another hop also holds."""
    pool = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                         max_size=6))
    result = ScanResult(tool="generated", num_targets=0)
    for prefix in draw(st.lists(st.integers(0, 2**24 - 1), max_size=8,
                                unique=True)):
        if draw(st.booleans()):
            result.targets[prefix] = prefix << 8 | draw(st.integers(0, 255))
        for ttl in draw(st.lists(st.integers(1, 32), max_size=8,
                                 unique=True)):
            result.add_hop(prefix, ttl,
                           int(str(draw(st.sampled_from(pool)))))
        if draw(st.booleans()):
            result.record_destination(prefix, draw(st.integers(1, 32)))
    result.num_targets = len(result.targets)
    result.ttl_probe_histogram.update(draw(st.dictionaries(
        st.integers(1, 32), st.integers(1, 50), max_size=5)))
    result.response_kinds.update(draw(st.dictionaries(
        st.text(max_size=4), st.integers(0, 50), max_size=3)))
    result.tool = draw(st.text(max_size=6))
    result.duration = draw(st.floats())
    result.aborted = draw(st.booleans())
    return result


class TestSharedText:
    """Each writer formats a distinct address or key once per call; the
    documents equal the per-hop forms in ``tests/oracle/output.py``."""

    @settings(max_examples=150, deadline=None)
    @given(_results())
    def test_writers_equal_the_per_hop_forms(self, result):
        assert result_to_dict(result) == per_hop.result_to_dict(result)
        for write in (write_json, write_hops_csv):
            got, expected = io.StringIO(), io.StringIO()
            write(result, got)
            getattr(per_hop, write.__name__)(result, expected)
            assert got.getvalue() == expected.getvalue()

    def test_equal_addresses_and_keys_are_one_string(self):
        result = _sample_result()
        result.add_hop(101, 1, int(str(0x01020304)))
        routes = result_to_dict(result)["routes"]
        assert routes["100"]["1"] is routes["101"]["1"]
        assert next(iter(routes["100"])) is next(iter(routes["101"]))

    def test_two_calls_are_equal_and_independent(self):
        result = _sample_result()
        first, second = result_to_dict(result), result_to_dict(result)
        assert first == second
        first["routes"]["100"]["1"] = "9.9.9.9"
        first["targets"].clear()
        assert second == per_hop.result_to_dict(result)

    def test_a_128_bit_address_is_refused(self):
        result = _sample_result()
        result.add_hop(100, 4, 1 << 100)
        with pytest.raises(AddressError):
            result_to_dict(result)
        with pytest.raises(AddressError):
            hops_csv_text(result)

    def test_peak_memory_per_hop(self):
        """A hop costs its inner-dict slot, not two new strings: the
        per-hop form peaked at ~156 B per hop here, shared text at ~60."""
        request = ScanRequest(tool="yarrp-32", prefixes=1024, seed=3)
        result = Engine(TopologyConfig(num_prefixes=1024, seed=3)
                        ).open_session(request).run()
        hops = sum(map(len, result.routes.values()))
        gc.collect()
        tracemalloc.start()
        try:
            result_to_dict(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 90 * hops, (peak, hops)
