"""Unit tests for the RFC 1071 checksum and the checksum-derived ports."""

import struct

import pytest
from hypothesis import example, given, strategies as st

from repro.net.checksum import (
    addr_checksum,
    flow_source_port,
    internet_checksum,
    verify_checksum,
)
from repro.net.addr6 import ip6_to_int


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # The classic RFC 1071 worked example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0xFFFF - 0xDDF2

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_is_padded(self):
        assert internet_checksum(b"\xFF") == internet_checksum(b"\xFF\x00")

    def test_checksum_in_range(self):
        assert 0 <= internet_checksum(b"hello world") <= 0xFFFF

    @given(st.binary(min_size=0, max_size=128))
    def test_data_plus_checksum_verifies(self, data):
        checksum = internet_checksum(data)
        if len(data) % 2:
            data += b"\x00"
        assert verify_checksum(data + struct.pack("!H", checksum))

    def test_verify_detects_corruption(self):
        data = b"\x12\x34\x56\x78"
        checksum = internet_checksum(data)
        packet = bytearray(data + struct.pack("!H", checksum))
        packet[0] ^= 0xFF
        assert not verify_checksum(bytes(packet))


class TestAddrChecksum:
    def test_deterministic(self):
        assert addr_checksum(0x0A000001) == addr_checksum(0x0A000001)

    def test_distinguishes_most_addresses(self):
        assert addr_checksum(0x0A000001) != addr_checksum(0x0A000002)

    def test_never_privileged(self):
        for addr in range(0, 2**32, 2**27):
            assert addr_checksum(addr) >= 1024

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_valid_port_range(self, addr):
        assert 1024 <= addr_checksum(addr) <= 65535

    @staticmethod
    def reference(addr):
        """The definition: the Internet checksum of the address's four
        bytes, lifted out of the privileged range."""
        checksum = internet_checksum(struct.pack("!I", addr))
        return checksum + 1024 if checksum < 1024 else checksum

    @given(st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                     st.integers(min_value=0, max_value=2**128 - 1)))
    @example(0)
    @example(1)
    @example(2**127)
    @example(2**128 - 1)
    @example(ip6_to_int("2001:db8:85a3::8a2e:370:7334"))
    def test_arithmetic_equals_the_checksum_of_the_bytes(self, addr):
        """Any address width: an IPv4 address's four bytes, an IPv6
        address's sixteen (leading zero words add nothing, so both
        readings agree below 2**32)."""
        wide = internet_checksum(addr.to_bytes(16, "big"))
        assert addr_checksum(addr) == (wide + 1024 if wide < 1024 else wide)
        if addr < 2**32:
            assert addr_checksum(addr) == self.reference(addr)

    @pytest.mark.parametrize("addr", [
        0, 0xFFFF, 0x0001FFFF, 0xFFFFFFFF,  # no carry, all-ones, one carry
        0xFFFF0001, 0x8000_8000,            # carry out of the word sum
        0xFC000000,                         # checksum 1023: lifted to 2047
    ])
    def test_carry_edges(self, addr):
        assert addr_checksum(addr) == self.reference(addr)

    def test_a_privileged_checksum_is_lifted(self):
        assert internet_checksum(struct.pack("!I", 0xFC000000)) == 1023
        assert addr_checksum(0xFC000000) == 2047


class TestFlowSourcePort:
    def test_offset_zero_matches_base(self):
        assert flow_source_port(0x14000001, 0) == addr_checksum(0x14000001)

    def test_offsets_yield_distinct_flows(self):
        base = 0x14000001
        ports = {flow_source_port(base, i) for i in range(8)}
        assert len(ports) == 8

    def test_offset_increments_port(self):
        base = flow_source_port(0x14000001, 0)
        assert flow_source_port(0x14000001, 1) in (base + 1, 1024)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=1000))
    def test_always_unprivileged(self, addr, offset):
        assert 1024 <= flow_source_port(addr, offset) <= 65535

    def test_wraps_within_window(self):
        # Pushing the port past 65535 must wrap back into [1024, 65535].
        addr = 0
        big_offset = 2 * (65536 - 1024)
        assert flow_source_port(addr, big_offset) == flow_source_port(addr, 0)
