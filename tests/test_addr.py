"""Unit tests for IPv4 address and prefix arithmetic."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    AddressError,
    MAX_IPV4,
    addr_in_prefix24,
    cidr_to_range,
    host_octet,
    int_to_ip,
    ip_to_int,
    is_reserved,
    iter_prefix24,
    prefix24_base,
    prefix24_of,
    prefix_of,
)


class TestIpToInt:
    def test_zero(self):
        assert ip_to_int("0.0.0.0") == 0

    def test_max(self):
        assert ip_to_int("255.255.255.255") == MAX_IPV4

    def test_known_value(self):
        assert ip_to_int("10.0.0.1") == (10 << 24) | 1

    def test_octet_order_is_big_endian(self):
        assert ip_to_int("1.2.3.4") == 0x01020304

    @pytest.mark.parametrize("bad", [
        "256.0.0.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "", "1..2.3",
        "-1.2.3.4", "1.2.3.4 ",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            ip_to_int(bad)

    @pytest.mark.parametrize("bad", [
        "20.0.0.7\n",  # `$` matches before a trailing newline
        "\u0662\u0660.0.0.7",  # Arabic-Indic digits: `\d` is Unicode
        "020.0.0.7",  # inet_aton reads 020 as 16 (CVE-2021-29921)
        "20.0.0.07",
        "20.00.0.7",
    ])
    def test_rejects_what_ipaddress_rejects(self, bad):
        with pytest.raises(ipaddress.AddressValueError):
            ipaddress.IPv4Address(bad)
        with pytest.raises(AddressError):
            ip_to_int(bad)

    @given(st.text(alphabet="0123456789.\n \u0662", max_size=16)
           | st.lists(st.integers(0, 300).map(str), min_size=4,
                      max_size=4).map(".".join))
    def test_as_strict_as_ipaddress(self, text):
        try:
            expected = int(ipaddress.IPv4Address(text))
        except ipaddress.AddressValueError:
            with pytest.raises(AddressError):
                ip_to_int(text)
        else:
            assert ip_to_int(text) == expected


class TestIntToIp:
    def test_known_value(self):
        assert int_to_ip(0x01020304) == "1.2.3.4"

    def test_rejects_negative(self):
        with pytest.raises(AddressError):
            int_to_ip(-1)

    def test_rejects_too_large(self):
        with pytest.raises(AddressError):
            int_to_ip(2**32)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_round_trip(self, addr):
        assert ip_to_int(int_to_ip(addr)) == addr


class TestPrefix24:
    def test_prefix_of_addr(self):
        assert prefix24_of(ip_to_int("1.2.3.4")) == 0x010203

    def test_base_is_dot_zero(self):
        assert int_to_ip(prefix24_base(0x010203)) == "1.2.3.0"

    def test_compose(self):
        assert int_to_ip(addr_in_prefix24(0x010203, 77)) == "1.2.3.77"

    def test_host_octet(self):
        assert host_octet(ip_to_int("9.9.9.200")) == 200

    def test_compose_rejects_big_host(self):
        with pytest.raises(AddressError):
            addr_in_prefix24(1, 256)

    def test_base_rejects_out_of_range_index(self):
        with pytest.raises(AddressError):
            prefix24_base(2**24)

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    def test_prefix_and_host_partition_address(self, addr):
        assert addr_in_prefix24(prefix24_of(addr), host_octet(addr)) == addr


class TestPrefixOf:
    def test_full_length_is_identity(self):
        assert prefix_of(0xDEADBEEF, 32) == 0xDEADBEEF

    def test_zero_length_is_zero(self):
        assert prefix_of(0xDEADBEEF, 0) == 0

    def test_slash8(self):
        assert prefix_of(ip_to_int("10.1.2.3"), 8) == ip_to_int("10.0.0.0")

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            prefix_of(0, 33)


class TestCidr:
    def test_slash24_range(self):
        first, last = cidr_to_range("192.0.2.0/24")
        assert last - first == 255

    def test_range_is_aligned(self):
        first, _last = cidr_to_range("192.0.2.77/24")
        assert int_to_ip(first) == "192.0.2.0"

    def test_iter_prefix24_counts(self):
        assert len(list(iter_prefix24("10.0.0.0/22"))) == 4

    def test_iter_prefix24_rejects_small_blocks(self):
        with pytest.raises(AddressError):
            list(iter_prefix24("10.0.0.0/25"))

    def test_rejects_no_slash(self):
        with pytest.raises(AddressError):
            cidr_to_range("10.0.0.0")

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            cidr_to_range("10.0.0.0/40")


class TestReserved:
    @pytest.mark.parametrize("addr", [
        "10.1.2.3", "127.0.0.1", "192.168.1.1", "224.0.0.5", "240.0.0.1",
        "169.254.10.10", "100.64.0.1",
    ])
    def test_reserved_addresses(self, addr):
        assert is_reserved(ip_to_int(addr))

    @pytest.mark.parametrize("addr", ["8.8.8.8", "20.0.0.1", "1.1.1.1"])
    def test_public_addresses(self, addr):
        assert not is_reserved(ip_to_int(addr))
