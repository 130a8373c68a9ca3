"""IPv6 address parsing and formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr6 import Address6Error, MAX_IPV6, int_to_ip6, ip6_to_int


class TestParse:
    @pytest.mark.parametrize("text,value", [
        ("::", 0),
        ("::1", 1),
        ("2001:db8::1", 0x20010db8000000000000000000000001),
        ("fe80::", 0xfe800000000000000000000000000000),
        ("1:2:3:4:5:6:7:8", 0x00010002000300040005000600070008),
        ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", MAX_IPV6),
    ])
    def test_known_values(self, text, value):
        assert ip6_to_int(text) == value

    @pytest.mark.parametrize("bad", [
        "", ":", ":::", "1::2::3", "12345::", "g::", "1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7:8::",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(Address6Error):
            ip6_to_int(bad)


class TestFormat:
    @pytest.mark.parametrize("value,text", [
        (0, "::"),
        (1, "::1"),
        (0x20010db8000000000000000000000001, "2001:db8::1"),
        (0x00010002000300040005000600070008, "1:2:3:4:5:6:7:8"),
    ])
    def test_canonical(self, value, text):
        assert int_to_ip6(value) == text

    def test_longest_zero_run_compressed(self):
        # 1:0:0:2:0:0:0:3 -> the later, longer run gets the '::'.
        value = ip6_to_int("1:0:0:2:0:0:0:3")
        assert int_to_ip6(value) == "1:0:0:2::3"

    def test_single_zero_group_not_compressed(self):
        value = ip6_to_int("1:0:2:3:4:5:6:7")
        assert int_to_ip6(value) == "1:0:2:3:4:5:6:7"

    def test_rejects_out_of_range(self):
        with pytest.raises(Address6Error):
            int_to_ip6(2**128)
        with pytest.raises(Address6Error):
            int_to_ip6(-1)

    @given(st.integers(min_value=0, max_value=MAX_IPV6))
    def test_round_trip(self, value):
        assert ip6_to_int(int_to_ip6(value)) == value
