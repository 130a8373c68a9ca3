"""ICMP error construction/parsing and the residual-TTL distance rule."""

import pytest
from hypothesis import given, strategies as st

from repro.net.icmp import (
    IcmpResponse,
    ResponseKind,
    distance_from_unreachable,
    pack_icmp_error,
    unpack_icmp_error,
)
from repro.net.packets import PacketError, ProbeHeader


def _probe(dst=0x14000001, residual_ttl=5, src_port=40000):
    return ProbeHeader(src=0x0A000001, dst=dst, ttl=residual_ttl, ipid=0x1234,
                       src_port=src_port, udp_length=20)


class TestResponseKind:
    def test_unreachable_family(self):
        assert ResponseKind.PORT_UNREACHABLE.is_unreachable
        assert ResponseKind.HOST_UNREACHABLE.is_unreachable
        assert ResponseKind.TCP_RST.is_unreachable

    def test_ttl_exceeded_is_not_unreachable(self):
        assert not ResponseKind.TTL_EXCEEDED.is_unreachable
        assert not ResponseKind.ECHO_REPLY.is_unreachable

    def test_unreachable_truth_table_over_every_member(self):
        assert len(ResponseKind) == 5
        assert {kind for kind in ResponseKind if kind.is_unreachable} == {
            ResponseKind.PORT_UNREACHABLE, ResponseKind.HOST_UNREACHABLE,
            ResponseKind.TCP_RST}


class TestPackUnpack:
    @pytest.mark.parametrize("kind", [ResponseKind.TTL_EXCEEDED,
                                      ResponseKind.PORT_UNREACHABLE,
                                      ResponseKind.HOST_UNREACHABLE])
    def test_round_trip_kind(self, kind):
        probe = _probe()
        wire = pack_icmp_error(kind, responder=0x3C000001,
                               vantage=0x0A000001,
                               quoted_probe_bytes=probe.quotation())
        parsed = unpack_icmp_error(wire, arrival_time=1.5)
        assert parsed.kind is kind
        assert parsed.responder == 0x3C000001
        assert parsed.arrival_time == 1.5

    def test_quotation_fields_survive(self):
        probe = _probe(dst=0x14000063, residual_ttl=9, src_port=31337)
        wire = pack_icmp_error(ResponseKind.TTL_EXCEEDED, 7, 8,
                               probe.quotation())
        parsed = unpack_icmp_error(wire)
        assert parsed.quoted.dst == 0x14000063
        assert parsed.quoted_residual_ttl == 9
        assert parsed.quoted.src_port == 31337
        assert parsed.probe_dst == 0x14000063

    def test_rejects_rst_kind(self):
        with pytest.raises(PacketError):
            pack_icmp_error(ResponseKind.TCP_RST, 1, 2, _probe().quotation())

    def test_rejects_short_quotation(self):
        with pytest.raises(PacketError):
            pack_icmp_error(ResponseKind.TTL_EXCEEDED, 1, 2, b"\x45" * 20)

    def test_unpack_rejects_non_icmp(self):
        wire = bytearray(pack_icmp_error(ResponseKind.TTL_EXCEEDED, 1, 2,
                                         _probe().quotation()))
        wire[9] = 17  # claim UDP in the outer header
        with pytest.raises(PacketError):
            unpack_icmp_error(bytes(wire))

    def test_unpack_rejects_unknown_type(self):
        wire = bytearray(pack_icmp_error(ResponseKind.TTL_EXCEEDED, 1, 2,
                                         _probe().quotation()))
        wire[20] = 42  # ICMP type
        with pytest.raises(PacketError):
            unpack_icmp_error(bytes(wire))


class TestDistanceRule:
    def _response(self, residual):
        return IcmpResponse(kind=ResponseKind.PORT_UNREACHABLE,
                            responder=1, quoted=_probe(residual_ttl=residual),
                            arrival_time=0.0, quoted_residual_ttl=residual)

    def test_destination_one_hop_away(self):
        # Probe TTL 32 arriving with residual 32 means zero decrements:
        # the destination is the first hop.
        assert distance_from_unreachable(self._response(32), 32) == 1

    def test_paper_arithmetic(self):
        # d = initial - residual + 1 (paper §3.3.1).
        assert distance_from_unreachable(self._response(18), 32) == 15

    def test_residual_larger_than_initial_is_invalid(self):
        # A middlebox boosted the TTL beyond what we sent.
        assert distance_from_unreachable(self._response(33), 32) is None

    def test_zero_residual_is_invalid(self):
        assert distance_from_unreachable(self._response(0), 32) is None

    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=32))
    def test_distance_bounds(self, initial, residual):
        response = self._response(residual)
        distance = distance_from_unreachable(response, initial)
        if residual <= initial:
            assert distance == initial - residual + 1
            assert 1 <= distance <= initial
        else:
            assert distance is None
