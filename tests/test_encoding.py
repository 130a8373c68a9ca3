"""FlashRoute probe encoding: the heart of the stateless receive path."""

import pytest
from hypothesis import given, strategies as st

from repro.core.encoding import (
    DecodedProbe,
    EncodingError,
    ProbeMarking,
    TIMESTAMP_WRAP_MS,
    decode_response,
    destination_intact,
    encode_probe,
    rtt_ms,
    yarrp_elapsed_from_seq,
    yarrp_tcp_seq,
)
from repro.net.checksum import flow_source_port
from repro.net.icmp import IcmpResponse, ResponseKind
from repro.net.packets import ProbeHeader, UDP_HEADER_LEN


def _response_for(marking, dst, residual=1, arrival=0.5):
    quoted = ProbeHeader(src=0, dst=dst, ttl=residual, ipid=marking.ipid,
                         src_port=marking.src_port, udp_length=marking.udp_length)
    return IcmpResponse(kind=ResponseKind.TTL_EXCEEDED, responder=7,
                        quoted=quoted, arrival_time=arrival,
                        quoted_residual_ttl=residual)


class TestEncode:
    def test_source_port_is_checksum_of_destination(self):
        marking = encode_probe(0x14000001, 16, 0.0)
        assert marking.src_port == flow_source_port(0x14000001, 0)

    def test_scan_offset_changes_port(self):
        base = encode_probe(0x14000001, 16, 0.0, scan_offset=0)
        extra = encode_probe(0x14000001, 16, 0.0, scan_offset=1)
        assert base.src_port != extra.src_port

    def test_udp_length_carries_low_timestamp_bits(self):
        marking = encode_probe(1, 1, send_time=0.063)  # 63 ms
        assert marking.udp_length == UDP_HEADER_LEN + 63

    def test_udp_length_bounded_by_six_bits(self):
        for ms in range(0, 200, 7):
            marking = encode_probe(1, 1, send_time=ms / 1000.0)
            assert UDP_HEADER_LEN <= marking.udp_length < UDP_HEADER_LEN + 64

    @pytest.mark.parametrize("ttl", [0, 33, -1, 64])
    def test_rejects_unencodable_ttl(self, ttl):
        with pytest.raises(EncodingError):
            encode_probe(1, ttl, 0.0)

    def test_ipid_fits_sixteen_bits(self):
        for ttl in (1, 16, 32):
            marking = encode_probe(1, ttl, 65.0, is_preprobe=True)
            assert 0 <= marking.ipid <= 0xFFFF


class TestRecordTypes:
    """``ProbeMarking`` and ``DecodedProbe`` are built once per probe and
    per response, so they are tuples; callers still see named records."""

    def test_construct_by_keyword_and_compare_field_wise(self):
        marking = ProbeMarking(ipid=0x7801, udp_length=12, src_port=40000)
        assert marking == ProbeMarking(0x7801, 12, 40000)
        assert marking != ProbeMarking(0x7801, 12, 40001)
        assert (marking.ipid, marking.udp_length, marking.src_port) == \
            (0x7801, 12, 40000)
        decoded = DecodedProbe(initial_ttl=16, is_preprobe=False,
                               timestamp_ms=1234, dst=0x14000001,
                               src_port=40000)
        assert decoded == DecodedProbe(16, False, 1234, 0x14000001, 40000)
        assert decoded._replace(dst=0x14000002) != decoded
        assert decoded.initial_ttl == 16 and decoded.dst == 0x14000001

    def test_records_are_immutable(self):
        with pytest.raises(AttributeError):
            encode_probe(0x14000001, 5, 0.0).ipid = 0

    def test_codec_returns_the_record_types(self):
        marking = encode_probe(0x14000001, 5, 1.25)
        assert type(marking) is ProbeMarking
        decoded = decode_response(_response_for(marking, 0x14000001))
        assert type(decoded) is DecodedProbe
        assert type(decoded.is_preprobe) is bool


class TestDecode:
    @given(st.integers(min_value=1, max_value=32), st.booleans(),
           st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_round_trip(self, ttl, preprobe, send_time):
        marking = encode_probe(0x14000042, ttl, send_time,
                               is_preprobe=preprobe)
        decoded = decode_response(_response_for(marking, 0x14000042))
        assert decoded.initial_ttl == ttl
        assert decoded.is_preprobe == preprobe
        assert decoded.timestamp_ms == int(send_time * 1000) % TIMESTAMP_WRAP_MS
        assert decoded.dst == 0x14000042

    def test_ttl_32_uses_all_five_bits(self):
        marking = encode_probe(1, 32, 0.0)
        decoded = decode_response(_response_for(marking, 1))
        assert decoded.initial_ttl == 32


class TestIntegrity:
    def test_intact_destination_passes(self):
        marking = encode_probe(0x14000001, 8, 0.0)
        decoded = decode_response(_response_for(marking, 0x14000001))
        assert destination_intact(decoded)

    def test_rewritten_destination_detected(self):
        marking = encode_probe(0x14000001, 8, 0.0)
        # Middlebox rewrote the destination: the quote carries another
        # address but the original checksum port.
        decoded = decode_response(_response_for(marking, 0x14000099))
        assert not destination_intact(decoded)

    def test_extra_scan_offset_respected(self):
        marking = encode_probe(0x14000001, 8, 0.0, scan_offset=3)
        decoded = decode_response(_response_for(marking, 0x14000001))
        assert destination_intact(decoded, scan_offset=3)
        assert not destination_intact(decoded, scan_offset=0)


class TestRtt:
    def test_simple_rtt(self):
        marking = encode_probe(1, 8, send_time=1.000)
        decoded = decode_response(_response_for(marking, 1))
        assert rtt_ms(decoded, receive_time=1.250) == pytest.approx(250.0)

    def test_wraparound_recovery(self):
        # Send just before the 65.536 s wrap, receive just after.
        send = 65.530
        marking = encode_probe(1, 8, send_time=send)
        decoded = decode_response(_response_for(marking, 1))
        assert rtt_ms(decoded, receive_time=send + 0.100) == pytest.approx(100.0)

    @given(st.floats(min_value=0, max_value=10_000, allow_nan=False),
           st.integers(min_value=1, max_value=60_000))
    def test_any_subwrap_rtt_exact(self, send_time, rtt_int):
        marking = encode_probe(1, 8, send_time=send_time)
        decoded = decode_response(_response_for(marking, 1))
        send_ms = int(send_time * 1000)
        receive = (send_ms + rtt_int) / 1000.0
        # Float-to-ms truncation can shave one millisecond.
        assert abs(rtt_ms(decoded, receive) - rtt_int) <= 1


class TestYarrpEncoding:
    def test_seq_is_elapsed_ms(self):
        assert yarrp_tcp_seq(1.5, scan_start=0.5) == 1000

    def test_rejects_negative_elapsed(self):
        with pytest.raises(EncodingError):
            yarrp_tcp_seq(0.0, scan_start=1.0)

    def test_elapsed_recovery(self):
        seq = yarrp_tcp_seq(2.0)
        assert yarrp_elapsed_from_seq(seq, receive_time=2.3) == pytest.approx(300.0)

    def test_implausible_seq_rejected(self):
        assert yarrp_elapsed_from_seq(10_000, receive_time=1.0) is None
