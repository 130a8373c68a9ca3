"""FlashRoute's probe encoding (paper §3.1).

All state needed to interpret a response is carried in the probe itself and
returned inside the ICMP quotation:

* **IPID, bits 15..11** — the probe's initial TTL minus one (5 bits, TTLs
  1..32).
* **IPID, bit 10** — set on preprobing-phase probes, so a late preprobe
  response cannot be confused with a main-phase response.
* **IPID, bits 9..0** — the high 10 bits of a 16-bit millisecond timestamp.
* **UDP length, low 6 bits above the 8-byte header** — the low 6 bits of the
  timestamp.  16 bits at millisecond granularity wrap in ~65.5 s, "less than
  the official maximum segment lifetime but more than enough to derive the
  round-trip time".
* **UDP source port** — the Internet checksum of the destination address:
  the constant per-destination flow id Paris traceroute requires, and an
  integrity check against in-flight destination rewriting (§5.3).

Yarrp's TCP-ACK probes instead place the elapsed time into the TCP sequence
number; both encodings are implemented here (the baselines reuse this
module).

This module is the marking's specification and public API.  A scan runs the
same expressions inline in ``ScanRuntime.emit`` and ``ScanRuntime.drain``;
``tests/test_probe_path.py`` holds those loops to these functions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..net.checksum import flow_source_port
from ..net.icmp import IcmpResponse
from ..net.packets import UDP_HEADER_LEN

TIMESTAMP_WRAP_MS = 1 << 16  # 16-bit millisecond timestamp
_TTL_SHIFT = 11
_PREPROBE_BIT = 1 << 10
_TS_HIGH_MASK = 0x3FF
_TS_LOW_MASK = 0x3F

MAX_ENCODABLE_TTL = 32


class EncodingError(ValueError):
    """Raised when header fields cannot carry the requested values."""


class ProbeMarking(NamedTuple):
    """The header field values encoding one probe's state.  A named
    tuple, like :class:`DecodedProbe`: one is built per probe and one per
    response, and it builds in 0.3 us where a frozen dataclass takes 0.8."""

    ipid: int
    udp_length: int
    src_port: int


class DecodedProbe(NamedTuple):
    """State recovered from a response's quoted probe headers."""

    initial_ttl: int
    is_preprobe: bool
    timestamp_ms: int
    dst: int
    src_port: int


def encode_probe(dst: int, initial_ttl: int, send_time: float,
                 is_preprobe: bool = False,
                 scan_offset: int = 0) -> ProbeMarking:
    """Compute the header fields for a probe sent at ``send_time`` seconds.

    ``scan_offset`` shifts the checksum-derived source port for
    discovery-optimized extra scans (§5.2).
    """
    if not 1 <= initial_ttl <= MAX_ENCODABLE_TTL:
        raise EncodingError(
            f"initial TTL {initial_ttl} does not fit in 5 bits (1..32)")
    timestamp = int(send_time * 1000.0) % TIMESTAMP_WRAP_MS
    ipid = ((initial_ttl - 1) << _TTL_SHIFT)
    if is_preprobe:
        ipid |= _PREPROBE_BIT
    ipid |= (timestamp >> 6) & _TS_HIGH_MASK
    return ProbeMarking(ipid, UDP_HEADER_LEN + (timestamp & _TS_LOW_MASK),
                        flow_source_port(dst, scan_offset))


def decode_response(response: IcmpResponse) -> DecodedProbe:
    """Recover the encoded probe state from a response's quotation."""
    quoted = response.quoted
    ipid = quoted.ipid
    timestamp = (((ipid & _TS_HIGH_MASK) << 6)
                 | ((quoted.udp_length - UDP_HEADER_LEN) & _TS_LOW_MASK))
    return DecodedProbe((ipid >> _TTL_SHIFT) + 1, bool(ipid & _PREPROBE_BIT),
                        timestamp, quoted.dst, quoted.src_port)


def destination_intact(decoded: DecodedProbe, scan_offset: int = 0) -> bool:
    """True if the quoted destination still matches its checksum port.

    A mismatch means a middlebox rewrote the destination address in flight;
    FlashRoute drops such responses and counts them (§5.3).
    """
    return flow_source_port(decoded.dst, scan_offset) == decoded.src_port


def rtt_ms(decoded: DecodedProbe, receive_time: float) -> float:
    """Round-trip time implied by the probe timestamp, in milliseconds.

    Handles the 16-bit wrap: any RTT below ~65.5 s is recovered exactly.
    """
    now_ms = int(receive_time * 1000.0)
    return float((now_ms - decoded.timestamp_ms) % TIMESTAMP_WRAP_MS)


def yarrp_tcp_seq(send_time: float, scan_start: float = 0.0) -> int:
    """Yarrp's TCP-ACK encoding: elapsed milliseconds in the sequence number."""
    elapsed = int((send_time - scan_start) * 1000.0)
    if elapsed < 0:
        raise EncodingError("send_time precedes scan start")
    return elapsed & 0xFFFFFFFF


def yarrp_elapsed_from_seq(seq: int, receive_time: float,
                           scan_start: float = 0.0) -> Optional[float]:
    """RTT in ms from a quoted Yarrp TCP sequence number, if plausible."""
    now = int((receive_time - scan_start) * 1000.0)
    rtt = now - seq
    if rtt < 0:
        return None
    return float(rtt)
