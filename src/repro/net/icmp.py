"""ICMP response messages and their probe quotations.

Stateless/high-parallelism traceroute hinges on one ICMP property: error
messages (TTL exceeded, destination unreachable) quote the offending packet's
IPv4 header plus at least the first 8 bytes of its transport header.  All of
FlashRoute's probe-encoded state comes back through that quotation.  This
module defines the response types the simulator emits and the byte-level
pack/unpack of ICMP error messages.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from .checksum import internet_checksum
from .packets import IPV4_HEADER_LEN, IPv4Header, PacketError, ProbeHeader

ICMP_HEADER_LEN = 8

# ICMP types/codes used by traceroute.
ICMP_TIME_EXCEEDED = 11
ICMP_DEST_UNREACHABLE = 3
ICMP_ECHO_REPLY = 0

CODE_TTL_EXCEEDED = 0
CODE_NET_UNREACHABLE = 0
CODE_HOST_UNREACHABLE = 1
CODE_PROTO_UNREACHABLE = 2
CODE_PORT_UNREACHABLE = 3


class ResponseKind(enum.Enum):
    """Semantic classification of a probe response."""

    TTL_EXCEEDED = "ttl_exceeded"
    PORT_UNREACHABLE = "port_unreachable"
    HOST_UNREACHABLE = "host_unreachable"
    TCP_RST = "tcp_rst"
    ECHO_REPLY = "echo_reply"

    @property
    def is_unreachable(self) -> bool:
        """True for the "reached the end target" family of responses.

        The paper treats host/port/protocol unreachable (and a TCP RST for
        TCP-ACK probes) as the signal that forward probing hit the target.
        """
        return self is _PORT or self is _HOST or self is _RST


# Bound once: ``is_unreachable`` runs per answer on the probe path.
_PORT = ResponseKind.PORT_UNREACHABLE
_HOST = ResponseKind.HOST_UNREACHABLE
_RST = ResponseKind.TCP_RST

_KIND_TO_TYPE_CODE = {
    ResponseKind.TTL_EXCEEDED: (ICMP_TIME_EXCEEDED, CODE_TTL_EXCEEDED),
    ResponseKind.PORT_UNREACHABLE: (ICMP_DEST_UNREACHABLE, CODE_PORT_UNREACHABLE),
    ResponseKind.HOST_UNREACHABLE: (ICMP_DEST_UNREACHABLE, CODE_HOST_UNREACHABLE),
}

_TYPE_CODE_TO_KIND = {v: k for k, v in _KIND_TO_TYPE_CODE.items()}


@dataclass
class IcmpResponse:
    """A parsed ICMP (or RST) response to one probe.

    Attributes:
        kind: semantic response type.
        responder: address of the interface that sent the response.
        quoted: the probe headers recovered from the ICMP quotation.  For a
            TCP RST there is no quotation; the simulator reconstructs the
            fields it can (ports swapped, seq echoed) and ``quoted`` carries
            them so the receive path is uniform.
        arrival_time: virtual time (seconds) the response reached the
            vantage point.
        quoted_residual_ttl: the TTL the probe had *when it arrived* at the
            responder, as preserved in the quotation.  This is what the
            single-probe hop-distance measurement (paper §3.3.1) reads.

    Two extra slots carry fault-injection state
    (:mod:`repro.simnet.faults`); both default to the no-fault values:

    * ``is_duplicate`` — this response is an injected duplicate of
      another (engines count these in ``ScanResult.duplicate_responses``);
    * ``dup`` — the duplicate chained onto this response, delivered by
      :class:`~repro.simnet.engine.ResponseQueue` as its own arrival
      (``None`` when no duplicate was injected).
    """

    __slots__ = ("kind", "responder", "quoted", "arrival_time",
                 "quoted_residual_ttl", "is_duplicate", "dup")

    kind: ResponseKind
    responder: int
    quoted: ProbeHeader
    arrival_time: float
    quoted_residual_ttl: int

    def __post_init__(self) -> None:
        # Not dataclass fields: defaulted fields would create class
        # attributes that collide with the manual __slots__.
        self.is_duplicate = False
        self.dup: Optional[IcmpResponse] = None

    @property
    def probe_dst(self) -> int:
        """Destination address of the original probe (from the quotation)."""
        return self.quoted.dst


def pack_icmp_error(kind: ResponseKind, responder: int, vantage: int,
                    quoted_probe_bytes: bytes, response_ttl: int = 64) -> bytes:
    """Build the full wire bytes of an ICMP error carrying a quotation.

    ``quoted_probe_bytes`` must be the probe's IPv4 header plus >= 8 bytes of
    transport header, with the probe's *residual* TTL already written into the
    quoted IPv4 header (that is what a real router quotes).
    """
    if kind not in _KIND_TO_TYPE_CODE:
        raise PacketError(f"{kind} is not an ICMP error kind")
    icmp_type, icmp_code = _KIND_TO_TYPE_CODE[kind]
    if len(quoted_probe_bytes) < IPV4_HEADER_LEN + 8:
        raise PacketError("quotation must carry IPv4 header + 8 bytes")
    header = struct.pack("!BBHI", icmp_type, icmp_code, 0, 0)
    checksum = internet_checksum(header + quoted_probe_bytes)
    icmp = struct.pack("!BBHI", icmp_type, icmp_code, checksum, 0)
    body = icmp + quoted_probe_bytes
    outer = IPv4Header(src=responder, dst=vantage, proto=1, ttl=response_ttl,
                       total_length=IPV4_HEADER_LEN + len(body))
    return outer.pack() + body


def unpack_icmp_error(data: bytes, arrival_time: float = 0.0) -> IcmpResponse:
    """Parse wire bytes of an ICMP error back into an :class:`IcmpResponse`."""
    outer = IPv4Header.unpack(data)
    if outer.proto != 1:
        raise PacketError(f"not an ICMP packet (proto {outer.proto})")
    body = data[IPV4_HEADER_LEN:]
    if len(body) < ICMP_HEADER_LEN:
        raise PacketError("short ICMP header")
    icmp_type, icmp_code, _checksum, _unused = struct.unpack("!BBHI", body[:8])
    kind = _TYPE_CODE_TO_KIND.get((icmp_type, icmp_code))
    if kind is None:
        raise PacketError(f"unsupported ICMP type/code {icmp_type}/{icmp_code}")
    quotation = body[ICMP_HEADER_LEN:]
    quoted = ProbeHeader.unpack(quotation)
    return IcmpResponse(kind=kind, responder=outer.src, quoted=quoted,
                        arrival_time=arrival_time,
                        quoted_residual_ttl=quoted.ttl)


def distance_from_unreachable(response: IcmpResponse,
                              initial_ttl: int) -> Optional[int]:
    """Hop distance of the destination from a port-unreachable response.

    This is the paper's one-probe distance measurement (§3.3.1): a probe sent
    with ``initial_ttl`` arrives at a destination ``d`` hops away carrying
    residual TTL ``initial_ttl - (d - 1)`` (each of the ``d - 1`` intermediate
    routers decrements it once).  Therefore::

        d = initial_ttl - residual + 1

    Returns ``None`` when the arithmetic is impossible (malformed or
    middlebox-mangled residual TTL larger than the initial TTL).
    """
    residual = response.quoted_residual_ttl
    if residual > initial_ttl or residual < 1:
        return None
    return initial_ttl - residual + 1
