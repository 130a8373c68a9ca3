"""Packet capture: run any scan while writing real wire bytes to pcap.

FlashRoute's most performant mode leaves response logging to an external
sniffer (paper §4.2.3).  :class:`CapturingNetwork` plays that sniffer: it
wraps a :class:`~repro.simnet.network.SimulatedNetwork`, serializes every
probe and every response to byte-exact IPv4 packets, and streams them into
a pcap file that tcpdump/Wireshark/scapy can open.
"""

from __future__ import annotations

from typing import BinaryIO, List, Optional

from ..net.icmp import IcmpResponse, ResponseKind, pack_icmp_error
from ..net.packets import PROTO_TCP, PROTO_UDP, ProbeHeader, TCPHeader, IPv4Header
from ..net.pcap import PcapWriter
from .network import SimulatedNetwork


def response_wire_bytes(response: IcmpResponse, vantage: int) -> bytes:
    """Wire bytes of a response as the vantage point's sniffer sees it."""
    if response.kind is ResponseKind.TCP_RST:
        # A RST has no ICMP quotation: ports swapped, no payload.
        quoted = response.quoted
        tcp = TCPHeader(src_port=quoted.dst_port, dst_port=quoted.src_port,
                        seq=0, ack=quoted.tcp_seq, flags=0x14)  # RST|ACK
        body = tcp.pack()
        outer = IPv4Header(src=response.responder, dst=vantage,
                           proto=PROTO_TCP, ttl=64,
                           total_length=20 + len(body))
        return outer.pack() + body
    return pack_icmp_error(response.kind, response.responder, vantage,
                           response.quoted.quotation())


class CapturingNetwork:
    """A transparent proxy that captures a scan's traffic to pcap.

    Drop-in for :class:`SimulatedNetwork`: every engine in this library
    only calls :meth:`send_probes`/:meth:`send_probe` and reads attributes,
    all of which are forwarded.
    """

    def __init__(self, network: SimulatedNetwork,
                 stream: BinaryIO) -> None:
        self._network = network
        self._writer = PcapWriter(stream)

    @property
    def packets_captured(self) -> int:
        return self._writer.count

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def send_probe(self, dst: int, ttl: int, send_time: float,
                   src_port: int, dst_port: int = 33434, ipid: int = 0,
                   udp_length: int = 8, proto: int = PROTO_UDP,
                   flow: Optional[int] = None,
                   single: bool = False) -> Optional[IcmpResponse]:
        """A one-probe :meth:`send_probes`, except that the inner network
        is entered by its scalar door, which is the one that takes the
        ``single`` hint."""
        self._write_probes(
            ((dst, ttl, send_time, src_port, ipid, udp_length),),
            dst_port, proto)
        response = self._network.send_probe(
            dst, ttl, send_time, src_port, dst_port, ipid, udp_length,
            proto, flow, single)
        self._write_responses((response,))
        return response

    def send_probes(self, probes, dst_port: int = 33434,
                    proto: int = PROTO_UDP,
                    flow: Optional[int] = None) -> List[Optional[IcmpResponse]]:
        """Batched counterpart of :meth:`send_probe`.

        Explicit (not left to ``__getattr__``) so batched engines don't
        bypass the sniffer — but the probes are forwarded through the
        inner network's *batch* path, not unrolled to scalar sends: a
        burst looks its table up once per run of probes to one key, so
        unrolling would change ``simnet.cache.*`` accounting (and the
        fault/cache columns ``--loss`` runs attach to the result) the
        moment a pcap writer is plugged in.  Probe wire bytes are
        written at their send times, responses at their arrivals.
        """
        self._write_probes(probes, dst_port, proto)
        responses = self._network.send_probes(
            probes, dst_port=dst_port, proto=proto, flow=flow)
        self._write_responses(responses)
        return responses

    def _write_probes(self, probes, dst_port: int, proto: int) -> None:
        vantage = self._network.topology.vantage_addr
        writer = self._writer
        for dst, ttl, send_time, src_port, ipid, udp_length in probes:
            probe = ProbeHeader(src=vantage, dst=dst, ttl=ttl, ipid=ipid,
                                proto=proto, src_port=src_port,
                                dst_port=dst_port, udp_length=udp_length)
            writer.write(send_time, probe.pack())

    def _write_responses(self, responses) -> None:
        vantage = self._network.topology.vantage_addr
        writer = self._writer
        for response in responses:
            if response is not None:
                writer.write(response.arrival_time,
                             response_wire_bytes(response, vantage))
                if response.dup is not None:
                    # Injected duplicate replies are real wire traffic too.
                    writer.write(response.dup.arrival_time,
                                 response_wire_bytes(response.dup, vantage))
