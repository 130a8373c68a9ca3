"""The network with no route cache: every probe resolved from the topology.

:class:`OracleNetwork` answers each probe through
``SimulatedNetwork._send_probe_uncached`` — one ``Topology.hop_at`` walk per
probe and no outcome table — as the simulator did before the route cache.
The equivalence tests run the same probe streams and scans through it and
through :class:`~repro.simnet.network.SimulatedNetwork`, and require equal
responses, counters, event streams and metrics.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.net.icmp import IcmpResponse
from repro.net.packets import PROTO_UDP, UDP_HEADER_LEN
from repro.simnet.network import BatchProbe, SimulatedNetwork


class OracleNetwork(SimulatedNetwork):
    """A :class:`SimulatedNetwork` that never reads its route cache and
    reports none in :meth:`stats`."""

    __slots__ = ()

    def send_probe(self, dst: int, ttl: int, send_time: float,
                   src_port: int, dst_port: int = 33434, ipid: int = 0,
                   udp_length: int = UDP_HEADER_LEN, proto: int = PROTO_UDP,
                   flow: Optional[int] = None,
                   single: bool = False) -> Optional[IcmpResponse]:
        return self._send_probe_uncached(dst, ttl, send_time, src_port,
                                         dst_port, ipid, udp_length, proto,
                                         flow)

    def send_probes(self, probes: Iterable[BatchProbe],
                    dst_port: int = 33434, proto: int = PROTO_UDP,
                    flow: Optional[int] = None
                    ) -> List[Optional[IcmpResponse]]:
        send_one = self._send_probe_uncached
        return [send_one(dst, ttl, send_time, src_port, dst_port, ipid,
                         udp_length, proto, flow)
                for dst, ttl, send_time, src_port, ipid, udp_length
                in probes]

    def stats(self) -> dict:
        return dict(super().stats(), route_cache=None)
