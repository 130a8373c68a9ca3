"""Synthetic ISI Census hitlist with the bias the paper uncovers (§5.1).

The real hitlist [18] records, for every routable /24, the address most
responsive to ICMP pings over a long-running census.  The paper's finding is
that those addresses skew toward gateway appliances at the entrance of stub
networks, so tracerouting them measures shorter routes and misses interior
interfaces.  We synthesize a hitlist with exactly that selection behaviour:

1. if the stub's gateway appliance lives in the prefix and responds, pick it;
2. else if the prefix holds an in-prefix internal router that responds and is
   "appliance-like" (the shallowest one), sometimes pick it;
3. else pick among the prefix's ping-responsive hosts — which only sometimes
   coincide with the hosts that answer UDP probes;
4. else pick a stable pseudo-random (dead) address, since the census always
   lists something for a routable prefix.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .topology import Topology


def synthesize_hitlist(topology: "Topology", rng: random.Random) -> None:
    """Fill ``topology.hitlist_host`` for every scanned /24."""
    prefers_udp = topology.config.hitlist_prefers_udp_responder
    stubs = topology.stubs
    udp_resp = topology.udp_resp
    active_start, active_octets = topology.active_start, topology.active_octets
    ping_start, ping_octets = topology.ping_start, topology.ping_octets
    picks = topology.hitlist_host
    for offset in range(topology.num_prefixes):
        stub = stubs[topology.prefix_stub[offset]]
        pick = None
        if stub.first_offset == offset and udp_resp[stub.gateway_iface]:
            pick = 1  # the gateway's octet
        elif topology.chain_len[offset] and rng.random() < 0.45:
            # In-prefix appliances: the interior chain and alternate last
            # hop, lowest responsive octet first.
            for octet in topology.special_octets(offset):
                if octet != 1 and udp_resp[topology.special_iface(offset,
                                                                  octet)]:
                    pick = octet
                    break
        if pick is None and active_start[offset] < active_start[offset + 1]:
            if rng.random() < prefers_udp:
                pick = active_octets[active_start[offset]]
        if pick is None and ping_start[offset] < ping_start[offset + 1]:
            pick = ping_octets[ping_start[offset]]
        if pick is None:
            pick = rng.randrange(2, 250)
        picks[offset] = pick


def hitlist_addresses(topology: "Topology") -> Dict[int, int]:
    """Map of /24 prefix index -> the synthesized hitlist address."""
    base = topology.base_prefix
    return {base + offset: (base + offset) << 8 | host
            for offset, host in enumerate(topology.hitlist_host)}
