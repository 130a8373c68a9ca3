"""The IPv6 extension (paper §5.4): a simulated sparse v6 Internet.

IPv6 scans run on the one FlashRoute engine (``FlashRoute.scan`` with
``FlashRouteConfig.flashroute_16_v6()``); the topology decides the
address family.  Over a :class:`Topology6` the engine keys blocks by
/64, indexes the DCB array through a dict built from the scan's own
target list (the hash-indexed store §5.4 asks for) and computes source
ports over all 128 address bits.
"""

from .topology6 import (
    SimulatedNetwork6,
    Site6,
    Subnet6,
    Topology6,
    TopologyConfig6,
)

__all__ = [
    "SimulatedNetwork6",
    "Site6",
    "Subnet6",
    "Topology6",
    "TopologyConfig6",
]
