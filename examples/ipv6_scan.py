#!/usr/bin/env python
"""The paper's §5.4 IPv6 extension in action.

IPv6 cannot be scanned by enumerating prefixes — allocation is sparse, so
the target list comes from seed addresses (hitlists/traces) and the
control state cannot be an array over the prefix space.  FlashRoute's one
engine handles both: over a v6 topology it keys blocks by /64 and indexes
the DCB array through a dict of the scan's own targets.  This example
builds the simulated Internet with its IPv6 address plan (each stub a /48
site, each block a sparsely numbered /64), scans its seed list, compares
against Yarrp's sweep of one probe per (target, hop), and shows why the
array over the prefix space had to go.

Run:  python examples/ipv6_scan.py [num_subnets]
"""

import sys

from repro.core import (DCBArray, FlashRoute, FlashRouteConfig,
                        projected_scan_memory)
from repro.core.results import format_scan_time
from repro.net.addr6 import int_to_ip6
from repro.simnet import SimulatedNetwork, Topology, TopologyConfig


def main() -> None:
    num_subnets = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    topology = Topology(TopologyConfig(num_prefixes=num_subnets,
                                       address_bits=128))
    targets = topology.seed_targets()
    print(f"Sparse v6 Internet: {len(topology.stubs)} /48 sites announcing "
          f"{len(targets)} /64 subnets (seed list):")
    for subnet, target in list(sorted(targets.items()))[:3]:
        print(f"  {int_to_ip6(subnet << 64)}/64 -> seed "
              f"{int_to_ip6(target)}")
    print("  ...")

    # Why the array over the prefix space had to go: control-state memory.
    # The scan's array has one slot per seed target, as this one does.
    config = FlashRouteConfig.flashroute_16_v6()
    dcb = DCBArray(list(targets.values()), config.split_ttl,
                   config.gap_limit)
    print(f"\nControl state: the DCB array holds {dcb.size} blocks in "
          f"{dcb.memory_footprint() / 1024:.0f} KiB; an array indexed "
          f"by /64 prefix would need 2^64 slots (the /32 IPv4 array alone "
          f"is already {projected_scan_memory(32) / 2**30:.0f} GiB, §5.4).")

    result = FlashRoute(config).scan(SimulatedNetwork(topology),
                                     targets=targets)
    baseline = FlashRoute(FlashRouteConfig.yarrp32_udp_simulation(
        granularity=64, probing_rate=1000.0)).scan(
        SimulatedNetwork(topology), targets=targets)

    print(f"\nFlashRoute-16: interfaces={result.interface_count():,} "
          f"probes={result.probes_sent:,} "
          f"time={format_scan_time(result.duration)}")
    print(f"Yarrp sweep:   interfaces={baseline.interface_count():,} "
          f"probes={baseline.probes_sent:,} "
          f"time={format_scan_time(baseline.duration)}")
    print(f"\nFlashRoute used "
          f"{result.probes_sent / baseline.probes_sent * 100:.0f}% of the "
          f"probes for "
          f"{result.interface_count() / baseline.interface_count() * 100:.0f}% "
          f"of the interfaces — the IPv4 headline carries over.")


if __name__ == "__main__":
    main()
