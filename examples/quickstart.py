#!/usr/bin/env python
"""Quickstart: scan a simulated Internet with FlashRoute.

Builds a seeded 1024-prefix topology, runs a FlashRoute-16 scan (split
TTL 16, GapLimit 5, hitlist preprobing — the paper's recommended
configuration), and prints the scan summary plus a traceroute-style view of
one discovered route.

Run:  python examples/quickstart.py
"""

from repro import FlashRoute, FlashRouteConfig, SimulatedNetwork, Topology, TopologyConfig
from repro.net import int_to_ip


def main() -> None:
    print("Generating a 1024-prefix simulated Internet...")
    topology = Topology(TopologyConfig(num_prefixes=1024, seed=2020))
    network = SimulatedNetwork(topology)

    print("Running FlashRoute-16 (split TTL 16, gap limit 5, "
          "hitlist preprobing)...")
    scanner = FlashRoute(FlashRouteConfig.flashroute_16())
    result = scanner.scan(network)

    print()
    print(result.summary())
    print(f"  responses: {result.responses:,}  "
          f"rounds: {result.rounds}  "
          f"probes/target: {result.probes_per_target():.1f}  "
          f"mean RTT: {result.mean_rtt_ms():.1f} ms")

    # Show the best-covered route to a responding destination,
    # traceroute style.  (Starred hops were skipped by backward probing's
    # redundancy elimination or simply never answered.)
    routes = result.routes
    prefix = max(result.dest_distance, key=lambda p: len(routes.get(p, {})))
    hops = routes.get(prefix, {})
    target = result.targets[prefix]
    print(f"\nRoute toward {int_to_ip(target)}:")
    end = result.dest_distance.get(prefix)
    for ttl in range(1, (end or max(hops)) + 1):
        responder = hops.get(ttl)
        if ttl == end:
            print(f"  {ttl:2d}  {int_to_ip(target)}  <- destination "
                  f"(port unreachable)")
        elif responder is not None:
            print(f"  {ttl:2d}  {int_to_ip(responder)}")
        else:
            print(f"  {ttl:2d}  *")


if __name__ == "__main__":
    main()
