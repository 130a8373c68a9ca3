"""The Census-hitlist bias analysis (paper §5.1).

Runs the paper's battery of comparisons between an exhaustive scan of
hitlist representatives and an exhaustive scan of random representatives of
the same /24 prefixes:

* total interfaces discovered by each scan;
* per-prefix route-length asymmetry (routes to random targets tend to be
  longer);
* unique interfaces found on the extra tail of the longer routes;
* how many hitlist addresses appear as intermediate hops on routes to the
  random targets, and vice versa;
* the same length asymmetry restricted to prefixes where both targets
  responded (ruling out the unassigned-address explanation);
* prevalence of forwarding loops on routes to unresponsive random targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..core.results import ScanResult


@dataclass
class HitlistBiasReport:
    """All §5.1 quantities for one pair of scans."""

    hitlist_interfaces: int
    random_interfaces: int

    #: prefixes where the random-target route is longer / the hitlist-target
    #: route is longer (paper: 1,515,626 vs 1,349,814).
    random_longer: int
    hitlist_longer: int

    #: unique interfaces on the extra tail segments of the longer routes
    #: (paper: 57,532 more in the random scan, vs a 69,377 total gap).
    random_extra_tail_interfaces: int
    hitlist_extra_tail_interfaces: int

    #: hitlist addresses seen as intermediate hops of random-target routes,
    #: and random addresses seen on hitlist-target routes
    #: (paper: 27,203 vs 6,421).
    hitlist_on_random_routes: int
    random_on_hitlist_routes: int

    #: responsive target counts (paper: 1,273,230 hitlist vs 540,060 random).
    hitlist_responsive: int
    random_responsive: int

    #: both-responsive subset (paper: 294,123 prefixes; random longer in
    #: 64,279, hitlist longer in 34,057).
    both_responsive: int
    both_random_longer: int
    both_hitlist_longer: int

    #: loops on routes to unresponsive random targets (paper: 16,549 of
    #: 971,113, i.e. 1.7 %).
    unresponsive_random_with_responsive_hitlist: int
    looped_routes: int

    def interface_gap(self) -> int:
        return self.random_interfaces - self.hitlist_interfaces

    def loop_fraction(self) -> float:
        denominator = self.unresponsive_random_with_responsive_hitlist
        if denominator == 0:
            return 0.0
        return self.looped_routes / denominator


def _route_has_loop(hops: Dict[int, int]) -> bool:
    """A route loops if some interface appears at two or more TTLs."""
    seen: Set[int] = set()
    for _ttl, responder in sorted(hops.items()):
        if responder in seen:
            return True
        seen.add(responder)
    return False


def _tail_interfaces(hops: Dict[int, int], short_end: int) -> Set[int]:
    """Interfaces on the part of a route past another route's end."""
    return {responder for ttl, responder in hops.items() if ttl > short_end}


def analyze_hitlist_bias(hitlist_scan: ScanResult,
                         random_scan: ScanResult) -> HitlistBiasReport:
    """Compute the full §5.1 report from two exhaustive scans."""
    prefixes = set(hitlist_scan.targets) & set(random_scan.targets)
    random_routes, hitlist_routes = random_scan.routes, hitlist_scan.routes
    random_lengths = random_scan.route_lengths()
    hitlist_lengths = hitlist_scan.route_lengths()

    random_longer = 0
    hitlist_longer = 0
    both_responsive = 0
    both_random_longer = 0
    both_hitlist_longer = 0
    unresponsive_random = 0
    looped = 0
    random_tail: Set[int] = set()
    hitlist_tail: Set[int] = set()

    for prefix in prefixes:
        random_len = random_lengths.get(prefix)
        hitlist_len = hitlist_lengths.get(prefix)
        if random_len is not None and hitlist_len is not None:
            if random_len > hitlist_len:
                random_longer += 1
                random_tail |= _tail_interfaces(
                    random_routes.get(prefix, {}), hitlist_len)
            elif hitlist_len > random_len:
                hitlist_longer += 1
                hitlist_tail |= _tail_interfaces(
                    hitlist_routes.get(prefix, {}), random_len)

        hit_responded = prefix in hitlist_scan.dest_distance
        rand_responded = prefix in random_scan.dest_distance
        if hit_responded and rand_responded:
            both_responsive += 1
            rand_d = random_scan.dest_distance[prefix]
            hit_d = hitlist_scan.dest_distance[prefix]
            if rand_d > hit_d:
                both_random_longer += 1
            elif hit_d > rand_d:
                both_hitlist_longer += 1
        if hit_responded and not rand_responded:
            unresponsive_random += 1
            if _route_has_loop(random_routes.get(prefix, {})):
                looped += 1

    hitlist_addresses = set(hitlist_scan.targets.values())
    random_addresses = set(random_scan.targets.values())
    random_route_hops = random_scan.interfaces()
    hitlist_route_hops = hitlist_scan.interfaces()

    return HitlistBiasReport(
        hitlist_interfaces=len(hitlist_route_hops),
        random_interfaces=len(random_route_hops),
        random_longer=random_longer,
        hitlist_longer=hitlist_longer,
        random_extra_tail_interfaces=len(random_tail - hitlist_route_hops),
        hitlist_extra_tail_interfaces=len(hitlist_tail - random_route_hops),
        hitlist_on_random_routes=len(hitlist_addresses & random_route_hops),
        random_on_hitlist_routes=len(random_addresses & hitlist_route_hops),
        hitlist_responsive=len(hitlist_scan.dest_distance),
        random_responsive=len(random_scan.dest_distance),
        both_responsive=both_responsive,
        both_random_longer=both_random_longer,
        both_hitlist_longer=both_hitlist_longer,
        unresponsive_random_with_responsive_hitlist=unresponsive_random,
        looped_routes=looped,
    )
