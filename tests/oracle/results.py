"""The scan result's hop store as it was: one ``{ttl: responder}`` dict
per prefix.

``repro.core.results.ScanResult`` keeps its hops as three columns in
arrival order.  :class:`DictResult` keeps the dict of dicts they replaced
and the route views as they were written over it, so generated tests can
compare the two on any hop stream.  Every other field is read from the
wrapped result, so ``oracle.output``'s writers run over it unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.results import ScanResult


class DictResult:
    """``result`` with its hops in ``routes[prefix][ttl]``."""

    def __init__(self, result: ScanResult) -> None:
        self._result = result
        self.routes: Dict[int, Dict[int, int]] = {}

    def __getattr__(self, name: str):
        return getattr(self._result, name)

    def add_hop(self, prefix: int, ttl: int, responder: int) -> None:
        self.routes.setdefault(prefix, {})[ttl] = responder

    def interfaces(self) -> Set[int]:
        found: Set[int] = set()
        for hops in self.routes.values():
            found.update(hops.values())
        return found

    def route(self, prefix: int) -> List[Tuple[int, int]]:
        return sorted(self.routes.get(prefix, {}).items())

    def route_length(self, prefix: int) -> Optional[int]:
        distance = self.dest_distance.get(prefix)
        if distance is not None:
            return distance
        hops = self.routes.get(prefix)
        return max(hops) if hops else None

    def route_holes(self) -> int:
        holes = 0
        for prefix, hops in self.routes.items():
            first = min(hops)
            distance = self.dest_distance.get(prefix)
            last = max(hops) if distance is None else distance
            holes += sum(1 for ttl in range(first + 1, last)
                         if ttl not in hops)
        return holes
