"""Hop-distance prediction from preprobing measurements (paper §3.3.3).

Preprobing measures, with a single TTL-32 probe, the hop distance of every
destination that answers with ICMP port-unreachable.  Most random targets do
not answer, so FlashRoute exploits spatial locality: stub networks advertise
blocks larger than /24, hence adjacent /24s usually share their transit path
and sit at (nearly) the same distance.  A measured distance therefore
predicts the distances of up to ``proximity_span`` blocks on each side.

This module is pure logic (no I/O, no clock) so the prediction rule can be
property-tested and reused by the accuracy analysis for Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class PreprobeOutcome:
    """What the preprobing phase produced for one scan."""

    #: prefix offset -> distance measured directly from a response.
    measured: Dict[int, int] = field(default_factory=dict)

    #: prefix offset -> distance predicted from a measured neighbour.
    predicted: Dict[int, int] = field(default_factory=dict)

    probes: int = 0
    duration: float = 0.0

    def coverage(self, num_prefixes: int) -> float:
        """Fraction of targets with a measured or predicted distance
        (paper: ~23 % with random targets, ~38 % with the hitlist)."""
        if num_prefixes <= 0:
            return 0.0
        return (len(self.measured) + len(self.predicted)) / num_prefixes

    def distance_for(self, offset: int) -> Optional[int]:
        value = self.measured.get(offset)
        if value is not None:
            return value
        return self.predicted.get(offset)


def predict_distances(measured: Dict[int, int], num_prefixes: int,
                      proximity_span: int) -> Dict[int, int]:
    """Predict distances of unmeasured prefixes from measured neighbours.

    For each unmeasured prefix in ``[0, num_prefixes)`` the *nearest*
    measured prefix within ``proximity_span`` blocks (ties broken toward the
    preceding block, which shares the stub more often under left-to-right
    allocation) donates its distance.  Only offsets within the span of a
    measured one can receive a prediction, so only those are visited, in
    ascending order (the order of the returned dict): O(measured · span²)
    worst case, independent of ``num_prefixes``, which a shard slice of a
    large topology depends on.
    """
    if proximity_span <= 0 or not measured:
        return {}
    candidates = sorted({origin + delta for origin in measured
                         for delta in range(-proximity_span,
                                            proximity_span + 1)})
    predicted: Dict[int, int] = {}
    for offset in candidates:
        if not 0 <= offset < num_prefixes or offset in measured:
            continue
        for delta in range(1, proximity_span + 1):
            left = measured.get(offset - delta)
            if left is not None:
                predicted[offset] = left
                break
            right = measured.get(offset + delta)
            if right is not None:
                predicted[offset] = right
                break
    return predicted


def clamp_distance(distance: int, max_ttl: int) -> Optional[int]:
    """Sanitize a measured distance for use as a split point."""
    if distance < 1:
        return None
    return min(distance, max_ttl)
