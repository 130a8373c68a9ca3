"""Round-trip-time model.

RTTs only need to be *plausible and deterministic*: FlashRoute derives them
from the probe-encoded millisecond timestamp, and the tests verify the
decoder recovers exactly what the simulator imposed.  We charge a fixed
per-hop latency both ways plus a deterministic pseudo-random jitter keyed on
the probe identity, so repeated runs are identical without a shared RNG.

The per-depth base delays are precomputed into flat tables at construction:
the uncached path calls :meth:`LatencyModel.one_way`/``round_trip`` once or
twice per responding probe (``send_probes`` inlines their expressions), and
the depth multiplications are the same for every probe at a given depth.  The tables store the *exact* floats the
original expressions produce (same operations, same order), so cached and
uncached scans remain bit-identical.
"""

from __future__ import annotations

_JITTER_MULT = 1103515245
_JITTER_INC = 12345
_HASH_MULT = 2654435761

#: Depths precomputed at construction; anything deeper (not reachable with
#: the 32-TTL probe encoding, but kept correct anyway) is computed on demand.
_TABLE_DEPTHS = 64


def jitter_fraction(dst: int, ttl: int, salt: int = 0) -> float:
    """Deterministic jitter in [0, 1) keyed on probe identity."""
    value = (dst * _JITTER_MULT + ttl * _HASH_MULT + salt + _JITTER_INC)
    return ((value >> 8) & 0xFFFF) / 65536.0


class LatencyModel:
    """Computes one-way and round-trip delays for a probe."""

    __slots__ = ("hop_latency", "jitter_span", "_half_span",
                 "_one_way_base", "_round_trip_base")

    def __init__(self, hop_latency: float, jitter_span: float) -> None:
        if hop_latency <= 0:
            raise ValueError("hop_latency must be positive")
        if jitter_span < 0:
            raise ValueError("latency_jitter must be non-negative")
        self.hop_latency = hop_latency
        self.jitter_span = jitter_span
        # 0.5 * span and 2.0 * latency are the left-to-right partial
        # products of the original expressions, so table entries are
        # float-for-float what the unfolded arithmetic yields.
        self._half_span = 0.5 * jitter_span
        self._one_way_base = tuple(
            hop_latency * max(depth, 1) for depth in range(_TABLE_DEPTHS))
        self._round_trip_base = tuple(
            (2.0 * hop_latency) * max(depth, 1)
            for depth in range(_TABLE_DEPTHS))

    def one_way(self, depth: int, dst: int, ttl: int) -> float:
        """Vantage point -> responder delay for a probe expiring at depth."""
        if 0 <= depth < _TABLE_DEPTHS:
            base = self._one_way_base[depth]
        else:
            base = self.hop_latency * max(depth, 1)
        value = (dst * _JITTER_MULT + ttl * _HASH_MULT + _JITTER_INC)
        return base + self._half_span * (((value >> 8) & 0xFFFF) / 65536.0)

    def round_trip(self, depth: int, dst: int, ttl: int) -> float:
        """Probe departure -> response arrival delay."""
        if 0 <= depth < _TABLE_DEPTHS:
            base = self._round_trip_base[depth]
        else:
            base = (2.0 * self.hop_latency) * max(depth, 1)
        value = (dst * _JITTER_MULT + ttl * _HASH_MULT + 1 + _JITTER_INC)
        return base + self.jitter_span * (((value >> 8) & 0xFFFF) / 65536.0)
