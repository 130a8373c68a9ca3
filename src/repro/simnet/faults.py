"""Deterministic, seeded fault injection for the simulated network.

The paper's robustness claims all hinge on how tools behave when the
network misbehaves: the gap limit of 5 exists to tolerate unresponsive
hops during forward probing (§4.2), ICMP rate limiting distorts discovery
(§5.3), Doubletree stop sets must survive missing responses (Donnet et
al.), and Yarrp motivates statelessness by loss tolerance outright.  This
module supplies the misbehaviour: a :class:`FaultModel` describing probe
loss, response loss, bounded reordering, duplicate TTL-exceeded replies
and transient router blackouts, and a :class:`FaultInjector` that applies
it to resolved probes.

Design rules (they are what make fault injection testable):

* **Stateless per-probe draws.**  Every fault decision is a pure hash of
  ``(fault seed, destination, TTL, send time)`` — no RNG stream, no
  ordering dependence.  The same seed therefore yields the same fault
  sequence whether probes are resolved by the uncached path, the flat
  route cache, or the batch entry point, and regardless of how many
  *other* probes were injected in between.  Cached-vs-uncached
  equivalence survives fault injection by construction.
* **Post-lookup application.**  Faults apply to the *resolved* outcome of
  a probe (`SimulatedNetwork` calls :meth:`FaultInjector.filter` exactly
  where a response object is about to be returned), so they compose with
  the route cache's memoized outcome tables without invalidating them.
  The one approximation this buys: a probe lost on the forward path still
  charges the responder's ICMP rate limiter, because the limiter decision
  is part of the (cached) lookup.  Loss rates and rate limits are both
  small, and the alternative — pre-lookup loss — would make cached and
  uncached limiter state diverge.
* **Silence is free.**  A probe whose resolution is already silent cannot
  be observed to be lost, so the injector is only consulted when a
  response exists; the ``probes_lost`` counter counts lost probes *that
  would otherwise have been answered*.

The injector's counters (``probes_lost``, ``responses_lost``,
``blackout_drops``, ``duplicates_injected``) are observability only; the
per-scan accounting engines report lives in
:class:`~repro.core.results.ScanResult` (``duplicate_responses`` and the
derived ``route_holes()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.icmp import IcmpResponse, ResponseKind

_MASK64 = (1 << 64) - 1

#: Per-fault-kind salts: independent decisions for one probe come from
#: independent hash streams.
_SALT_PROBE_LOSS = 0xA24BAED4963EE407
_SALT_RESPONSE_LOSS = 0x9FB21C651E98DF25
_SALT_DUPLICATE = 0xD6E8FEB86659FD93
_SALT_DUP_DELAY = 0x2545F4914F6CDD1D
_SALT_REORDER = 0x27220A95FE31A2B1
_SALT_REORDER_DUP = 0x8824AD5BA2B7289D
_SALT_BLACKOUT_PICK = 0x452821E638D01377
_SALT_BLACKOUT_PHASE = 0xBE5466CF34E90C6C

#: A duplicate TTL-exceeded reply trails the original by this much plus a
#: deterministic per-probe jitter (seconds): close enough to interleave
#: with neighbouring responses, far enough to be a distinct arrival.
_DUPLICATE_DELAY_BASE = 0.0005
_DUPLICATE_DELAY_SPAN = 0.002


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche an integer key to 64 uniform bits."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class FaultModel:
    """Declarative description of the injected faults.

    All probabilities are per-probe and independent; a default-constructed
    model injects nothing (``enabled`` is False) and a network built with
    it is bit-identical to one built with no model at all.
    """

    #: Probability a probe is lost before reaching any responder.
    probe_loss: float = 0.0

    #: Probability a generated response is lost on the way back.
    response_loss: float = 0.0

    #: Upper bound (seconds) of a uniform extra delay added to each
    #: response's arrival time; > 0 lets responses overtake one another
    #: (a bounded reordering window).
    reorder_window: float = 0.0

    #: Probability a TTL-exceeded reply is duplicated (routers under load
    #: and some middleboxes emit doubles).
    duplicate_probability: float = 0.0

    #: Fraction of responders that suffer periodic transient blackouts.
    blackout_fraction: float = 0.0

    #: Blackout cycle length and the silent window inside each cycle,
    #: in virtual seconds.
    blackout_period: float = 60.0
    blackout_duration: float = 5.0

    #: Seed of every fault decision; scans with equal seeds (and equal
    #: probe streams) see identical fault sequences.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("probe_loss", "response_loss", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        if not 0.0 <= self.blackout_fraction <= 1.0:
            raise ValueError("blackout_fraction must be in [0, 1], got "
                             f"{self.blackout_fraction!r}")
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be non-negative")
        if self.blackout_period <= 0:
            raise ValueError("blackout_period must be positive")
        if not 0 <= self.blackout_duration <= self.blackout_period:
            raise ValueError(
                "blackout_duration must be in [0, blackout_period]")

    @property
    def enabled(self) -> bool:
        """True when the model can change at least one probe's outcome."""
        return bool(self.probe_loss or self.response_loss
                    or self.reorder_window or self.duplicate_probability
                    or (self.blackout_fraction and self.blackout_duration))

    @classmethod
    def symmetric_loss(cls, loss: float, seed: int = 0,
                       **overrides) -> "FaultModel":
        """The ``--loss`` model: each probe and each response is lost
        independently with probability ``loss`` (end-to-end response rate
        ``(1 - loss)^2`` for a responsive hop)."""
        return cls(probe_loss=loss, response_loss=loss, seed=seed,
                   **overrides)


class FaultInjector:
    """Applies a :class:`FaultModel` to resolved probes.

    One injector per :class:`~repro.simnet.network.SimulatedNetwork`; it
    is stateless apart from observability counters, so sharing or
    resetting it never changes outcomes.
    """

    __slots__ = ("model", "_seed", "probes_lost", "responses_lost",
                 "blackout_drops", "duplicates_injected", "reordered")

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self._seed = mix64(model.seed * 0x9E3779B97F4A7C15 + 1)
        self.probes_lost = 0
        self.responses_lost = 0
        self.blackout_drops = 0
        self.duplicates_injected = 0
        self.reordered = 0

    def reset_counters(self) -> None:
        self.probes_lost = 0
        self.responses_lost = 0
        self.blackout_drops = 0
        self.duplicates_injected = 0
        self.reordered = 0

    def stats(self) -> dict:
        return {"probes_lost": self.probes_lost,
                "responses_lost": self.responses_lost,
                "blackout_drops": self.blackout_drops,
                "duplicates_injected": self.duplicates_injected,
                "reordered": self.reordered}

    def restore_counters(self, state: dict) -> None:
        """Restore observability counters from a checkpoint; fault *draws*
        are stateless, so this never changes outcomes."""
        self.probes_lost = state["probes_lost"]
        self.responses_lost = state["responses_lost"]
        self.blackout_drops = state["blackout_drops"]
        self.duplicates_injected = state["duplicates_injected"]
        self.reordered = state["reordered"]

    # ------------------------------------------------------------------ #

    def _unit(self, key: int, salt: int) -> float:
        """Uniform [0, 1) draw for one (probe, fault-kind) pair."""
        return mix64(self._seed ^ key ^ salt) / 18446744073709551616.0

    def _blacked_out(self, responder: int, send_time: float) -> bool:
        model = self.model
        pick = mix64(self._seed ^ (responder * 0x9E3779B97F4A7C15)
                      ^ _SALT_BLACKOUT_PICK) / 18446744073709551616.0
        if pick >= model.blackout_fraction:
            return False
        phase = mix64(self._seed ^ (responder * 0xC2B2AE3D27D4EB4F)
                       ^ _SALT_BLACKOUT_PHASE) / 18446744073709551616.0
        period = model.blackout_period
        return (send_time + phase * period) % period < model.blackout_duration

    def filter(self, dst: int, ttl: int, send_time: float,
               response: IcmpResponse) -> Optional[IcmpResponse]:
        """The (possibly faulted) observable outcome of one resolved probe.

        Called by the network at both points a response object is about
        to be returned — the cached burst loop and the uncached path.
        Mutating ``response`` is safe: the network constructs a fresh
        object per responding probe.
        """
        model = self.model
        # Probe identity key; send times are bit-identical across serving
        # modes, so the derived integer key (ns resolution) is too.
        key = ((dst * 0xFF51AFD7ED558CCD)
               ^ (ttl * 0xC4CEB9FE1A85EC53)
               ^ int(send_time * 1e9)) & _MASK64
        if model.probe_loss and \
                self._unit(key, _SALT_PROBE_LOSS) < model.probe_loss:
            self.probes_lost += 1
            return None
        if response is None:
            return None
        if model.blackout_fraction and \
                self._blacked_out(response.responder, send_time):
            self.blackout_drops += 1
            return None
        if model.response_loss and \
                self._unit(key, _SALT_RESPONSE_LOSS) < model.response_loss:
            self.responses_lost += 1
            return None
        if model.duplicate_probability \
                and response.kind is ResponseKind.TTL_EXCEEDED \
                and self._unit(key, _SALT_DUPLICATE) \
                < model.duplicate_probability:
            clone = IcmpResponse(
                kind=response.kind, responder=response.responder,
                quoted=response.quoted,
                arrival_time=response.arrival_time + _DUPLICATE_DELAY_BASE
                + self._unit(key, _SALT_DUP_DELAY) * _DUPLICATE_DELAY_SPAN,
                quoted_residual_ttl=response.quoted_residual_ttl)
            clone.is_duplicate = True
            response.dup = clone
            self.duplicates_injected += 1
        if model.reorder_window:
            response.arrival_time += \
                self._unit(key, _SALT_REORDER) * model.reorder_window
            dup = response.dup
            if dup is not None:
                dup.arrival_time += self._unit(
                    key, _SALT_REORDER_DUP) * model.reorder_window
            self.reordered += 1
        return response

    def explain(self, dst: int, ttl: int, send_time: float,
                responder: Optional[int] = None) -> Optional[str]:
        """Which fault (if any) :meth:`filter` would charge to this probe.

        Replays the same stateless hash draws in the same order as
        :meth:`filter` — ``probe_loss``, then blackout, then
        ``response_loss`` — without touching any counter, so post-hoc
        tools (``scan-diff``) can attribute a silent probe to its cause
        from nothing but the fault seed and the probe's identity.
        Blackouts need the ``responder`` that *would* have answered;
        without it that check is skipped.  Returns ``"probe_loss"``,
        ``"blackout"``, ``"response_loss"`` or ``None``.
        """
        model = self.model
        key = ((dst * 0xFF51AFD7ED558CCD)
               ^ (ttl * 0xC4CEB9FE1A85EC53)
               ^ int(send_time * 1e9)) & _MASK64
        if model.probe_loss and \
                self._unit(key, _SALT_PROBE_LOSS) < model.probe_loss:
            return "probe_loss"
        if model.blackout_fraction and responder is not None \
                and self._blacked_out(responder, send_time):
            return "blackout"
        if model.response_loss and \
                self._unit(key, _SALT_RESPONSE_LOSS) < model.response_loss:
            return "response_loss"
        return None
