"""Deterministic test harnesses that attack the system on purpose.

``repro.testing.chaos`` is the seeded chaos injector: it kills shard
workers at chosen slice boundaries (``scan --chaos-spec``) and floods
the daemon with hostile clients (``run_daemon_chaos``, driven by the
daemon-hardening tests).  Everything here is opt-in and deterministic —
the production paths never import this package unless a chaos knob is
set.
"""

from .chaos import (
    ChaosError,
    ChaosKilled,
    ChaosSpec,
    kill_schedule,
    load_chaos_spec,
    maybe_kill_slice,
    should_kill,
)

__all__ = [
    "ChaosError",
    "ChaosKilled",
    "ChaosSpec",
    "kill_schedule",
    "load_chaos_spec",
    "maybe_kill_slice",
    "should_kill",
]
