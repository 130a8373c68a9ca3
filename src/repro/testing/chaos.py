"""Seeded, deterministic chaos injection for the shard pool and daemon.

Two fault families, one spec:

* **Shard-worker kills.**  :func:`should_kill` decides, as a pure
  function of ``(seed, slice, attempt)``, whether a worker dies at the
  start of a slice attempt — either because the slice is explicitly
  listed in ``kill_slices`` or because its hash draw falls under
  ``kill_rate``.  The draw uses the same SplitMix64 avalanche as the
  simulator's :class:`~repro.simnet.faults.FaultInjector`, so the
  injected-fault *sequence* is identical for identical seeds (the
  ``tests/test_chaos.py`` matrix pins this).  ``kills_per_slice`` caps
  how many attempts of one slice die, so a retry budget of ``K`` can
  outlive ``kills_per_slice <= K`` kills.

* **Hostile daemon clients.**  :func:`run_daemon_chaos` fans out the
  spec's ``slow_loris`` / ``disconnects`` / ``resets`` / ``malformed``
  counts as concurrent misbehaving clients against a live daemon; the
  overload drill in ``tests/test_service_hardening.py`` runs them beside
  a client burst.  Wall-clock scheduling of sockets is inherently racy,
  so determinism here means the *set* of injected behaviours (and every
  request payload) derives from the spec alone.

A spec travels as JSON — a file path or an inline object — via
``scan --chaos-spec``; see docs/robustness.md for the format.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..simnet.faults import mix64

#: Salt separating chaos kill draws from every other SplitMix64 stream
#: in the repo (fault injector, event sampling).
_KILL_SALT = 0xC4A0_5EED_0B57_ACE5


class ChaosError(ValueError):
    """A chaos spec could not be parsed or validated."""


class ChaosKilled(RuntimeError):
    """Raised inside a shard worker to simulate its death at a slice
    boundary.  Travels the existing worker-error path (the payload the
    parent turns into a :class:`~repro.core.sharding.ShardError` or a
    retry), so a chaos kill exercises exactly the machinery a real
    worker crash would."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ChaosSpec:
    """One seeded chaos scenario (immutable, JSON round-trippable).

    Shard side: ``kill_slices`` always die (their first
    ``kills_per_slice`` attempts); additionally every (slice, attempt)
    draws against ``kill_rate``.  Daemon side: client counts per
    misbehaviour class.
    """

    seed: int = 0
    kill_slices: Tuple[int, ...] = ()
    kill_rate: float = 0.0
    kills_per_slice: int = 1
    slow_loris: int = 0
    disconnects: int = 0
    resets: int = 0
    malformed: int = 0

    def __post_init__(self) -> None:
        # A spec arrives as JSON, where "1", 1.5 and true are all values:
        # each field is held to its type here, because should_kill would
        # otherwise die on it inside every worker, as a kill.
        object.__setattr__(self, "kill_slices",
                           tuple(self.kill_slices))
        if not _is_int(self.seed):
            raise ChaosError(f"seed must be an integer, got {self.seed!r}")
        for index in self.kill_slices:
            if not _is_int(index) or index < 0:
                raise ChaosError(
                    f"kill_slices must hold non-negative slice indexes, "
                    f"got {index!r}")
        rate = self.kill_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
                or not 0.0 <= rate <= 1.0:
            raise ChaosError(
                f"kill_rate must be a number in [0, 1], got {rate!r}")
        for name in ("kills_per_slice", "slow_loris", "disconnects",
                     "resets", "malformed"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ChaosError(
                    f"{name} must be a non-negative integer, got {value!r}")

    @property
    def kills_workers(self) -> bool:
        """Does this spec inject shard-worker deaths at all?"""
        return self.kills_per_slice > 0 \
            and (bool(self.kill_slices) or self.kill_rate > 0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "kill_slices": list(self.kill_slices),
            "kill_rate": self.kill_rate,
            "kills_per_slice": self.kills_per_slice,
            "slow_loris": self.slow_loris,
            "disconnects": self.disconnects,
            "resets": self.resets,
            "malformed": self.malformed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChaosSpec":
        if not isinstance(payload, dict):
            raise ChaosError(
                f"chaos spec must be a JSON object, got "
                f"{type(payload).__name__}")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ChaosError(
                f"unknown chaos spec field(s) {unknown} "
                f"(known: {sorted(known)})")
        kwargs = dict(payload)
        if "kill_slices" in kwargs:
            raw = kwargs["kill_slices"]
            if not isinstance(raw, (list, tuple)):
                raise ChaosError(
                    f"kill_slices must be a list, got "
                    f"{type(raw).__name__}")
            kwargs["kill_slices"] = tuple(raw)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ChaosError(f"bad chaos spec: {exc}") from exc


def load_chaos_spec(source: str) -> ChaosSpec:
    """Parse a chaos spec from a file path or an inline JSON object.

    ``scan --chaos-spec`` accepts both: anything that names an existing
    file is read from disk; otherwise the argument itself must be the
    JSON object (convenient in CI one-liners).
    """
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as stream:
            text = stream.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChaosError(
            f"chaos spec is neither an existing file nor valid JSON: "
            f"{exc}") from exc
    return ChaosSpec.from_dict(payload)


# --------------------------------------------------------------------- #
# Shard-worker kills
# --------------------------------------------------------------------- #

def should_kill(spec: ChaosSpec, slice_index: int, attempt: int) -> bool:
    """Pure decision: does the worker die at this (slice, attempt)?

    The first ``kills_per_slice`` attempts of a targeted slice die;
    later attempts survive, which is what lets ``--slice-retries K``
    finish a scan under ``kills_per_slice <= K``.
    """
    if attempt >= spec.kills_per_slice:
        return False
    if slice_index in spec.kill_slices:
        return True
    if spec.kill_rate <= 0.0:
        return False
    draw = mix64((spec.seed * 0x9E3779B97F4A7C15)
                  ^ (slice_index * 0xC2B2AE3D27D4EB4F)
                  ^ (attempt * 0x165667B19E3779F9)
                  ^ _KILL_SALT)
    return draw / 18446744073709551616.0 < spec.kill_rate


def kill_schedule(spec: ChaosSpec, slices: int,
                  max_attempts: int) -> List[Tuple[int, int]]:
    """Every (slice, attempt) pair the spec would kill, in scan order —
    the injected-fault sequence the determinism tests compare."""
    return [(index, attempt)
            for attempt in range(max_attempts)
            for index in range(slices)
            if should_kill(spec, index, attempt)]


def maybe_kill_slice(spec: Optional[ChaosSpec], slice_index: int,
                     attempt: int) -> None:
    """Worker-side hook: raise :class:`ChaosKilled` when the spec says
    this attempt dies.  ``None`` (no chaos) is always a no-op."""
    if spec is not None and should_kill(spec, slice_index, attempt):
        raise ChaosKilled(
            f"chaos: killed worker at slice {slice_index} boundary "
            f"(attempt {attempt}, seed {spec.seed})")


# --------------------------------------------------------------------- #
# Hostile daemon clients
# --------------------------------------------------------------------- #

#: Garbage lines the malformed flood cycles through: broken JSON, valid
#: JSON of the wrong shape, an unparseable trace request, bytes that are
#: not UTF-8, and nesting deeper than the JSON parser's stack (30 KB,
#: under the daemon's 64 KB line cap).  Each must draw exactly one
#: structured ``error`` record without killing the connection.
MALFORMED_LINES: Tuple[bytes, ...] = (
    b'{"destination": "20.0.0.7", "flow":',
    b'[1, 2, 3]',
    b'"just a string"',
    b'{"destination": "not-an-ip", "flow": 0}',
    b'{"destination": "20.0.0.7", "flow": 0, "bogus_field": 1}',
    b'{"destination": "\xff\xfe"}',
    b'[' * 30_000,
)


async def _open(host: Optional[str], port: Optional[int],
                socket_path: Optional[str]):
    if socket_path is not None:
        return await asyncio.open_unix_connection(socket_path)
    return await asyncio.open_connection(host, port)


async def slow_loris_client(host: Optional[str] = None,
                            port: Optional[int] = None,
                            socket_path: Optional[str] = None, *,
                            duration: float = 0.5,
                            drips: int = 8) -> Dict[str, object]:
    """Hold a connection open dribbling a never-finished request line.

    The daemon must neither block on the half-line (other clients keep
    being served) nor crash when the connection finally closes with the
    line incomplete.
    """
    reader, writer = await _open(host, port, socket_path)
    fragment = b'{"destination": "20.0.0.7", "flow": 0'  # no newline
    sent = 0
    try:
        step = max(1, len(fragment) // max(1, drips))
        for offset in range(0, len(fragment), step):
            writer.write(fragment[offset:offset + step])
            await writer.drain()
            sent += len(fragment[offset:offset + step])
            await asyncio.sleep(duration / max(1, drips))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return {"kind": "slow_loris", "bytes_sent": sent}


async def midstream_disconnect_client(payload: Dict[str, object],
                                      host: Optional[str] = None,
                                      port: Optional[int] = None,
                                      socket_path: Optional[str] = None,
                                      *, after_hops: int = 1
                                      ) -> Dict[str, object]:
    """Issue a real trace request, read a few hop records, vanish."""
    reader, writer = await _open(host, port, socket_path)
    seen = 0
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        while seen < after_hops:
            line = await reader.readline()
            if not line:
                break
            record = json.loads(line)
            if record.get("type") != "hop":
                break  # terminal arrived before the cutoff; fine
            seen += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return {"kind": "disconnect", "hops_seen": seen}


async def reset_client(payload: Dict[str, object],
                       host: Optional[str] = None,
                       port: Optional[int] = None,
                       socket_path: Optional[str] = None
                       ) -> Dict[str, object]:
    """Issue a request, then abort the transport without a clean FIN —
    the daemon-side write path must absorb the reset."""
    reader, writer = await _open(host, port, socket_path)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        await reader.readline()  # let at least one record flow
    except (ConnectionError, OSError):
        pass
    finally:
        transport = writer.transport
        if transport is not None:
            transport.abort()
    return {"kind": "reset"}


async def malformed_flood_client(host: Optional[str] = None,
                                 port: Optional[int] = None,
                                 socket_path: Optional[str] = None, *,
                                 lines: int = len(MALFORMED_LINES)
                                 ) -> Dict[str, object]:
    """Send a burst of garbage lines; every one must come back as a
    structured ``error`` record on a still-open connection."""
    reader, writer = await _open(host, port, socket_path)
    errors = 0
    try:
        for index in range(lines):
            writer.write(MALFORMED_LINES[index % len(MALFORMED_LINES)]
                         + b"\n")
            await writer.drain()
            line = await reader.readline()
            if not line:
                break
            if json.loads(line).get("type") == "error":
                errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return {"kind": "malformed", "lines_sent": lines,
            "error_records": errors}


async def run_daemon_chaos(spec: ChaosSpec,
                           payloads: List[Dict[str, object]],
                           host: Optional[str] = None,
                           port: Optional[int] = None,
                           socket_path: Optional[str] = None
                           ) -> Dict[str, object]:
    """Fan out the spec's hostile clients concurrently; returns a
    summary (per-kind counts plus how many raised unexpectedly).

    ``payloads`` supplies real trace requests for the disconnect/reset
    clients (cycled deterministically), so their damage lands on the
    same key population the measured burst uses.
    """
    tasks = []
    for index in range(spec.slow_loris):
        tasks.append(slow_loris_client(host, port, socket_path))
    for index in range(spec.disconnects):
        payload = dict(payloads[index % len(payloads)]) if payloads \
            else {"destination": "20.0.0.7", "flow": 0}
        payload.pop("id", None)
        tasks.append(midstream_disconnect_client(
            payload, host, port, socket_path,
            after_hops=1 + index % 3))
    for index in range(spec.resets):
        payload = dict(payloads[(index * 7) % len(payloads)]) \
            if payloads else {"destination": "20.0.0.7", "flow": 1}
        payload.pop("id", None)
        tasks.append(reset_client(payload, host, port, socket_path))
    for index in range(spec.malformed):
        tasks.append(malformed_flood_client(host, port, socket_path))
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    summary: Dict[str, object] = {
        "clients": len(tasks),
        "slow_loris": spec.slow_loris,
        "disconnects": spec.disconnects,
        "resets": spec.resets,
        "malformed": spec.malformed,
        "client_failures": sum(
            1 for outcome in outcomes if isinstance(outcome, Exception)),
        "malformed_error_records": sum(
            outcome.get("error_records", 0) for outcome in outcomes
            if isinstance(outcome, dict)),
    }
    return summary
