"""Resilience layer: probe retransmission, adaptive rate backoff, and
checkpoint/resume for the scanning engines.

FlashRoute (like Yarrp) sends exactly one probe per hop, so under loss
every dropped packet is a permanent route hole.  This module supplies the
three recovery mechanisms production scanners layer on top of that model:

* **Probe retransmission** — :class:`RetryTracker` keeps a per-destination
  ledger of unanswered (offset, ttl) probes and re-arms them, after a
  virtual-clock timeout, for the next ring round.  Scheduling is purely a
  function of the virtual clock, so same-seed faulted runs retry in the
  identical order.

* **Adaptive rate backoff** — :class:`AdaptiveRateController` watches the
  per-round response-loss ratio and the :class:`IcmpRateLimiter` drop
  counter and multiplicatively backs off / additively recovers the probing
  rate, bounded below by a floor.

* **Checkpoint/resume** — versioned, checksummed JSON snapshots of the
  complete scan state (DCB ring, stop set, partial ``ScanResult``,
  permutation cursor, virtual clock, in-flight response queue, fault and
  rate-limiter counters), written at round boundaries and on
  ``KeyboardInterrupt``, from which ``--resume`` continues to a
  ``ScanResult`` byte-identical to an uninterrupted same-seed run.

Everything here is opt-in: ``ResilienceConfig()`` defaults (``retries=0``,
adaptive rate off, no checkpoint path) leave every engine byte-identical
to the seed behaviour, and engines receive ``resilience=None`` by default.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..net.icmp import IcmpResponse, ResponseKind
from ..net.packets import ProbeHeader

CHECKPOINT_FORMAT = "flashroute-sim-checkpoint"
#: 2: the invocation record lost ``route_cache`` (the switch is gone), so
#: a version-1 file's record no longer rebuilds a ``ScanRequest``.
CHECKPOINT_VERSION = 2

#: Virtual seconds an outstanding probe may remain unanswered before it is
#: re-armed for the next round.
RETRY_TIMEOUT = 1.0
#: Multiplicative factor applied to the rate when a round's loss (or
#: rate-limiter drop ratio) crosses a threshold.
BACKOFF_FACTOR = 0.5
#: Fraction of the *base* rate added back per clean round (additive
#: recovery).
RECOVERY_FRACTION = 0.125
#: The rate never drops below this fraction of the base rate.
RATE_FLOOR_FRACTION = 0.1
#: Per-round response-loss ratio (1 - responses / probes) at or above
#: which the controller backs off.  Clean scans have a naturally nonzero
#: silent ratio (void hops, gap-limit overshoot), so this sits well above
#: it.
LOSS_THRESHOLD = 0.85
#: Per-round (rate-limiter drops / probes) ratio at or above which the
#: controller backs off.
DROP_THRESHOLD = 0.05


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be loaded or fails validation."""


class ScanInterrupted(KeyboardInterrupt):
    """A scan was interrupted and its state saved to ``checkpoint_path``.

    Subclasses ``KeyboardInterrupt`` so callers that only handle the plain
    interrupt still unwind correctly; the CLI catches this subtype to print
    the checkpoint path and exit 130.
    """

    def __init__(self, checkpoint_path: str, rounds: int) -> None:
        super().__init__(checkpoint_path)
        self.checkpoint_path = checkpoint_path
        self.rounds = rounds


@dataclass
class ResilienceConfig:
    """Knobs for the resilience layer, shared by every engine.

    Attributes:
        retries: extra probes allowed per unanswered (destination, ttl)
            hop.  0 (the default) disables retransmission entirely and
            keeps the engine byte-identical to the seed behaviour.
        adaptive_rate: enable the backoff controller.
        checkpoint_path: file to write checkpoints to; ``None`` disables
            checkpointing (interrupts then re-raise unannotated).
        checkpoint_every: write a checkpoint every N round boundaries
            (0 = only on interrupt; the state is still captured each
            round so an interrupt can always be saved).
        checkpoint_meta: opaque dict stored as ``invocation`` in the
            checkpoint file; the CLI records the scan flags here so
            ``--resume FILE`` can rebuild the topology and scanner.
        round_hook: test/ops hook called with the round number after each
            round boundary; may raise ``KeyboardInterrupt`` to simulate a
            mid-scan interrupt deterministically.
    """

    retries: int = 0
    adaptive_rate: bool = False
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    checkpoint_meta: Optional[dict] = None
    round_hook: Optional[Callable[[int], None]] = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retries > 200:
            raise ValueError(f"retries must be <= 200, got {self.retries}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


class RetryTracker:
    """Deterministic ledger of unanswered probes awaiting retransmission.

    The tracker lives entirely in virtual time.  ``record_sent`` registers
    an outstanding probe; ``record_response`` settles it (whether the
    answer came for the original or any retry); ``sweep`` — called once
    per round boundary — moves probes older than ``timeout`` into the
    per-destination *due* lists, or drops them as exhausted once the
    budget is spent; ``take_due`` hands the engine the sorted list of
    (ttl, attempt) pairs to retransmit when the ring walk next visits the
    destination.  Because every transition is keyed off the virtual clock
    and the ring order, same-seed runs retry identically.
    """

    __slots__ = ("budget", "timeout", "pending", "due", "open_count",
                 "sent", "recovered", "exhausted")

    def __init__(self, budget: int, timeout: float) -> None:
        self.budget = budget
        self.timeout = timeout
        # (offset, ttl) -> (send_vt, attempt) of the latest transmission.
        self.pending: Dict[Tuple[int, int], Tuple[float, int]] = {}
        # offset -> list of (ttl, next_attempt) ready to retransmit.
        self.due: Dict[int, List[Tuple[int, int]]] = {}
        # offset -> outstanding entries (pending + due), for O(1)
        # destination-finished checks.
        self.open_count: Dict[int, int] = {}
        self.sent = 0        # retry probes actually transmitted
        self.recovered = 0   # answered probes whose attempt was > 0
        self.exhausted = 0   # probes dropped after the full budget

    def record_sent(self, offset: int, ttl: int, vt: float,
                    attempt: int) -> None:
        self.pending[(offset, ttl)] = (vt, attempt)
        self.open_count[offset] = self.open_count.get(offset, 0) + 1
        if attempt:
            self.sent += 1

    def record_response(self, offset: int, ttl: int) -> None:
        entry = self.pending.pop((offset, ttl), None)
        if entry is not None:
            self._dec(offset)
            if entry[1]:
                self.recovered += 1
            return
        # A late answer may race a probe already queued for retry.
        queued = self.due.get(offset)
        if queued:
            for i, (due_ttl, attempt) in enumerate(queued):
                if due_ttl == ttl:
                    del queued[i]
                    if not queued:
                        del self.due[offset]
                    self._dec(offset)
                    if attempt > 1:
                        self.recovered += 1
                    return

    def sweep(self, now: float) -> None:
        """Re-arm timed-out probes (or drop them once out of budget)."""
        if not self.pending:
            return
        expired = [key for key, (vt, _) in self.pending.items()
                   if vt + self.timeout <= now]
        for key in expired:
            vt, attempt = self.pending.pop(key)
            offset, ttl = key
            if attempt < self.budget:
                self.due.setdefault(offset, []).append((ttl, attempt + 1))
            else:
                self.exhausted += 1
                self._dec(offset)

    def take_due(self, offset: int) -> List[Tuple[int, int]]:
        """Pop this destination's retransmissions, sorted by TTL."""
        entries = self.due.pop(offset, None)
        if not entries:
            return []
        entries.sort()
        self.open_count[offset] = self.open_count.get(offset, 0) - len(entries)
        return entries

    def has_open(self, offset: int) -> bool:
        return self.open_count.get(offset, 0) > 0

    def _dec(self, offset: int) -> None:
        count = self.open_count.get(offset, 0) - 1
        if count > 0:
            self.open_count[offset] = count
        else:
            self.open_count.pop(offset, None)

    def state_dict(self) -> dict:
        return {
            "pending": [[off, ttl, vt, attempt] for (off, ttl), (vt, attempt)
                        in sorted(self.pending.items())],
            "due": [[off, ttl, attempt] for off in sorted(self.due)
                    for ttl, attempt in sorted(self.due[off])],
            "sent": self.sent,
            "recovered": self.recovered,
            "exhausted": self.exhausted,
        }

    def restore_state(self, state: dict) -> None:
        self.pending = {(off, ttl): (vt, attempt)
                        for off, ttl, vt, attempt in state["pending"]}
        self.due = {}
        for off, ttl, attempt in state["due"]:
            self.due.setdefault(off, []).append((ttl, attempt))
        self.open_count = {}
        for off, _ttl in self.pending:
            self.open_count[off] = self.open_count.get(off, 0) + 1
        for off, entries in self.due.items():
            self.open_count[off] = self.open_count.get(off, 0) + len(entries)
        self.sent = state["sent"]
        self.recovered = state["recovered"]
        self.exhausted = state["exhausted"]


class AdaptiveRateController:
    """Multiplicative-backoff / additive-recovery probing-rate controller.

    Once per round the engine reports the round's probe count, response
    count, and rate-limiter drop delta.  A round whose response-loss
    ratio reaches :data:`LOSS_THRESHOLD` — or whose drop ratio reaches
    :data:`DROP_THRESHOLD` — halves the rate (:data:`BACKOFF_FACTOR`),
    bounded by the floor; a clean round adds :data:`RECOVERY_FRACTION` of
    the base rate back, capped at the base.  Decisions depend only on deterministic
    per-round counters, so same-seed runs adapt identically.
    """

    __slots__ = ("base_rate", "rate", "floor", "recovery_step",
                 "backoffs", "recoveries")

    def __init__(self, base_rate: float) -> None:
        self.base_rate = base_rate
        self.rate = base_rate
        self.floor = max(base_rate * RATE_FLOOR_FRACTION, 1.0)
        self.recovery_step = base_rate * RECOVERY_FRACTION
        self.backoffs = 0
        self.recoveries = 0

    def observe_round(self, probes: int, responses: int,
                      drops: int) -> Optional[Tuple[str, float]]:
        """Digest one round's counters; returns ("backoff"|"recover",
        new_rate) when the rate changed, else ``None``."""
        if probes <= 0:
            return None
        loss = 1.0 - responses / probes
        if loss >= LOSS_THRESHOLD or drops / probes >= DROP_THRESHOLD:
            new_rate = max(self.floor, self.rate * BACKOFF_FACTOR)
            if new_rate < self.rate:
                self.rate = new_rate
                self.backoffs += 1
                return ("backoff", new_rate)
            return None
        if self.rate < self.base_rate:
            new_rate = min(self.base_rate, self.rate + self.recovery_step)
            self.rate = new_rate
            self.recoveries += 1
            return ("recover", new_rate)
        return None

    def state_dict(self) -> dict:
        return {"rate": self.rate, "backoffs": self.backoffs,
                "recoveries": self.recoveries}

    def restore_state(self, state: dict) -> None:
        self.rate = state["rate"]
        self.backoffs = state["backoffs"]
        self.recoveries = state["recoveries"]


# ---------------------------------------------------------------------------
# Checkpoint serialization.

def response_to_dict(response: IcmpResponse) -> dict:
    """Serialize one queued response.  ``dup`` chains are not serialized:
    the ResponseQueue unrolls duplicates into their own entries at push
    time, so by the time a response sits in the heap its duplicate (if
    any) is a separate entry."""
    quoted = response.quoted
    return {
        "kind": response.kind.value,
        "responder": response.responder,
        "arrival_time": response.arrival_time,
        "quoted_residual_ttl": response.quoted_residual_ttl,
        "is_duplicate": response.is_duplicate,
        "quoted": {
            "src": quoted.src,
            "dst": quoted.dst,
            "ttl": quoted.ttl,
            "ipid": quoted.ipid,
            "proto": quoted.proto,
            "src_port": quoted.src_port,
            "dst_port": quoted.dst_port,
            "udp_length": quoted.udp_length,
            "tcp_seq": quoted.tcp_seq,
            "payload": quoted.payload.hex(),
        },
    }


def response_from_dict(data: dict) -> IcmpResponse:
    quoted = data["quoted"]
    header = ProbeHeader(
        src=quoted["src"], dst=quoted["dst"], ttl=quoted["ttl"],
        ipid=quoted["ipid"], proto=quoted["proto"],
        src_port=quoted["src_port"], dst_port=quoted["dst_port"],
        udp_length=quoted["udp_length"], tcp_seq=quoted["tcp_seq"],
        payload=bytes.fromhex(quoted["payload"]))
    response = IcmpResponse(
        kind=ResponseKind(data["kind"]), responder=data["responder"],
        quoted=header, arrival_time=data["arrival_time"],
        quoted_residual_ttl=data["quoted_residual_ttl"])
    response.is_duplicate = data["is_duplicate"]
    return response


def _state_checksum(state: dict) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_checkpoint(path: str, engine: str, state: dict,
                     meta: Optional[dict] = None) -> str:
    """Write a versioned, checksummed checkpoint file; returns ``path``.

    The write is atomic: the document lands in ``path + ".tmp"`` first
    and is renamed over ``path`` only once fully flushed, so a crash
    mid-write can truncate at most the tmp file — the last complete
    checkpoint stays loadable and ``--resume`` never sees a torn file.
    """
    document = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "engine": engine,
        "invocation": meta or {},
        "state_sha256": _state_checksum(state),
        "state": state,
    }
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as stream:
            json.dump(document, stream, sort_keys=True)
            stream.write("\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave a half-written tmp behind on the failure path; the
        # previous complete checkpoint at ``path`` is untouched either way.
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise
    return path


def load_checkpoint(path: str) -> dict:
    """Load and validate a checkpoint file.

    Returns the full document (``format``/``version``/``engine``/
    ``invocation``/``state``).  Raises :class:`CheckpointError` with a
    clear message on malformed, truncated, or version-mismatched files.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path}: not a valid checkpoint (truncated or malformed "
            f"JSON: {exc})") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"{path}: not a checkpoint file "
                              f"(top level is {type(document).__name__})")
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: not a {CHECKPOINT_FORMAT} file "
            f"(format={document.get('format')!r})")
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})")
    for key in ("engine", "state", "state_sha256"):
        if key not in document:
            raise CheckpointError(f"{path}: checkpoint is missing {key!r}")
    checksum = _state_checksum(document["state"])
    if checksum != document["state_sha256"]:
        raise CheckpointError(
            f"{path}: state checksum mismatch (file corrupt: expected "
            f"{document['state_sha256'][:12]}…, computed {checksum[:12]}…)")
    return document
