"""The probe-level flight recorder: a compact per-probe event stream.

Scan-level telemetry (metrics, spans) says *that* the numbers moved;
when two runs disagree — cached vs uncached, ``--loss 0.02`` vs clean,
FlashRoute vs Yarrp — the question is *which probe* to *which prefix*
diverged and *why* a hop became a hole.  Viger et al. (*Detection,
Understanding, and Prevention of Traceroute Measurement Artifacts*) make
the same point for loops/cycles/diamonds: diagnosis needs per-probe
evidence.  Yarrp leaves response logging to an external recorder (paper
§4.2.3, mirrored here by ``repro.net.pcap``); this module is the
structured, tool-readable equivalent.

Engines emit five event kinds through the :class:`EventRecorder` carried
on the :class:`~repro.obs.telemetry.Telemetry` bundle, each stamped with
**virtual** time, destination prefix, TTL, flow and responder:

* ``probe_sent`` — one per emitted probe (dst, TTL, flow id, phase);
* ``response`` — one per processed response (responder, kind, RTT, the
  destination distance when the engine derived one);
* ``stop_decision`` — why probing a prefix stopped in one direction
  (``ttl1`` / ``stop_set`` backward; ``gap_limit`` / ``max_ttl`` /
  ``dest_reached`` forward);
* ``preprobe_predict`` — the preprobe ledger per prefix (measured
  distance vs proximity-span prediction, §3.3);
* ``dcb_release`` — the prefix left the scanning ring.

Determinism contract: events carry **no wall-clock data** — a header
line, then records whose every field derives from the scan itself — so
two same-seed runs write *byte-identical* event files, and cached vs
uncached runs produce identical streams.  ``events=None`` (the default
on every engine) keeps all hot paths on their pre-recorder code.

Two on-disk formats parse back into identical event dictionaries:

* **JSONL** (default): one sorted-key JSON object per line;
* **length-prefixed binary** (``.bin`` paths): an 8-byte magic, then one
  length-prefixed fixed-layout record per event — ~4x smaller, for
  full-scan recording at 4096+ prefixes.

Cost controls for large scans, both deterministic:

* ``sample=p`` keeps a seedless-hash-selected fraction ``p`` of
  *prefixes* (all events of a kept prefix are recorded, so per-prefix
  joins stay complete; two runs sample the same prefixes);
* ``ring=n`` bounds memory/disk to the last ``n`` events (written at
  close; ``events_dropped`` counts the evicted head).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from typing import Dict, List, Optional, TextIO, Tuple

from ..simnet.faults import mix64

#: Schema tag: first JSONL line / implied by the binary magic version.
EVENTS_SCHEMA = "repro.obs.events/1"

#: Magic prefix of the binary format (8 bytes, version in the last byte).
BINARY_MAGIC = b"REVTLOG1"

#: Fixed binary record layout (little-endian): kind u8, vt f64,
#: prefix u32, ttl u8, code u8, addr u32, value f64, aux u8, flags u8.
_RECORD = struct.Struct("<BdIBBIdBB")
_RECORD_LEN = _RECORD.size

_KIND_PROBE_SENT = 1
_KIND_RESPONSE = 2
_KIND_STOP_DECISION = 3
_KIND_PREPROBE_PREDICT = 4
_KIND_DCB_RELEASE = 5
_KIND_RETRY = 6
_KIND_RATE_CHANGE = 7
_KIND_CHECKPOINT = 8

_KIND_NAMES = {
    _KIND_PROBE_SENT: "probe_sent",
    _KIND_RESPONSE: "response",
    _KIND_STOP_DECISION: "stop_decision",
    _KIND_PREPROBE_PREDICT: "preprobe_predict",
    _KIND_DCB_RELEASE: "dcb_release",
    _KIND_RETRY: "retry",
    _KIND_RATE_CHANGE: "rate_change",
    _KIND_CHECKPOINT: "checkpoint",
}

#: Probing phases (probe_sent ``phase``).  "retry" is appended after the
#: original five so the phase codes of pre-resilience logs stay stable.
PHASES = ("preprobe", "main", "bulk", "fill", "trace", "retry")
#: Rate-change reasons (rate_change ``reason``): multiplicative backoff
#: vs additive recovery, see repro.core.resilience.
RATE_REASONS = ("backoff", "recover")
#: Stop reasons (stop_decision ``reason``).  The first two are backward
#: stops, the rest forward stops — matching the ``scan.*_stops.*``
#: metric names.
STOP_REASONS = ("ttl1", "stop_set", "gap_limit", "max_ttl", "dest_reached")
#: Response kinds (mirrors :class:`repro.net.icmp.ResponseKind` values).
RESPONSE_KINDS = ("ttl_exceeded", "port_unreachable", "host_unreachable",
                  "tcp_rst", "echo_reply")
#: Preprobe ledger sources (preprobe_predict ``source``).
PREDICT_SOURCES = ("measured", "predicted")

_PHASE_CODE = {name: code for code, name in enumerate(PHASES)}
_RATE_REASON_CODE = {name: code for code, name in enumerate(RATE_REASONS)}
_REASON_CODE = {name: code for code, name in enumerate(STOP_REASONS)}
_RESPONSE_CODE = {name: code for code, name in enumerate(RESPONSE_KINDS)}
_SOURCE_CODE = {name: code for code, name in enumerate(PREDICT_SOURCES)}

#: ``aux`` sentinel for "no distance".
_NO_AUX = 255
#: ``value`` sentinel for "no RTT" (RTTs are non-negative).
_NO_VALUE = -1.0

_FLAG_PRE = 1
_FLAG_DUP = 2

_SAMPLE_SALT = 0x5EEDFACE0B5E47ED


def prefix_sampled(prefix: int, sample: float) -> bool:
    """Deterministic, seedless per-prefix sampling decision.

    Pure hash of the prefix (no RNG stream), so every run — clean or
    faulted, cached or uncached — keeps exactly the same prefixes and
    ``scan-diff`` joins of two sampled logs stay complete per kept
    prefix.
    """
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    draw = mix64((prefix * 0x9E3779B97F4A7C15) ^ _SAMPLE_SALT)
    return draw < sample * 18446744073709551616.0


class EventRecorder:
    """Writes probe-level events to a JSONL or binary sink.

    Construct with either an open text/binary stream or a path (owned
    and closed by :meth:`close`).  ``binary=None`` infers the format
    from the path (``.bin`` → binary, else JSONL); stream construction
    defaults to JSONL unless ``binary=True`` and the stream accepts
    bytes.

    ``sample`` keeps a deterministic fraction of prefixes (see
    :func:`prefix_sampled`); ``ring`` holds only the last ``ring``
    events in memory and writes them at :meth:`close` — full-scan
    recording at 4096 prefixes stays cheap with either knob.
    """

    enabled = True

    __slots__ = ("sample", "ring_size", "events_recorded",
                 "events_sampled_out", "events_dropped", "_binary",
                 "_stream", "_owns_stream", "_ring", "_threshold",
                 "_closed")

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[TextIO] = None,
                 binary: Optional[bool] = None,
                 sample: float = 1.0,
                 ring: Optional[int] = None) -> None:
        if (stream is None) == (path is None):
            raise ValueError("pass exactly one of stream= or path=")
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample!r}")
        if ring is not None and ring < 1:
            raise ValueError(f"ring must be positive, got {ring!r}")
        if binary is None:
            binary = path is not None and path.endswith(".bin")
        self._binary = binary
        self._owns_stream = path is not None
        if path is not None:
            self._stream = open(path, "wb" if binary else "w",
                                **({} if binary else {"encoding": "utf-8"}))
        else:
            self._stream = stream
        self.sample = sample
        self.ring_size = ring
        self._ring: Optional[deque] = (deque(maxlen=ring)
                                       if ring is not None else None)
        #: Events accepted (post-sampling); ring eviction does not
        #: decrement this — ``events_dropped`` counts evictions.
        self.events_recorded = 0
        self.events_sampled_out = 0
        self.events_dropped = 0
        self._closed = False
        if self._ring is None:
            self._write_header()

    @property
    def binary(self) -> bool:
        """Whether records use the fixed binary layout, whose prefix and
        address fields are 32 bits wide."""
        return self._binary

    # ------------------------------------------------------------------ #
    # Emission (engine hot paths call these; keep them lean)
    # ------------------------------------------------------------------ #

    def probe_sent(self, vt: float, prefix: int, ttl: int, dst: int,
                   flow: int, phase: str) -> None:
        if prefix_sampled(prefix, self.sample):
            self._emit((_KIND_PROBE_SENT, vt, prefix, ttl,
                        _PHASE_CODE[phase], dst, float(flow), _NO_AUX, 0))
        else:
            self.events_sampled_out += 1

    def response(self, vt: float, prefix: int, ttl: int, responder: int,
                 kind: str, rtt: Optional[float] = None,
                 dist: Optional[int] = None, pre: bool = False,
                 dup: bool = False) -> None:
        if prefix_sampled(prefix, self.sample):
            flags = (_FLAG_PRE if pre else 0) | (_FLAG_DUP if dup else 0)
            self._emit((_KIND_RESPONSE, vt, prefix, ttl,
                        _RESPONSE_CODE[kind], responder,
                        _NO_VALUE if rtt is None else rtt,
                        _NO_AUX if dist is None else dist, flags))
        else:
            self.events_sampled_out += 1

    def stop_decision(self, vt: float, prefix: int, reason: str,
                      ttl: int) -> None:
        if prefix_sampled(prefix, self.sample):
            self._emit((_KIND_STOP_DECISION, vt, prefix, ttl,
                        _REASON_CODE[reason], 0, _NO_VALUE, _NO_AUX, 0))
        else:
            self.events_sampled_out += 1

    def preprobe_predict(self, vt: float, prefix: int, distance: int,
                         source: str) -> None:
        if prefix_sampled(prefix, self.sample):
            self._emit((_KIND_PREPROBE_PREDICT, vt, prefix, 0,
                        _SOURCE_CODE[source], 0, _NO_VALUE, distance, 0))
        else:
            self.events_sampled_out += 1

    def dcb_release(self, vt: float, prefix: int) -> None:
        if prefix_sampled(prefix, self.sample):
            self._emit((_KIND_DCB_RELEASE, vt, prefix, 0, 0, 0,
                        _NO_VALUE, _NO_AUX, 0))
        else:
            self.events_sampled_out += 1

    def retry(self, vt: float, prefix: int, ttl: int, attempt: int,
              dst: int) -> None:
        """A probe was retransmitted (attempt >= 1); emitted alongside
        the retried probe's ``probe_sent`` record."""
        if prefix_sampled(prefix, self.sample):
            self._emit((_KIND_RETRY, vt, prefix, ttl, attempt, dst,
                        _NO_VALUE, _NO_AUX, 0))
        else:
            self.events_sampled_out += 1

    def rate_change(self, vt: float, rate: float, reason: str) -> None:
        """The adaptive controller changed the probing rate.  Scan-wide
        (prefix 0) and never sampled out."""
        self._emit((_KIND_RATE_CHANGE, vt, 0, 0,
                    _RATE_REASON_CODE[reason], 0, float(rate), _NO_AUX, 0))

    def checkpoint(self, vt: float, rounds: int) -> None:
        """A checkpoint file was written after round ``rounds``.
        Scan-wide (prefix 0) and never sampled out."""
        self._emit((_KIND_CHECKPOINT, vt, 0, 0, 0, 0, float(rounds),
                    _NO_AUX, 0))

    # ------------------------------------------------------------------ #

    def _emit(self, record: Tuple) -> None:
        self.events_recorded += 1
        ring = self._ring
        if ring is not None:
            if ring.maxlen is not None and len(ring) == ring.maxlen:
                self.events_dropped += 1
            ring.append(record)
        else:
            self._write_record(record)

    def _write_header(self) -> None:
        if self._binary:
            self._stream.write(BINARY_MAGIC)
        else:
            self._stream.write(json.dumps(
                {"ev": "events", "schema": EVENTS_SCHEMA},
                sort_keys=True) + "\n")

    def _write_record(self, record: Tuple) -> None:
        if self._binary:
            self._stream.write(_LEN_PREFIX + _RECORD.pack(*record))
        else:
            self._stream.write(_record_to_line(record))

    def close(self) -> None:
        """Flush buffered (ring) events and release the sink.

        Idempotent; path-constructed recorders close their file.
        """
        if self._closed:
            return
        self._closed = True
        if self._ring is not None:
            self._write_header()
            for record in self._ring:
                self._write_record(record)
            self._ring = None
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()


_LEN_PREFIX = bytes((_RECORD_LEN,))


def _record_to_line(record: Tuple) -> str:
    """One JSONL line for an event tuple — byte-identical to
    ``json.dumps(_record_to_dict(record), sort_keys=True) + "\\n"`` but
    ~4x faster (this runs once per probe on recording scans; field names
    are fixed and values are ints, floats whose ``repr`` matches JSON
    encoding, and known-safe name-table strings)."""
    kind, vt, prefix, ttl, code, addr, value, aux, flags = record
    if kind == _KIND_PROBE_SENT:
        return (f'{{"dst": {addr}, "ev": "probe_sent", '
                f'"flow": {int(value)}, "phase": "{PHASES[code]}", '
                f'"prefix": {prefix}, "ttl": {ttl}, "vt": {vt!r}}}\n')
    if kind == _KIND_RESPONSE:
        parts = []
        if aux != _NO_AUX:
            parts.append(f'"dist": {aux}')
        if flags & _FLAG_DUP:
            parts.append('"dup": 1')
        parts.append(f'"ev": "response", "kind": "{RESPONSE_KINDS[code]}"')
        if flags & _FLAG_PRE:
            parts.append('"pre": 1')
        parts.append(f'"prefix": {prefix}, "responder": {addr}')
        if value != _NO_VALUE:
            parts.append(f'"rtt": {value!r}')
        parts.append(f'"ttl": {ttl}, "vt": {vt!r}')
        return "{" + ", ".join(parts) + "}\n"
    if kind == _KIND_STOP_DECISION:
        return (f'{{"ev": "stop_decision", "prefix": {prefix}, '
                f'"reason": "{STOP_REASONS[code]}", "ttl": {ttl}, '
                f'"vt": {vt!r}}}\n')
    if kind == _KIND_PREPROBE_PREDICT:
        return (f'{{"distance": {aux}, "ev": "preprobe_predict", '
                f'"prefix": {prefix}, "source": "{PREDICT_SOURCES[code]}", '
                f'"vt": {vt!r}}}\n')
    if kind == _KIND_RETRY:
        return (f'{{"attempt": {code}, "dst": {addr}, "ev": "retry", '
                f'"prefix": {prefix}, "ttl": {ttl}, "vt": {vt!r}}}\n')
    if kind == _KIND_RATE_CHANGE:
        return (f'{{"ev": "rate_change", "prefix": {prefix}, '
                f'"rate": {value!r}, "reason": "{RATE_REASONS[code]}", '
                f'"vt": {vt!r}}}\n')
    if kind == _KIND_CHECKPOINT:
        return (f'{{"ev": "checkpoint", "prefix": {prefix}, '
                f'"round": {int(value)}, "vt": {vt!r}}}\n')
    return f'{{"ev": "dcb_release", "prefix": {prefix}, "vt": {vt!r}}}\n'


def _record_to_dict(record: Tuple) -> Dict[str, object]:
    """The named-field view of one event tuple (shared by the JSONL
    writer and both readers, so every format parses identically)."""
    kind, vt, prefix, ttl, code, addr, value, aux, flags = record
    event: Dict[str, object] = {"ev": _KIND_NAMES[kind], "vt": vt,
                                "prefix": prefix}
    if kind == _KIND_PROBE_SENT:
        event["ttl"] = ttl
        event["dst"] = addr
        event["flow"] = int(value)
        event["phase"] = PHASES[code]
    elif kind == _KIND_RESPONSE:
        event["ttl"] = ttl
        event["responder"] = addr
        event["kind"] = RESPONSE_KINDS[code]
        if value != _NO_VALUE:
            event["rtt"] = value
        if aux != _NO_AUX:
            event["dist"] = aux
        if flags & _FLAG_PRE:
            event["pre"] = 1
        if flags & _FLAG_DUP:
            event["dup"] = 1
    elif kind == _KIND_STOP_DECISION:
        event["ttl"] = ttl
        event["reason"] = STOP_REASONS[code]
    elif kind == _KIND_PREPROBE_PREDICT:
        event["source"] = PREDICT_SOURCES[code]
        event["distance"] = aux
    elif kind == _KIND_RETRY:
        event["ttl"] = ttl
        event["dst"] = addr
        event["attempt"] = code
    elif kind == _KIND_RATE_CHANGE:
        event["rate"] = value
        event["reason"] = RATE_REASONS[code]
    elif kind == _KIND_CHECKPOINT:
        event["round"] = int(value)
    return event


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse an event file (either format) into its event dictionaries.

    The first element is the header (``{"ev": "events", "schema": ...}``,
    synthesized for binary files); records follow in emission order.
    Raises ``ValueError`` on malformed input.
    """
    with open(path, "rb") as probe_stream:
        magic = probe_stream.read(len(BINARY_MAGIC))
        if magic == BINARY_MAGIC:
            return _read_binary(probe_stream)
    return _read_jsonl(path)


def _read_binary(stream) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = [
        {"ev": "events", "schema": EVENTS_SCHEMA}]
    while True:
        length = stream.read(1)
        if not length:
            break
        if length[0] != _RECORD_LEN:
            raise ValueError(
                f"bad record length {length[0]} (expected {_RECORD_LEN})")
        payload = stream.read(_RECORD_LEN)
        if len(payload) != _RECORD_LEN:
            raise ValueError("truncated event record")
        record = _RECORD.unpack(payload)
        if record[0] not in _KIND_NAMES:
            raise ValueError(f"unknown event kind code {record[0]}")
        events.append(_record_to_dict(record))
    return events


def _read_jsonl(path: str) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    validate_events(events)
    return events


def validate_events(events: List[Dict[str, object]]) -> None:
    """Structure-check an event list; raises ``ValueError`` on the first
    violation (missing/bad header, unknown kind, missing fields)."""
    if not events or events[0].get("ev") != "events" \
            or events[0].get("schema") != EVENTS_SCHEMA:
        raise ValueError("missing or bad event-log header")
    known = set(_KIND_NAMES.values())
    for event in events[1:]:
        kind = event.get("ev")
        if kind not in known:
            raise ValueError(f"unknown event kind: {event!r}")
        if "vt" not in event or "prefix" not in event:
            raise ValueError(f"event missing vt/prefix: {event!r}")
        if kind == "probe_sent" and event.get("phase") not in PHASES:
            raise ValueError(f"bad probe phase: {event!r}")
        if kind == "stop_decision" and event.get("reason") not in STOP_REASONS:
            raise ValueError(f"bad stop reason: {event!r}")
        if kind == "response" and event.get("kind") not in RESPONSE_KINDS:
            raise ValueError(f"bad response kind: {event!r}")
        if kind == "retry" and not isinstance(event.get("attempt"), int):
            raise ValueError(f"retry missing attempt: {event!r}")
        if kind == "rate_change" \
                and event.get("reason") not in RATE_REASONS:
            raise ValueError(f"bad rate-change reason: {event!r}")
        if kind == "checkpoint" and not isinstance(event.get("round"), int):
            raise ValueError(f"checkpoint missing round: {event!r}")


# --------------------------------------------------------------------- #
# Sharded merge (see repro.core.sharding)
# --------------------------------------------------------------------- #

def event_log_header(binary: bool):
    """The file header a fresh recorder writes: the binary magic, or the
    JSONL schema line (including its newline)."""
    if binary:
        return BINARY_MAGIC
    return json.dumps({"ev": "events", "schema": EVENTS_SCHEMA},
                      sort_keys=True) + "\n"


def strip_event_header(payload, binary: bool):
    """``payload`` (one recorder's complete output) minus its header —
    the per-shard body the sharded merge concatenates.  Raises
    ``ValueError`` when the header is absent (a truncated shard payload
    must not be silently merged)."""
    header = event_log_header(binary)
    if not payload.startswith(header):
        raise ValueError("event payload is missing its header")
    return payload[len(header):]


def merge_event_logs(bodies, binary: bool, ring: Optional[int] = None):
    """One complete event log from per-shard header-stripped bodies.

    Bodies concatenate in the given order (the sharded scan passes them
    in slice-index order, reproducing the single-worker emission order);
    ``ring`` keeps only the last ``ring`` records, applied *after* the
    merge so sharded and single-worker ``--events-ring`` files agree.
    """
    if ring is not None and ring < 1:
        raise ValueError(f"ring must be positive, got {ring!r}")
    if binary:
        body = b"".join(bodies)
        if ring is not None:
            chunk = 1 + _RECORD_LEN
            if len(body) % chunk:
                raise ValueError("merged binary body is not record-aligned")
            records = len(body) // chunk
            if records > ring:
                body = body[(records - ring) * chunk:]
        return BINARY_MAGIC + body
    body = "".join(bodies)
    if ring is not None:
        lines = body.splitlines(keepends=True)
        if len(lines) > ring:
            body = "".join(lines[len(lines) - ring:])
    return event_log_header(False) + body
