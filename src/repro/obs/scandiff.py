"""Explainable scan diffs: join two runs per prefix, attribute causes.

``flashroute-sim scan-diff A B`` answers the question PR-level telemetry
cannot: two scans of the same topology disagree — *which probe* to
*which prefix* diverged, and *why*.  Inputs are either probe-level event
logs (:mod:`repro.obs.events`) or ``--output`` result files; the two
kinds can be mixed, but cause attribution below the prefix level needs
the probe-level evidence only event logs carry.

Every divergent ``(prefix, ttl)`` is classified **deterministically**:

* ``not_probed`` — that side never sent the probe (its recorded
  ``stop_decision`` events say why probing stopped short);
* ``probe_loss`` / ``blackout`` / ``response_loss`` — the probe was
  sent and the :class:`~repro.simnet.faults.FaultModel` seed confirms
  the corresponding hash draw fired (the injector's decisions are
  stateless, so :meth:`FaultInjector.explain
  <repro.simnet.faults.FaultInjector.explain>` can replay them from the
  event log alone);
* ``rate_limited`` — sent, unanswered, and no fault draw fired: the
  responder's ICMP rate limiter swallowed it (the remaining silent
  mechanism in the simulator);
* ``responder_mismatch`` / ``path_length`` / ``dest_distance`` /
  ``missing_prefix`` — structural disagreements between the two sides;
* ``unattributed`` — a hole on a side without probe-level data (result
  files), or without a fault model to check against.

Convention: the optional fault model describes **side B** (the second
file) — the usual workflow is ``scan-diff clean.events lossy.events
--loss 0.02 --fault-seed N`` with B the faulted run.  Holes on side A
are still detected and classified from A's own stop decisions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.report import render_table
from ..core.output import result_from_dict
from ..simnet.faults import FaultInjector, FaultModel
from .events import BINARY_MAGIC, read_events

#: Cause labels, in report order (severity: structural first).
CAUSES = ("missing_prefix", "path_length", "dest_distance",
          "responder_mismatch", "not_probed", "exhausted_retries",
          "probe_loss", "blackout", "response_loss", "rate_limited",
          "unattributed")


@dataclass
class Divergence:
    """One classified disagreement between the two sides."""

    prefix: int
    cause: str
    #: TTL of the divergent hop; ``None`` for prefix-level causes.
    ttl: Optional[int] = None
    #: Which side lacks/loses the hop ("a"/"b"; "-" for symmetric causes).
    side: str = "-"
    detail: str = ""


@dataclass
class ScanView:
    """What one input file knows about its scan."""

    label: str
    source: str  # "events" | "result"
    routes: Dict[int, Dict[int, int]] = field(default_factory=dict)
    dest_distance: Dict[int, int] = field(default_factory=dict)
    #: ``(prefix, ttl) -> (send vt, full destination address)`` — only
    #: event logs carry this (``has_probe_level``).
    probes: Dict[Tuple[int, int], Tuple[float, int]] = field(
        default_factory=dict)
    #: Every send of each ``(prefix, ttl)`` in order — more than one
    #: entry means the probe was retried (``repro.core.resilience``).
    attempts: Dict[Tuple[int, int], List[Tuple[float, int]]] = field(
        default_factory=dict)
    responded: Set[Tuple[int, int]] = field(default_factory=set)
    stops: Dict[int, List[Tuple[str, int]]] = field(default_factory=dict)
    has_probe_level: bool = False

    def route_length(self, prefix: int) -> Optional[int]:
        distance = self.dest_distance.get(prefix)
        if distance is not None:
            return distance
        hops = self.routes.get(prefix)
        return max(hops) if hops else None

    def prefixes(self) -> Set[int]:
        found = set(self.routes) | set(self.dest_distance)
        if self.has_probe_level:
            found.update(prefix for prefix, _ in self.probes)
        return found


def view_from_events(label: str, events: List[Dict[str, object]]) -> ScanView:
    """Replay an event stream into per-prefix routes, destination
    distances, the probe ledger and the stop-decision record.

    Reconstruction mirrors engine recording: ``response`` events carry
    the distance the engine derived at its own ``record_destination``
    call site (minimum kept), preprobe responses an engine did not fold
    into routes are flagged ``pre`` and skipped here, and injected
    duplicates re-record the same hop the original did.
    """
    view = ScanView(label=label, source="events", has_probe_level=True)
    for event in events:
        kind = event.get("ev")
        if kind == "probe_sent":
            key = (event["prefix"], event["ttl"])
            if key not in view.probes:
                view.probes[key] = (event["vt"], event["dst"])
            view.attempts.setdefault(key, []).append(
                (event["vt"], event["dst"]))
        elif kind == "response":
            prefix = event["prefix"]
            ttl = event["ttl"]
            view.responded.add((prefix, ttl))
            if event.get("pre"):
                continue
            if event["kind"] == "ttl_exceeded":
                view.routes.setdefault(prefix, {})[ttl] = event["responder"]
            dist = event.get("dist")
            if dist is not None:
                known = view.dest_distance.get(prefix)
                if known is None or dist < known:
                    view.dest_distance[prefix] = dist
        elif kind == "stop_decision":
            view.stops.setdefault(event["prefix"], []).append(
                (event["reason"], event["ttl"]))
    return view


def load_view(path: str) -> ScanView:
    """Auto-detect an input file: binary/JSONL event log, or a
    ``--output`` result JSON.  Raises ``ValueError`` when it is
    neither."""
    with open(path, "rb") as stream:
        head = stream.read(len(BINARY_MAGIC))
    if head == BINARY_MAGIC:
        return view_from_events(path, read_events(path))
    with open(path, encoding="utf-8") as stream:
        first = stream.read(1)
    if first == "{":
        # Could be a result file (one JSON document) or a JSONL event
        # log (header object on line one).  A result file's first line
        # is just "{"; an event header is a complete object.
        with open(path, encoding="utf-8") as stream:
            first_line = stream.readline().strip()
        try:
            header = json.loads(first_line)
        except json.JSONDecodeError:
            header = None
        if isinstance(header, dict) and header.get("ev") == "events":
            return view_from_events(path, read_events(path))
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
        if isinstance(payload, dict) and "format_version" in payload:
            result = result_from_dict(payload)
            view = ScanView(label=path, source="result")
            view.routes = result.routes
            view.dest_distance = dict(result.dest_distance)
            return view
    raise ValueError(f"{path}: not an event log or scan result file")


def _classify_hole(view: ScanView, prefix: int, ttl: int,
                   expected_responder: Optional[int],
                   injector: Optional[FaultInjector]
                   ) -> Tuple[str, str]:
    """Why ``view`` has no hop at ``(prefix, ttl)`` while the other side
    does.  Checks mirror the injector's own order (probe_loss →
    blackout → response_loss), then fall through to rate limiting."""
    if not view.has_probe_level:
        return "unattributed", "no probe-level data (result file)"
    probe = view.probes.get((prefix, ttl))
    if probe is None:
        stops = view.stops.get(prefix, ())
        detail = ", ".join(f"{reason}@{at}" for reason, at in stops) \
            or "no stop decision recorded"
        return "not_probed", detail
    vt, dst = probe
    if (prefix, ttl) in view.responded:
        return "unattributed", "responded, hop not recorded"
    attempts = view.attempts.get((prefix, ttl), ())
    if len(attempts) > 1:
        # The probe was retried and every attempt stayed silent: cite
        # the fault draw behind each one (the injector's decisions are
        # stateless, so they replay from the event log alone).
        if injector is not None:
            cites = []
            for index, (vt_i, dst_i) in enumerate(attempts):
                draw = injector.explain(dst_i, ttl, vt_i,
                                        responder=expected_responder)
                cites.append(f"attempt {index}: "
                             f"{draw or 'rate_limited'}@vt={vt_i:.6f}")
            return "exhausted_retries", "; ".join(cites)
        return ("exhausted_retries",
                f"{len(attempts)} attempts, all unanswered "
                f"(no fault model given)")
    if injector is not None:
        cause = injector.explain(dst, ttl, vt,
                                 responder=expected_responder)
        if cause is not None:
            return cause, f"fault draw at vt={vt:.6f}"
        return "rate_limited", "sent, unanswered, no fault draw fired"
    return "unattributed", "sent, unanswered (no fault model given)"


def diff_views(view_a: ScanView, view_b: ScanView,
               fault_model: Optional[FaultModel] = None
               ) -> List[Divergence]:
    """All classified divergences, sorted by (prefix, ttl).

    ``fault_model`` (if given) describes side B's run; its seed lets
    silent-probe holes on B be attributed to the exact fault draw.
    """
    injector = (FaultInjector(fault_model)
                if fault_model is not None and fault_model.enabled else None)
    divergences: List[Divergence] = []
    for prefix in sorted(view_a.prefixes() | view_b.prefixes()):
        in_a = prefix in view_a.prefixes()
        in_b = prefix in view_b.prefixes()
        if not (in_a and in_b):
            divergences.append(Divergence(
                prefix=prefix, cause="missing_prefix",
                side="a" if not in_a else "b",
                detail="prefix absent from this side"))
            continue
        hops_a = view_a.routes.get(prefix, {})
        hops_b = view_b.routes.get(prefix, {})
        length_a = view_a.route_length(prefix)
        length_b = view_b.route_length(prefix)
        if length_a != length_b:
            divergences.append(Divergence(
                prefix=prefix, cause="path_length",
                detail=f"a={length_a} b={length_b}"))
        dist_a = view_a.dest_distance.get(prefix)
        dist_b = view_b.dest_distance.get(prefix)
        if dist_a != dist_b:
            divergences.append(Divergence(
                prefix=prefix, cause="dest_distance",
                detail=f"a={dist_a} b={dist_b}"))
        for ttl in sorted(set(hops_a) | set(hops_b)):
            responder_a = hops_a.get(ttl)
            responder_b = hops_b.get(ttl)
            if responder_a == responder_b:
                continue
            if responder_a is not None and responder_b is not None:
                divergences.append(Divergence(
                    prefix=prefix, ttl=ttl, cause="responder_mismatch",
                    detail=f"a={responder_a} b={responder_b}"))
            elif responder_b is None:
                cause, detail = _classify_hole(
                    view_b, prefix, ttl, responder_a, injector)
                divergences.append(Divergence(
                    prefix=prefix, ttl=ttl, side="b", cause=cause,
                    detail=detail))
            else:
                # Hole on side A: its own stop record still explains a
                # not-probed TTL; faults are only modelled for side B.
                cause, detail = _classify_hole(
                    view_a, prefix, ttl, responder_b, None)
                divergences.append(Divergence(
                    prefix=prefix, ttl=ttl, side="a", cause=cause,
                    detail=detail))
    return divergences


def scan_diff(path_a: str, path_b: str,
              fault_model: Optional[FaultModel] = None
              ) -> List[Divergence]:
    """Load two files (event logs or result JSON) and diff them."""
    return diff_views(load_view(path_a), load_view(path_b), fault_model)


def divergence_rows(divergences: List[Divergence]) -> List[List[str]]:
    return [[str(d.prefix), "-" if d.ttl is None else str(d.ttl),
             d.side, d.cause, d.detail] for d in divergences]


def cause_counts(divergences: List[Divergence]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for divergence in divergences:
        counts[divergence.cause] = counts.get(divergence.cause, 0) + 1
    return {cause: counts[cause] for cause in CAUSES if cause in counts}


def render_scan_diff(view_a: ScanView, view_b: ScanView,
                     divergences: List[Divergence]) -> str:
    """The human report: cause summary, then every divergence."""
    counts = cause_counts(divergences)
    lines = [f"[scan-diff] a={view_a.label} ({view_a.source}) "
             f"b={view_b.label} ({view_b.source})",
             f"[scan-diff] prefixes: a={len(view_a.prefixes())} "
             f"b={len(view_b.prefixes())} "
             f"divergent={len({d.prefix for d in divergences})}"]
    if not divergences:
        lines.append("[scan-diff] no divergences")
        return "\n".join(lines)
    lines.append("[scan-diff] causes: " + ", ".join(
        f"{cause}={count}" for cause, count in counts.items()))
    lines.append(render_table(
        ["Prefix", "TTL", "Side", "Cause", "Detail"],
        divergence_rows(divergences),
        title="[scan-diff] divergences"))
    return "\n".join(lines)


def divergences_to_json(divergences: List[Divergence]) -> List[Dict[str, object]]:
    return [{"prefix": d.prefix, "ttl": d.ttl, "side": d.side,
             "cause": d.cause, "detail": d.detail} for d in divergences]
