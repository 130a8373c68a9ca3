"""Scan result serialization: JSON, CSV, and traceroute-style text.

Real FlashRoute writes its measurements to an output file (or defers to an
external sniffer).  This module gives :class:`~repro.core.results.ScanResult`
durable formats:

* **JSON** — full fidelity round-trip (used by ``flashroute-sim --output``);
* **CSV** — one row per (prefix, ttl, interface) hop, for spreadsheets and
  ad-hoc analysis;
* **text** — human traceroute-style dumps.

Each writer groups the rows of the result's hop table per prefix in one
pass (a later row for a (prefix, TTL) replaces an earlier one).  A scan's
hops name far fewer interfaces than they number (a 16,384-prefix
``yarrp-32`` scan reports ~236 K hops at ~24 K interfaces), and a TTL key
repeats in every route.  So each writer formats every distinct address,
prefix and TTL once per call and hands the same ``str`` to every place it
appears.  The memo is a local of the call (:class:`_Text`) and dies with
it: nothing is cached between calls, so two calls return equal but
independent documents.  :func:`write_json` encodes that document itself,
one ``write`` per route, and writes exactly the bytes ``json.dump`` would.
"""

from __future__ import annotations

import io
import json
from collections import Counter, defaultdict
from json.encoder import encode_basestring_ascii as quoted
from typing import Any, Callable, Dict, Optional, TextIO

from ..net.addr import AddressError, int_to_ip, ip_to_int
from .results import ScanResult, format_scan_time

_FORMAT_VERSION = 1


class _Text(dict):
    """One call's memo: ``text[key]`` formats ``key`` on first use and
    returns the same object after (parsing text works alike)."""

    __slots__ = ("_format",)

    def __init__(self, format: Callable[[Any], Any]) -> None:
        super().__init__()
        self._format = format

    def __missing__(self, key: Any) -> Any:
        text = self[key] = self._format(key)
        return text


def result_to_dict(result: ScanResult) -> Dict[str, object]:
    """Serialize a scan result to a JSON-compatible dictionary."""
    # JSON objects key by string; prefixes/ttls are ints.
    key = _Text(str)
    ip = _Text(int_to_ip)
    table = result.hops
    routes: Dict[int, Dict[str, str]] = defaultdict(dict)
    try:
        for prefix, ttl, responder in zip(table.keys, table.ttls,
                                          table.responders):
            routes[prefix][key[ttl]] = ip[responder]
    except AddressError:
        # Unwritable only if no later row replaced it: format survivors.
        routes = {prefix: {key[ttl]: ip[responder]
                           for ttl, responder in hops.items()}
                  for prefix, hops in table.routes().items()}
    return {
        "format_version": _FORMAT_VERSION,
        "tool": result.tool,
        "num_targets": result.num_targets,
        "granularity": result.granularity,
        "probes_sent": result.probes_sent,
        "preprobe_probes": result.preprobe_probes,
        "responses": result.responses,
        "duplicate_responses": result.duplicate_responses,
        "mismatched_quotes": result.mismatched_quotes,
        "skipped_probes": result.skipped_probes,
        "duration": result.duration,
        "rounds": result.rounds,
        "aborted": result.aborted,
        "rtt_sum_ms": result.rtt_sum_ms,
        "rtt_count": result.rtt_count,
        "targets": {key[prefix]: int_to_ip(addr)
                    for prefix, addr in result.targets.items()},
        "dest_distance": {key[prefix]: distance
                          for prefix, distance in result.dest_distance.items()},
        "routes": {key[prefix]: hops for prefix, hops in routes.items()},
        "ttl_probe_histogram": {key[ttl]: count for ttl, count
                                in result.ttl_probe_histogram.items()},
        "response_kinds": dict(result.response_kinds),
    }


def result_from_dict(payload: Dict[str, object]) -> ScanResult:
    """Rebuild a scan result from :func:`result_to_dict` output."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported scan format version: {version!r}")
    result = ScanResult(tool=str(payload["tool"]),
                        num_targets=int(payload["num_targets"]),
                        granularity=int(payload.get("granularity", 24)))
    result.probes_sent = int(payload["probes_sent"])
    result.preprobe_probes = int(payload["preprobe_probes"])
    result.responses = int(payload["responses"])
    result.duplicate_responses = int(payload.get("duplicate_responses", 0))
    result.mismatched_quotes = int(payload["mismatched_quotes"])
    result.skipped_probes = int(payload.get("skipped_probes", 0))
    result.duration = float(payload["duration"])
    result.rounds = int(payload["rounds"])
    result.aborted = bool(payload["aborted"])
    result.rtt_sum_ms = float(payload["rtt_sum_ms"])
    result.rtt_count = int(payload["rtt_count"])
    result.targets = {int(prefix): ip_to_int(addr)
                      for prefix, addr in payload["targets"].items()}
    result.dest_distance = {int(prefix): int(distance) for prefix, distance
                            in payload["dest_distance"].items()}
    address = _Text(ip_to_int)
    for prefix, hops in payload["routes"].items():
        for ttl, responder in hops.items():
            result.add_hop(int(prefix), int(ttl), address[responder])
    result.ttl_probe_histogram = Counter(
        {int(ttl): int(count) for ttl, count
         in payload["ttl_probe_histogram"].items()})
    result.response_kinds = Counter(payload["response_kinds"])
    return result


def write_json(result: ScanResult, stream: TextIO, indent: int = 2) -> None:
    """Write what ``json.dump(result_to_dict(result), stream,
    indent=indent, sort_keys=True)`` and a newline write, byte for byte.

    ``json.dump`` encodes an indented document in Python, one ``write``
    per key, separator and value: five per hop.  Here a dict of strings
    (a route, the targets) is one ``write``, joined from its keys and
    values quoted by the C encoder ``json.dump`` uses for them.  Every
    key of the document is a string."""
    scalar = json.JSONEncoder().encode
    write = stream.write

    def dump(value: object, margin: str) -> None:
        if value.__class__ is not dict or not value:
            write(scalar(value))
            return
        inner = margin + " " * indent
        keys = sorted(value)
        if all(item.__class__ is str for item in value.values()):
            write("{" + inner + ("," + inner).join(
                [quoted(key) + ": " + quoted(value[key]) for key in keys])
                + margin + "}")
            return
        separator = "{" + inner
        for key in keys:
            write(separator + quoted(key) + ": ")
            dump(value[key], inner)
            separator = "," + inner
        write(margin + "}")

    dump(result_to_dict(result), "\n")
    write("\n")


def read_json(stream: TextIO) -> ScanResult:
    return result_from_dict(json.load(stream))


def save_json(result: ScanResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        write_json(result, stream)


def load_json(path: str) -> ScanResult:
    with open(path, encoding="utf-8") as stream:
        return read_json(stream)


# --------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------- #

CSV_FIELDS = ("prefix", "target", "ttl", "interface", "is_destination")


def write_hops_csv(result: ScanResult, stream: TextIO) -> int:
    """One row per discovered hop (plus destination rows); returns the
    number of rows written.

    The text is what ``csv.writer`` writes in its ``excel`` dialect:
    fields joined by ``,``, each row ended by ``\r\n``.  No field needs
    its quoting (each is an address, a prefix, an int or empty), so each
    route's rows are formatted from the text of the grouping pass and
    written at once."""
    ip = _Text(int_to_ip)
    table = result.hops
    routes: Dict[int, Dict[int, str]] = defaultdict(dict)
    try:
        for prefix, ttl, responder in zip(table.keys, table.ttls,
                                          table.responders):
            routes[prefix][ttl] = ip[responder]
    except AddressError:
        # Unwritable only if no later row replaced it: format survivors.
        routes = {prefix: {ttl: ip[responder]
                           for ttl, responder in hops.items()}
                  for prefix, hops in table.routes().items()}
    write = stream.write
    write(",".join(CSV_FIELDS) + "\r\n")
    rows = 0
    shift = 32 - result.granularity
    for prefix in sorted(routes.keys() | result.dest_distance.keys()):
        target = result.targets.get(prefix)
        target_text = int_to_ip(target) if target is not None else ""
        head = (f"{int_to_ip(prefix << shift)}/{result.granularity},"
                f"{target_text},")
        hops = routes.get(prefix, {})
        lines = [f"{head}{ttl},{hops[ttl]},0\r\n" for ttl in sorted(hops)]
        distance = result.dest_distance.get(prefix)
        if distance is not None and target is not None:
            lines.append(f"{head}{distance},{target_text},1\r\n")
        write("".join(lines))
        rows += len(lines)
    return rows


def hops_csv_text(result: ScanResult) -> str:
    buffer = io.StringIO()
    write_hops_csv(result, buffer)
    return buffer.getvalue()


# --------------------------------------------------------------------- #
# Traceroute-style text
# --------------------------------------------------------------------- #

def format_route(result: ScanResult, prefix: int,
                 show_missing: bool = True) -> str:
    """One route as classic traceroute output (``*`` for silent hops)."""
    target = result.targets.get(prefix)
    hops = result.hops.route(prefix)
    distance = result.dest_distance.get(prefix)
    end = distance if distance is not None else (max(hops) if hops else 0)
    shift = 32 - result.granularity
    target_text = int_to_ip(target) if target is not None else "?"
    header = (f"traceroute to {target_text} "
              f"({int_to_ip(prefix << shift)}/{result.granularity})")
    lines = [header]
    ip = _Text(int_to_ip)
    for ttl in range(1, end + 1):
        responder = hops.get(ttl)
        if ttl == distance and target is not None:
            lines.append(f"  {ttl:2d}  {target_text}  [destination]")
        elif responder is not None:
            lines.append(f"  {ttl:2d}  {ip[responder]}")
        elif show_missing:
            lines.append(f"  {ttl:2d}  *")
    return "\n".join(lines)


def format_scan_report(result: ScanResult,
                       max_routes: Optional[int] = 5) -> str:
    """Summary plus a few sample routes, for terminals and logs."""
    lines = [result.summary(),
             f"  rounds={result.rounds} responses={result.responses:,} "
             f"mismatched={result.mismatched_quotes:,} "
             f"duration={format_scan_time(result.duration)}"]
    shown = 0
    for prefix in sorted(result.dest_distance):
        if max_routes is not None and shown >= max_routes:
            break
        lines.append("")
        lines.append(format_route(result, prefix))
        shown += 1
    return "\n".join(lines)
