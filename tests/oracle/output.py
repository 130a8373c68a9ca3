"""The scan serializers as they were before they shared text.

``repro.core.output`` formats each distinct address, prefix and TTL once
per call and hands the same string to every place it appears.  This keeps
the per-hop forms it replaced — a new ``str(ttl)`` and a new
``int_to_ip(responder)`` for every hop, and ``json.dump`` encoding the
document one key and value at a time — so generated tests can compare
the two on any result.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, TextIO

from repro.core.output import CSV_FIELDS
from repro.core.results import ScanResult
from repro.net.addr import int_to_ip


def result_to_dict(result: ScanResult) -> Dict[str, object]:
    """``repro.core.output.result_to_dict``, one new string per use."""
    return {
        "format_version": 1,
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
        "targets": {str(prefix): int_to_ip(addr)
                    for prefix, addr in result.targets.items()},
        "dest_distance": {str(prefix): distance
                          for prefix, distance in result.dest_distance.items()},
        "routes": {str(prefix): {str(ttl): int_to_ip(responder)
                                 for ttl, responder in hops.items()}
                   for prefix, hops in result.routes.items()},
        "ttl_probe_histogram": {str(ttl): count for ttl, count
                                in result.ttl_probe_histogram.items()},
        "response_kinds": dict(result.response_kinds),
    }


def write_json(result: ScanResult, stream: TextIO, indent: int = 2) -> None:
    """``repro.core.output.write_json``, encoded by ``json.dump``."""
    json.dump(result_to_dict(result), stream, indent=indent, sort_keys=True)
    stream.write("\n")


def write_hops_csv(result: ScanResult, stream: TextIO) -> int:
    """``repro.core.output.write_hops_csv``, one new string per hop."""
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    rows = 0
    shift = 32 - result.granularity
    for prefix in sorted(result.routes.keys() | result.dest_distance.keys()):
        target = result.targets.get(prefix)
        target_text = int_to_ip(target) if target is not None else ""
        prefix_text = f"{int_to_ip(prefix << shift)}/{result.granularity}"
        for ttl, responder in sorted(result.routes.get(prefix, {}).items()):
            writer.writerow([prefix_text, target_text, ttl,
                             int_to_ip(responder), 0])
            rows += 1
        distance = result.dest_distance.get(prefix)
        if distance is not None and target is not None:
            writer.writerow([prefix_text, target_text, distance,
                             target_text, 1])
            rows += 1
    return rows


def format_route(result: ScanResult, prefix: int,
                 show_missing: bool = True) -> str:
    """``repro.core.output.format_route`` over ``result.routes``."""
    target = result.targets.get(prefix)
    hops = result.routes.get(prefix, {})
    distance = result.dest_distance.get(prefix)
    end = distance if distance is not None else (max(hops) if hops else 0)
    shift = 32 - result.granularity
    target_text = int_to_ip(target) if target is not None else "?"
    lines = [f"traceroute to {target_text} "
             f"({int_to_ip(prefix << shift)}/{result.granularity})"]
    for ttl in range(1, end + 1):
        responder = hops.get(ttl)
        if ttl == distance and target is not None:
            lines.append(f"  {ttl:2d}  {target_text}  [destination]")
        elif responder is not None:
            lines.append(f"  {ttl:2d}  {int_to_ip(responder)}")
        elif show_missing:
            lines.append(f"  {ttl:2d}  *")
    return "\n".join(lines)
