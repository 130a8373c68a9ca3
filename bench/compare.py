#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py``: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both medians with
their quartiles, the ratio B/A *with its base*, and a verdict taken from
the bounds in ``BENCHMARK.json``:

``same``        B is within the bound of A
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread inside either run is wider than the bound, so
                the run cannot tell (not the same as unchanged)

Metrics that are pure functions of the seed (``spec.EXACT``) are held to
exact equality when both sets used the same seed, and any other recorded
output that differs at the same seed (result digest, virtual scan time,
interfaces found) is named as a behaviour change.  Exit status is 1 on
any ``worse`` or on a higher ``fail_share``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import spec  # noqa: E402


def _spread(record: Dict[str, object], metric: str) -> Dict[str, float]:
    """Median and quartiles of one metric inside one run; a metric
    reported once is its own quartiles."""
    value = record["metrics"][metric]["value"]
    sample = record["samples"].get(metric)
    if sample is None:
        return {"median": value, "q1": value, "q3": value}
    return {"median": value, "q1": sample["q1"], "q3": sample["q3"]}


def _relative_iqr(side: Dict[str, float]) -> float:
    return abs(side["q3"] - side["q1"]) / abs(side["median"]) \
        if side["median"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float, exact: bool) -> str:
    """How B stands against A on one metric."""
    base = a["median"]
    change = (b["median"] - base) / abs(base) if base else 0.0
    worsening = change if better == "lower" else -change
    if exact:
        return "worse" if worsening > 0 else \
            "better" if worsening < 0 else "same"
    if max(_relative_iqr(a), _relative_iqr(b)) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, object], b: Dict[str, object],
            benchmark: Optional[dict] = None) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present in both sets,
    plus one ``fail_share`` row per workload."""
    benchmark = benchmark if benchmark is not None \
        else spec.load_benchmark()
    rows: List[Dict[str, object]] = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        try:
            left = a["workloads"][name]["end_to_end"]
            right = b["workloads"][name]["end_to_end"]
        except KeyError:
            continue
        same_seed = left["seed"] == right["seed"]
        for entry in benchmark["end_to_end"]:
            metric = entry["name"]
            side_a, side_b = _spread(left, metric), _spread(right, metric)
            rows.append({
                "workload": name, "metric": metric, "unit": entry["unit"],
                "a": side_a, "b": side_b, "bound": entry["bound"],
                "ratio": (side_b["median"] / side_a["median"]
                          if side_a["median"] else float("nan")),
                "verdict": verdict(
                    side_a, side_b, entry["better"], entry["bound"],
                    exact=same_seed and metric in spec.EXACT),
            })
        share_a, share_b = left["fail_share"], right["fail_share"]
        rows.append({
            "workload": name, "metric": "fail_share", "unit": "ratio",
            "a": {"median": share_a, "q1": share_a, "q3": share_a},
            "b": {"median": share_b, "q1": share_b, "q3": share_b},
            "bound": 0.0,
            "ratio": share_b / share_a if share_a else float("nan"),
            "verdict": "worse" if share_b > share_a else
                       "better" if share_b < share_a else "same",
        })
    return rows


def changed_outputs(a: Dict[str, object], b: Dict[str, object]
                    ) -> List[str]:
    """Recorded outputs that differ between two runs of the same seed:
    not better or worse by themselves, but never noise."""
    changes = []
    for name in a["workloads"]:
        try:
            left = a["workloads"][name]["end_to_end"]
            right = b["workloads"][name]["end_to_end"]
        except KeyError:
            continue
        if left["seed"] != right["seed"]:
            continue
        differing = sorted(key for key in left["counts"]
                           if left["counts"][key]
                           != right["counts"].get(key))
        if differing:
            changes.append(f"{name}: {', '.join(differing)} differ at the "
                           f"same seed: a behaviour change")
    return changes


def print_rows(rows: List[Dict[str, object]]) -> None:
    def side(values: Dict[str, float]) -> str:
        return (f"{values['median']:.6g} "
                f"[{values['q1']:.6g}..{values['q3']:.6g}]")

    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<19} "
              f"A {side(row['a']):<34} B {side(row['b']):<34} "
              f"B/A {row['ratio']:.4f} (base A = "
              f"{row['a']['median']:.6g} {row['unit']}) "
              f"bound {row['bound']:g}  {row['verdict']}")


def failed(rows: List[Dict[str, object]]) -> bool:
    return any(row["verdict"] == "worse" for row in rows)


def main(argv: Optional[List[str]] = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    sets = []
    for path in arguments:
        with open(path, encoding="utf-8") as stream:
            sets.append(json.load(stream))
    rows = compare(sets[0], sets[1])
    print_rows(rows)
    for change in changed_outputs(sets[0], sets[1]):
        print(change)
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
