#!/usr/bin/env python3
"""Run the benchmark ``BENCHMARK.json`` declares.

    python3 bench/run.py                         every workload, both passes
    python3 bench/run.py --workload scan_fr16    one workload, both passes
    python3 bench/run.py --workload scan_fr16 --seed 7 --seconds 8 --trace 0
                                                 one pass, in this process
    python3 bench/run.py --smoke                 tiny sizes (self-tests)
    python3 bench/run.py --self-check            two sets, compared

A *pass* is one workload run once: untraced (``--trace 0``) it reports
the end-to-end metrics, traced (``--trace 1``) the per-layer ones.  With
both ``--workload`` and ``--trace`` given — the form the driver uses —
the pass runs in this process and the last line of standard output is
the result object.  Otherwise each pass runs in a fresh child
interpreter and the collected result set is printed and written to
``--out`` (default ``bench/out/result.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # The benchmark measures the program under src/; without it there is
    # nothing to build or run.
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             f"is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import compare, host, spec  # noqa: E402

SCHEMA = 1
CHILD_TIMEOUT_S = 900


def run_pass(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool) -> Dict[str, object]:
    """One workload, once, in this process; the full record."""
    from bench import scans, serve

    benchmark = spec.load_benchmark()
    declared = benchmark["per_layer" if trace else "end_to_end"]
    params = spec.workload_params(name, smoke)
    block = host.host_block({"workload": name, "seed": seed,
                             "seconds": seconds, "smoke": smoke, **params})
    module = scans if params["kind"] == "scan" else serve
    outcome = module.run(name, params, seed, seconds, trace, smoke)
    block["parameters"].update(outcome["parameters"])
    host.finish(block)

    measured = outcome["metrics"]
    tally: spec.Tally = outcome["tally"]
    metrics = {}
    for entry in declared:
        # A layer the workload never enters did no work: 0, not absent.
        value = measured.get(entry["name"], 0.0 if trace else None)
        if value is None:
            raise KeyError(f"workload {name} did not report "
                           f"{entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "schema": SCHEMA, "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "fail_share": tally.fail_share,
        "failures": tally.reasons,
        "labels": block["labels"] + outcome["labels"],
        "metrics": metrics, "samples": outcome["samples"],
        "counts": outcome["counts"], "host": block,
    }


def print_record(record: Dict[str, object]) -> None:
    kind = "per-layer" if record["trace"] else "end-to-end"
    labels = f"  [{', '.join(record['labels'])}]" if record["labels"] else ""
    print(f"{record['workload']} · {kind} · seed {record['seed']}{labels}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, sample in record["samples"].items():
        print(f"  ({name}: median {sample['median']:.6g}, quartiles "
              f"{sample['q1']:.6g}..{sample['q3']:.6g}, n={sample['n']})")
    print(f"  fail_share {record['fail_share']:.6g} "
          f"({record['failed']} of {record['attempted']} failed)")
    for reason in record["failures"]:
        print(f"    failed: {reason}")


def driver_line(record: Dict[str, object]) -> str:
    """The result object the driver reads off the last line."""
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_child(name: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> Dict[str, object]:
    """One pass in a fresh interpreter; its record, read back from disk."""
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = spec.OUT_DIR / f"{name}-trace{trace}.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"workload {name} (trace {trace}) exited "
                           f"{done.returncode}")
    with open(out, encoding="utf-8") as stream:
        return json.load(stream)


def run_set(names: List[str], seed: int, seconds: float,
            traces: List[int], smoke: bool) -> Dict[str, object]:
    """Every named workload, each pass in its own interpreter."""
    block = host.host_block({"seed": seed, "seconds": seconds,
                             "smoke": smoke, "workloads": names})
    workloads: Dict[str, Dict[str, object]] = {}
    for name in names:
        workloads[name] = {}
        for trace in traces:
            record = run_child(name, seed, seconds, trace, smoke)
            print_record(record)
            workloads[name]["per_layer" if trace else "end_to_end"] = record
    return {"schema": SCHEMA, "seed": seed, "seconds": seconds,
            "smoke": smoke, "host": host.finish(block),
            "workloads": workloads}


def write_json(payload: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1)
        stream.write("\n")


def all_correct(result_set: Dict[str, object]) -> bool:
    return all(record["correct"]
               for passes in result_set["workloads"].values()
               for record in passes.values())


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = spec.load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measured work per pass (default: "
                             "run_seconds of BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only, 1: traced per-layer "
                             "pass only (default: both)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the record or result set")
    parser.add_argument("--smoke", action="store_true",
                        help="256 prefixes, 1 repeat, 200 requests")
    parser.add_argument("--self-check", action="store_true",
                        help="run the end-to-end set twice and compare")
    args = parser.parse_args(argv)
    out = args.out.resolve() if args.out is not None else None
    # Socket paths are relative to the root (see bench/serve.py).
    os.chdir(ROOT)
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else float(benchmark["run_seconds"]))

    if args.workload is not None and args.trace is not None \
            and not args.self_check:
        record = run_pass(args.workload, args.seed, seconds,
                          bool(args.trace), args.smoke)
        if out is not None:
            write_json(record, out)
        print_record(record)
        print(driver_line(record))
        return 0

    selected = [args.workload] if args.workload is not None else names
    if args.self_check:
        first = run_set(selected, args.seed, seconds, [0], args.smoke)
        second = run_set(selected, args.seed, seconds, [0], args.smoke)
        write_json(first, spec.OUT_DIR / "self-check-a.json")
        write_json(second, spec.OUT_DIR / "self-check-b.json")
        rows = compare.compare(first, second, benchmark)
        compare.print_rows(rows)
        changes = compare.changed_outputs(first, second)
        for change in changes:
            print(change)
        agreed = not changes and not any(
            row["verdict"] in ("worse", "unresolved") for row in rows)
        print("self-check: " + ("the two sets agree" if agreed else
                                "the two sets DISAGREE"))
        return 0 if agreed and all_correct(first) and all_correct(second) \
            else 1

    traces = [args.trace] if args.trace is not None else [0, 1]
    result_set = run_set(selected, args.seed, seconds, traces, args.smoke)
    target = out if out is not None else spec.OUT_DIR / "result.json"
    write_json(result_set, target)
    print(f"result set written to {target}")
    return 0 if all_correct(result_set) else 1


if __name__ == "__main__":
    sys.exit(main())
