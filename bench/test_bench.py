"""Self-tests of the benchmark (outside ``testpaths``; run with
``PYTHONPATH=src python -m pytest bench -q``)."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.api import Engine, ScanRequest, TraceRequest, TraceSession  # noqa: E402

from bench import compare, host, scans, serve, spec  # noqa: E402
from bench.proxy import TimingNetwork  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = spec.load_benchmark()
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
END_TO_END = [entry["name"] for entry in BENCHMARK["end_to_end"]]
PER_LAYER = [entry["name"] for entry in BENCHMARK["per_layer"]]


# --------------------------------------------------------------------- #
# The contract file and the catalogue beside it
# --------------------------------------------------------------------- #

def test_benchmark_json_has_the_contract_shape():
    assert sorted(BENCHMARK) == ["command", "end_to_end", "paths",
                                 "per_layer", "run_seconds", "workloads"]
    assert BENCHMARK["paths"] == ["bench"]
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
    assert len(set(WORKLOADS + END_TO_END + PER_LAYER)) \
        == len(WORKLOADS + END_TO_END + PER_LAYER)
    for entry in BENCHMARK["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {entry["name"]: entry["bound"]
              for entry in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Every run of every workload, with its set-up, inside the budget.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (BENCHMARK["run_seconds"] + 15) < 3420


def test_catalogue_matches_the_contract():
    assert sorted(spec.WORKLOADS) == sorted(WORKLOADS)
    assert sorted(spec.PREDICTIONS) == sorted(PER_LAYER)
    assert set(spec.EXACT) <= set(END_TO_END)
    for name, (layer, _) in spec.PREDICTIONS.items():
        assert name.startswith(layer + "."), name
    readme = (ROOT / "bench" / "README.md").read_text(encoding="utf-8")
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert f"`{name}`" in readme, f"README does not describe {name}"


# --------------------------------------------------------------------- #
# --smoke: the whole suite at toy size
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as stream:
        return json.load(stream), elapsed, done.stdout


def test_smoke_is_quick_and_emits_exactly_the_declared_names(smoke):
    result_set, elapsed, stdout = smoke
    assert elapsed < 30
    assert list(result_set["workloads"]) == WORKLOADS
    for name, passes in result_set["workloads"].items():
        assert list(passes["end_to_end"]["metrics"]) == END_TO_END
        assert list(passes["per_layer"]["metrics"]) == PER_LAYER
        for record in passes.values():
            assert record["correct"] and record["failed"] == 0, name
            assert record["attempted"] >= 1
        for metric, entry in passes["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, (name, metric)  # never 0
        assert passes["per_layer"]["metrics"][
            "bench.traced_wall_s"]["value"] > 0
        # Every metric is printed by name, with its unit.
        for metric in END_TO_END + PER_LAYER:
            assert f"  {metric} " in stdout


def test_smoke_stamps_a_host_block_into_every_result(smoke):
    result_set, _, _ = smoke
    records = [result_set] + [record
                              for passes in result_set["workloads"].values()
                              for record in passes.values()]
    for record in records:
        block = record["host"]
        for key in ("cpu_count", "usable_cpus", "python", "platform",
                    "git_commit", "loadavg_start", "loadavg_end",
                    "start_method", "parameters", "labels"):
            assert key in block, key
    fresh = result_set["workloads"]["serve_fresh"]["end_to_end"]
    parameters = fresh["host"]["parameters"]
    assert parameters["prefixes"] == 256 and parameters["clients"] == 2
    assert parameters["seed"] == spec.DEFAULT_SEED
    assert parameters["repeats"] >= 1


def test_smoke_serve_workloads_exercise_the_path_they_are_named_for(smoke):
    result_set, _, _ = smoke
    layers = {name: result_set["workloads"][name]["per_layer"]["metrics"]
              for name in ("serve_fresh", "serve_hit")}
    hit, fresh = layers["serve_hit"], layers["serve_fresh"]
    assert hit["service.daemon.traces_started"]["value"] \
        == spec.WORKLOADS["serve_hit"]["working_set"]
    assert hit["service.daemon.cache_hits"]["value"] > 0
    assert fresh["service.daemon.cache_hits"]["value"] == 0
    assert fresh["service.daemon.traces_started"]["value"] > 0
    for metrics in layers.values():
        assert metrics["service.daemon.errors"]["value"] == 0
        assert metrics["service.daemon.shed"]["value"] == 0
    assert not list((ROOT / "bench" / "out").glob("serve-*")), \
        "socket directory left behind"


def test_driver_form_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "scan_yarrp32", "--seed", "5", "--seconds", "0", "--trace", "0",
         "--smoke"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["attempted"] >= 1
    assert list(last["metrics"]) == END_TO_END
    for entry in last["metrics"].values():
        assert sorted(entry) == ["unit", "value"]


def test_without_the_program_the_benchmark_refuses(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_fr16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# --------------------------------------------------------------------- #
# The timing proxy
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("tool", ["flashroute-16", "yarrp-32"])
def test_timing_proxy_is_transparent(tool):
    request = ScanRequest(tool=tool, prefixes=256, seed=11)
    topology = scans.build(256, 11)[0]

    plain_engine = Engine(topology=topology)
    plain = plain_engine.open_session(request).run()

    proxied_engine = Engine(topology=topology)
    session = proxied_engine.open_session(request)
    proxy = session.network = TimingNetwork(session.network,
                                            keep_probes=1000)
    proxied = session.run()

    assert scans.digest(proxied) == scans.digest(plain)
    assert proxied_engine.network.stats()["route_cache"] \
        == plain_engine.network.stats()["route_cache"]
    assert proxy.probes == plain.probes_sent
    assert proxy.calls > 0 and proxy.busy_ns > 0
    assert sum(len(batch) for batch in proxy.batches) >= 1000


# --------------------------------------------------------------------- #
# Output checks: a wrong answer must show as fail_share > 0
# --------------------------------------------------------------------- #

def test_corrupted_scan_result_drives_fail_share_up():
    topology = scans.build(256, 3)[0]
    request = ScanRequest(tool="flashroute-16", prefixes=256, seed=3)
    result = Engine(topology=topology).open_session(request).run()
    reference = scans.digest(result)
    reachable = scans.real_interfaces(topology, request.tool)
    tally = spec.Tally()
    tally.record(scans.check_result(result, reference, reachable))
    assert tally.fail_share == 0

    prefix = next(iter(result.routes))
    result.add_hop(prefix, 31, 0x01020304)  # an interface that is nowhere
    reason = scans.check_result(result, reference, reachable)
    assert reason is not None and "digest" in reason
    # Even a run whose every repeat is corrupted the same way is caught:
    reason = scans.check_result(result, scans.digest(result), reachable)
    assert reason is not None and "reachable_interfaces" in reason
    tally.record(reason)
    assert tally.fail_share == 0.5


def _daemon_answer(engine: Engine, key, cache: str, start_time=0.0):
    """What the daemon would send for ``key``: (hop records, terminal)."""
    request = TraceRequest(destination=key[0], flow=key[1])
    trace = json.loads(json.dumps(
        TraceSession(engine, request, start_time=start_time).run()))
    hops = [{"type": "hop", **hop} for hop in trace["hops"]]
    return hops, {"type": "done", "cache": cache, "epoch": 0,
                  "trace": trace}


def test_corrupted_hit_record_drives_fail_share_up():
    engine = Engine.from_request(ScanRequest(prefixes=256, seed=3))
    key = next(key for key in serve.KeyStream(engine, 3).take(50)
               if _daemon_answer(engine, key, "miss")[0])
    filled = _daemon_answer(engine, key, "miss")
    hops, terminal = _daemon_answer(engine, key, "hit")
    tally = spec.Tally()
    tally.record(serve.check_hit(hops, terminal, filled))
    assert tally.fail_share == 0

    wrong = copy.deepcopy(hops)
    wrong[0]["ip"] = "1.2.3.4"
    tally.record(serve.check_hit(wrong, terminal, filled))
    assert tally.fail_share == 0.5
    # A hit that was silently answered by a fresh trace is not a hit.
    assert serve.check_hit(hops, {**terminal, "cache": "miss"}, filled)
    assert serve.check_hit(hops, {"type": "error", "code": "overloaded"},
                           filled)


def test_fresh_record_is_checked_against_an_in_process_trace():
    engine = Engine.from_request(ScanRequest(prefixes=256, seed=3))
    key = serve.KeyStream(engine, 3).take(1)[0]
    hops, terminal = _daemon_answer(engine, key, "miss", start_time=40.0)
    assert serve.check_fresh(hops, terminal, engine) is None
    tampered = copy.deepcopy(terminal)
    tampered["trace"]["probes"] += 1
    assert "in-process" in serve.check_fresh(hops, tampered, engine)
    assert serve.check_fresh(hops[:-1] if hops else [{}], terminal)


def test_a_workload_off_its_path_cannot_report_a_number():
    tally = spec.Tally()
    for _ in range(10):
        tally.record(None)
    tally.fail_all("daemon started 0 traces for 10 distinct keys")
    assert tally.fail_share == 1.0 and tally.reasons[0].startswith("daemon")


# --------------------------------------------------------------------- #
# Statistics, host labels, comparison
# --------------------------------------------------------------------- #

def test_percentile_is_nearest_rank():
    assert spec.percentile(range(1, 101), 99) == 99
    assert spec.percentile(range(1, 1001), 99) == 990
    assert spec.percentile([3.0, 1.0, 2.0, 4.0], 99) == 4.0
    assert spec.percentile([7.0], 50) == 7.0
    assert spec.quartiles([5.0]) == (5.0, 5.0)


def test_small_or_loaded_hosts_are_labelled():
    block = {"usable_cpus": 1, "loadavg_start": [0.2, 0.1, 0.1]}
    assert host.labels(block) == ["undersized_host"]
    block = {"usable_cpus": 2, "loadavg_start": [2.5, 1.0, 0.5]}
    assert host.labels(block) == ["loaded_host"]
    assert host.labels({"usable_cpus": 2,
                        "loadavg_start": [0.3, 0.2, 0.1]}) == []


def _result_set(seed=1, **changes):
    """A synthetic one-workload result set with tight spreads."""
    values = {"setup_s": 0.3, "op_p50_ms": 2000.0,
              "throughput_per_s": 80000.0, "peak_rss_mb": 130.0,
              "probes_sent": 180000, "interface_coverage": 0.8}
    values.update(changes)
    units = {entry["name"]: entry["unit"]
             for entry in BENCHMARK["end_to_end"]}
    samples = {name: {"median": values[name], "n": 4,
                      "q1": values[name] * 0.995,
                      "q3": values[name] * 1.005}
               for name in ("setup_s", "op_p50_ms", "throughput_per_s")}
    record = {"seed": seed, "fail_share": 0.0, "samples": samples,
              "counts": {"digest": "ab12", "virtual_scan_s": 1800.0},
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    return {"workloads": {"scan_fr16": {"end_to_end": record}}}


def _verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}


def test_compare_passes_identical_inputs(tmp_path, capsys):
    rows = compare.compare(_result_set(), _result_set())
    assert {row["verdict"] for row in rows} == {"same"}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_result_set()))
    assert compare.main([str(path), str(path)]) == 0
    printed = capsys.readouterr().out
    assert "base A = 2000 ms" in printed  # every ratio with its base


def test_compare_flags_a_synthetic_slowdown(tmp_path):
    """20 % more memory and 40 % more time are each beyond their bound;
    20 % more time alone is inside the 25 % a shared host forces."""
    slow = _result_set(op_p50_ms=2800.0, throughput_per_s=80000.0 / 1.4,
                       peak_rss_mb=156.0)
    verdicts = _verdicts(_result_set(), slow)
    assert verdicts["op_p50_ms"] == "worse"
    assert verdicts["peak_rss_mb"] == "worse"
    assert verdicts["setup_s"] == "same"
    assert _verdicts(_result_set(),
                     _result_set(op_p50_ms=2400.0))["op_p50_ms"] == "same"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result_set()))
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(b)]) == 1
    assert _verdicts(slow, _result_set())["op_p50_ms"] == "better"


def test_compare_holds_counts_exact_at_equal_seeds_only():
    more = _result_set(probes_sent=180001)
    assert _verdicts(_result_set(), more)["probes_sent"] == "worse"
    assert _verdicts(more, _result_set())["probes_sent"] == "better"
    # Another seed is another topology: only the bound applies.
    other = _result_set(seed=2, probes_sent=183000)
    assert _verdicts(_result_set(), other)["probes_sent"] == "same"
    # Other recorded outputs: named when they differ at the same seed.
    assert compare.changed_outputs(_result_set(), _result_set()) == []
    changed = _result_set()
    changed["workloads"]["scan_fr16"]["end_to_end"]["counts"]["digest"] = "cd"
    assert "digest" in compare.changed_outputs(_result_set(), changed)[0]
    changed["workloads"]["scan_fr16"]["end_to_end"]["seed"] = 2
    assert compare.changed_outputs(_result_set(), changed) == []


def test_compare_reports_wide_spreads_as_unresolved_and_failures_as_worse():
    noisy = _result_set()
    sample = noisy["workloads"]["scan_fr16"]["end_to_end"]["samples"]
    sample["op_p50_ms"].update(q1=1600.0, q3=2400.0)
    assert _verdicts(_result_set(), noisy)["op_p50_ms"] == "unresolved"
    failing = _result_set()
    failing["workloads"]["scan_fr16"]["end_to_end"]["fail_share"] = 0.25
    rows = compare.compare(_result_set(), failing)
    assert _verdicts(_result_set(), failing)["fail_share"] == "worse"
    assert compare.failed(rows)
