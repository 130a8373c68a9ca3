"""Scale drill: peak memory of large scans, in fresh interpreters.

Each row runs at 65,536 prefixes in its own interpreter (so ``ru_maxrss``
is the run's own high-water mark, not pytest's) and fails above its
measured peak plus 15 %:

* **the scan** — one ``flashroute-16`` scan through the API: above
  131.6 MiB or 2.06 KiB of RSS per /24 (measured 114.4 MiB, 1.79 KiB
  per /24).  With the result's hops as one columnar table and the
  topology as columns the scan peaks there; with a ``{ttl: responder}``
  dict per prefix it peaked at 130.9 MiB (2.04 KiB per /24), with one
  object graph per /24 at ~234 MiB (3.65 KiB per /24), and with a
  response tuple per ``(destination, TTL)`` slot in the route cache at
  414 MiB — any of them coming back fails this.
* **the writer** — ``scan --tool yarrp-32 --output F.json`` through the
  CLI, which holds the result and its JSON document at once: above
  144.2 MiB (measured 125.4 MiB).  With the per-prefix route dicts it
  peaked at 163 MiB, and with a new responder ``int`` per hop in the
  simulator and two new strings per hop in ``result_to_dict`` at
  288 MiB — any of them coming back fails this.

~40 s together; run by CI's ``bench-smoke`` job, outside tier-1.

This is the scale row ROADMAP item 3's "scale pair" takes over inside
``bench/`` (``ns_per_probe`` and KiB of RSS per /24 at 4,096 and 65,536
prefixes, from the traced pass).  Delete this file when that lands.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

PREFIXES = 65_536
MAX_RSS_MIB = 131.6
MAX_KIB_PER_PREFIX = 2.06
MAX_OUTPUT_RSS_MIB = 144.2

_SCAN = """
import json, resource, sys, time
from repro import api
request = api.ScanRequest(tool="flashroute-16", prefixes=int(sys.argv[1]))
engine = api.Engine.from_request(request)
started = time.perf_counter()
result = engine.open_session(request).run()
wall = time.perf_counter() - started
print(json.dumps({
    "probes": result.probes_sent, "wall_s": wall,
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

_CLI = """
import contextlib, io, json, resource, sys, time
from repro.cli import main
started = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
wall = time.perf_counter() - started
print(json.dumps({
    "code": code, "wall_s": wall,
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _run(program: str, *args: str) -> dict:
    """Run ``program`` in a fresh interpreter; return its JSON report."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", program, *args],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout)


def test_scan_memory_at_scale(save_result):
    report = _run(_SCAN, str(PREFIXES))
    rss_mib = report["maxrss_kib"] / 1024.0
    kib_per_prefix = report["maxrss_kib"] / PREFIXES
    save_result("scale_memory", (
        f"flashroute-16, {PREFIXES} prefixes: {report['wall_s']:.1f} s, "
        f"{report['wall_s'] / report['probes'] * 1e6:.1f} us/probe, "
        f"peak RSS {rss_mib:.0f} MiB, {kib_per_prefix:.2f} KiB per /24"))
    assert report["probes"] > PREFIXES
    assert rss_mib <= MAX_RSS_MIB
    assert kib_per_prefix <= MAX_KIB_PER_PREFIX


def test_output_memory_at_scale(save_result, tmp_path):
    out = tmp_path / "scan.json"
    report = _run(_CLI, "scan", "--tool", "yarrp-32", "--prefixes",
                  str(PREFIXES), "--output", str(out))
    rss_mib = report["maxrss_kib"] / 1024.0
    save_result("scale_memory_output", (
        f"yarrp-32 scan --output, {PREFIXES} prefixes: "
        f"{report['wall_s']:.1f} s, peak RSS {rss_mib:.0f} MiB, "
        f"{out.stat().st_size / 2**20:.1f} MiB written"))
    assert report["code"] == 0
    assert out.stat().st_size > 0
    assert rss_mib <= MAX_OUTPUT_RSS_MIB
