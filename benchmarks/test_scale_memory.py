"""Scale drill: peak memory of one large ``flashroute-16`` scan.

One 65,536-prefix scan in a fresh interpreter (so ``ru_maxrss`` is the
scan's own high-water mark, not pytest's), failing when the process peaks
above 153 MiB or above 2.4 KiB of RSS per /24: the measured 133.2 MiB
(2.08 KiB per /24) plus 15 %.  With the topology as columns the scan peaks
there; with one object graph per /24 it peaked at ~234 MiB (3.65 KiB per
/24), and with a response tuple per ``(destination, TTL)`` slot in the
route cache at 414 MiB — either coming back fails this.  ~15 s; run by
CI's ``bench-smoke`` job, outside tier-1.

This is the scale row ROADMAP item 1's "scale pair" takes over inside
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
MAX_RSS_MIB = 153.0
MAX_KIB_PER_PREFIX = 2.4

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


def test_scan_memory_at_scale(save_result):
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _SCAN, str(PREFIXES)],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=True)
    report = json.loads(done.stdout)
    rss_mib = report["maxrss_kib"] / 1024.0
    kib_per_prefix = report["maxrss_kib"] / PREFIXES
    save_result("scale_memory", (
        f"flashroute-16, {PREFIXES} prefixes: {report['wall_s']:.1f} s, "
        f"{report['wall_s'] / report['probes'] * 1e6:.1f} us/probe, "
        f"peak RSS {rss_mib:.0f} MiB, {kib_per_prefix:.2f} KiB per /24"))
    assert report["probes"] > PREFIXES
    assert rss_mib <= MAX_RSS_MIB
    assert kib_per_prefix <= MAX_KIB_PER_PREFIX
