"""The host block stamped into every result.

A wall-clock number means nothing without the machine it was taken on:
core count, the cores this process may actually use, interpreter,
platform, commit and load.  A run on fewer than two usable cores (every
workload keeps two processes busy) or started on an already loaded host
is *labelled* so in the output rather than silently reported.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

from .spec import ROOT

#: Every workload is sized for two busy processes.
CORES_NEEDED = 2


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _git_commit() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git repository (the
    driver runs the benchmark from a plain copy of the files)."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def start_method() -> str:
    """The start method ``run_sharded_scan`` picks by default."""
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


def host_block(parameters: Dict[str, object]) -> Dict[str, object]:
    """Describe the host at the start of a run; :func:`finish` closes it."""
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "start_method": start_method(),
        "loadavg_start": list(os.getloadavg()),
        "parameters": dict(parameters),
    }


def finish(block: Dict[str, object]) -> Dict[str, object]:
    block["loadavg_end"] = list(os.getloadavg())
    block["labels"] = labels(block)
    return block


def labels(block: Dict[str, object]) -> List[str]:
    found = []
    if block["usable_cpus"] < CORES_NEEDED:
        found.append("undersized_host")
    if block["loadavg_start"][0] > block["usable_cpus"]:
        found.append("loaded_host")
    return found
