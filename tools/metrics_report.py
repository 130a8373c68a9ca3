#!/usr/bin/env python
"""Summarize one ``--metrics-out`` snapshot or diff two of them.

Thin script wrapper over ``flashroute-sim metrics-report``, for use
without installing the package (CI, ad-hoc comparisons of a cached vs.
uncached run, before/after fault-injection sweeps).

Usage: python tools/metrics_report.py METRICS.json [BASELINE.json]
                                      [--changed-only] [--exposition]
"""

from __future__ import annotations

import pathlib
import sys

if __package__ in (None, ""):  # allow "python tools/metrics_report.py"
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main  # noqa: E402


def main(argv=None) -> int:
    return cli_main(["metrics-report",
                     *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
