#!/usr/bin/env python
"""Diff two scans and attribute every divergence to a cause.

Thin script wrapper over ``flashroute-sim scan-diff``, for use without
installing the package (CI artifacts, clean-vs-faulted comparisons).
Inputs are ``scan --events`` logs (JSONL or binary) or ``scan --output``
result JSON files; pass the second run's fault parameters to attribute
fault-induced holes to their exact hash draws.  The flags are the CLI's,
so they take the values ``scan`` takes.

Usage: python tools/scan_diff.py A B [--loss P] [--blackout P]
                                     [--fault-seed N] [--json]
"""

from __future__ import annotations

import pathlib
import sys

if __package__ in (None, ""):  # allow "python tools/scan_diff.py"
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli_main  # noqa: E402


def main(argv=None) -> int:
    return cli_main(["scan-diff", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
