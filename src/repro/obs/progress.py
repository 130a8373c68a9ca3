"""Live in-scan progress, keyed off the *virtual* clock.

The real FlashRoute prints a live console line during a scan — sending
rate, destinations still in the ring, interfaces found.  The reproduction
runs on virtual time, so the reporter's notion of "every N seconds" must
be virtual too: a wall-clock interval would make ``--progress`` output
depend on host speed and be untestable.  Engines report through
:meth:`~repro.core.runtime.ScanRuntime.report_progress` at natural
checkpoints (round ends, chunk boundaries, per-trace), which asks
:meth:`ProgressReporter.due` and only then assembles the fields for
:meth:`ProgressReporter.report`; the reporter emits at most one line per
``interval`` of virtual time, so the sequence of lines is a pure function
of the scan — reproducible under ``capsys``.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, TextIO


class ProgressReporter:
    """Renders periodic one-line scan snapshots to a stream (stderr)."""

    __slots__ = ("interval", "_stream", "_next_at", "lines_emitted")

    def __init__(self, interval: float = 1.0,
                 stream: Optional[TextIO] = None) -> None:
        if interval <= 0:
            raise ValueError("progress interval must be positive")
        self.interval = interval
        self._stream = stream
        #: Virtual time of the next due report; 0.0 means the first
        #: checkpoint reports immediately.
        self._next_at = 0.0
        self.lines_emitted = 0

    def due(self, vnow: float) -> bool:
        """Is a report due at virtual time ``vnow``?

        Cheap enough to call per ring step; callers should only assemble
        the (possibly expensive) snapshot fields when this returns True.
        """
        return vnow >= self._next_at

    def report(self, vnow: float, fields: Dict[str, object]) -> None:
        """Emit one line now and schedule the next report."""
        stream = self._stream if self._stream is not None else sys.stderr
        rendered = " ".join(f"{key}={self._fmt(value)}"
                            for key, value in fields.items())
        stream.write(f"[progress] t={vnow:.1f}s {rendered}\n")
        self.lines_emitted += 1
        self._next_at = vnow + self.interval

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:,.0f}"
        if isinstance(value, int):
            return f"{value:,}"
        return str(value)
