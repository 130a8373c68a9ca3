"""``flashroute-sim top``: a live terminal dashboard for the daemon.

Polls a running daemon's ``stats``/``health``/``metrics`` control ops
over one persistent connection and redraws a plain-text dashboard in
place (ANSI home+clear on TTYs; sequential frames otherwise — no curses
dependency).  Works against any daemon: rates are the deltas between
two successive ``stats`` polls (so the first frame shows ``-``), and
the latency/slow-request panels simply note when telemetry is off.
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Dict, List, Optional, TextIO, Tuple

from .client import DaemonClient

#: Outcome rows the latency panel shows, in display order.
_PANEL_OUTCOMES = ("fresh", "hit", "error", "cancelled", "deadline",
                   "shed")

#: ANSI: cursor home + clear screen (the in-place redraw).
_CLEAR = "\x1b[H\x1b[2J"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.1f}%"


def _num(value, digits: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:,.{digits}f}" if isinstance(value, float) \
        else f"{value:,}"


def _rates(prev: Optional[Tuple[float, dict]],
           now_wall: float, stats: dict) -> Dict[str, object]:
    """req/s, probes/s and hit rate between two successive ``stats``
    polls; ``{}`` until there is an earlier poll to difference."""
    if prev is None:
        return {}
    prev_wall, prev_stats = prev
    dt = now_wall - prev_wall
    if dt <= 0:
        return {}
    d_req = stats["requests"] - prev_stats["requests"]
    d_hit = stats["cache_hits"] - prev_stats["cache_hits"]
    d_probes = stats["probes_sent"] - prev_stats["probes_sent"]
    return {
        "window_seconds": round(dt, 3),
        "req_per_s": round(d_req / dt, 1),
        "probes_per_s": round(d_probes / dt, 1),
        "hit_rate": round(d_hit / d_req, 4) if d_req > 0 else None,
    }


def render_frame(target: str, frame: int, stats: dict, health: dict,
                 metrics: Optional[dict],
                 rates: Optional[Dict[str, object]] = None) -> str:
    """One dashboard frame as a plain multi-line string (pure function:
    the tests drive it with canned control-op payloads)."""
    lines: List[str] = []
    wall = (metrics or {}).get("wall", {})
    rates = rates or {}
    counters = ((metrics or {}).get("snapshot") or {}).get("counters", {})

    uptime = wall.get("uptime_seconds")
    lines.append(f"flashroute-sim top — {target}   frame {frame}"
                 + (f"   up {_num(uptime)}s" if uptime is not None
                    else ""))
    lag = health.get("loop_lag_ms")
    lines.append(
        f"health  status={health.get('status', '?')}"
        f"  ready={'yes' if health.get('ready') else 'NO'}"
        f"  live={'yes' if health.get('live') else 'NO'}"
        f"  loop-lag={_num(lag)}ms"
        f"  telemetry={'on' if health.get('telemetry') else 'off'}")
    lines.append(
        f"clock   vt={_num(float(stats.get('now', 0.0)))}"
        f"  epoch={stats.get('epoch', 0)}"
        f"  space={stats.get('address_space', '?')}")
    lines.append(
        f"rates   {_num(rates.get('req_per_s'))} req/s"
        f"   {_num(rates.get('probes_per_s'))} probes/s"
        f"   hit-rate {_pct(rates.get('hit_rate'))}"
        f"   (last {_num(rates.get('window_seconds'))}s)")
    fresh = counters.get("service.requests.fresh",
                         stats.get("traces_started", 0))
    lines.append(
        f"totals  requests={_num(stats.get('requests', 0))}"
        f"  hit={_num(stats.get('cache_hits', 0))}"
        f"  fresh={_num(fresh)}"
        f"  error={_num(stats.get('errors', 0))}")
    lines.append(
        f"cache   entries={_num(stats.get('cache_entries', 0))}"
        f"  evicted epoch={_num(stats.get('cache_evicted_epoch', 0))}"
        f" lru={_num(stats.get('cache_evicted_lru', 0))}"
        f"  traces-started={_num(stats.get('traces_started', 0))}"
        f"  probes-sent={_num(stats.get('probes_sent', 0))}")
    lines.append("")
    if metrics is None:
        lines.append("latency/slow panels need telemetry: restart with "
                     "serve --telemetry (or --trace/--metrics-out)")
        return "\n".join(lines) + "\n"
    latency = wall.get("latency_ms", {})
    lines.append(f"{'latency ms (wall)':<20}{'count':>8}{'p50':>10}"
                 f"{'p90':>10}{'p99':>10}{'max':>10}")
    shown = False
    for outcome in _PANEL_OUTCOMES:
        row = latency.get(outcome)
        if not row:
            continue
        shown = True
        lines.append(f"  {outcome:<18}{row['count']:>8,}"
                     f"{row['p50']:>10,.1f}{row['p90']:>10,.1f}"
                     f"{row['p99']:>10,.1f}{row['max']:>10,.1f}")
    if not shown:
        lines.append("  (no completed requests yet)")
    lines.append("")
    threshold = wall.get("slow_threshold_ms")
    lines.append(f"slow requests (>= {_num(threshold)} ms): "
                 f"{_num(wall.get('slow_total', 0))} total")
    for entry in list(wall.get("slow_requests", []))[-8:]:
        destination = entry.get("destination") or "?"
        lines.append(
            f"  #{entry['rid']:<6} {entry['outcome']:<10}"
            f" {destination}/{entry.get('flow', 0):<3}"
            f" {entry['wall_ms']:>9,.1f} ms"
            f"  cause={entry['cause']}"
            f"  probes={entry.get('probes', 0)}")
    return "\n".join(lines) + "\n"


async def _top_loop(host: Optional[str], port: Optional[int],
                    socket_path: Optional[str], interval: float,
                    iterations: int, stream: TextIO,
                    clear: bool) -> int:
    target = socket_path if socket_path is not None else f"{host}:{port}"
    async with DaemonClient(host=host, port=port,
                            socket_path=socket_path) as client:
        prev: Optional[Tuple[float, dict]] = None
        frame = 0
        while True:
            frame += 1
            stats = await client.control("stats")
            health = await client.control("health")
            metrics = await client.control("metrics")
            if metrics.get("type") != "metrics":
                metrics = None  # telemetry disabled server-side
            now_wall = time.monotonic()
            rates = _rates(prev, now_wall, stats)
            prev = (now_wall, stats)
            text = render_frame(target, frame, stats, health, metrics,
                                rates=rates)
            if clear:
                stream.write(_CLEAR)
            stream.write(text)
            stream.flush()
            if iterations and frame >= iterations:
                return 0
            await asyncio.sleep(interval)


def run_top(host: str = "127.0.0.1", port: int = 4792,
            socket_path: Optional[str] = None, interval: float = 1.0,
            iterations: int = 0, stream: Optional[TextIO] = None,
            clear: Optional[bool] = None) -> int:
    """Run the dashboard until ^C (or for ``iterations`` frames).

    ``clear=None`` redraws in place on TTYs and prints sequential
    frames otherwise (CI logs, pipes).  Returns a process exit code.
    """
    if stream is None:
        stream = sys.stdout
    if clear is None:
        clear = bool(getattr(stream, "isatty", lambda: False)())
    try:
        return asyncio.run(_top_loop(host, port, socket_path, interval,
                                     iterations, stream, clear))
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"flashroute-sim top: cannot reach daemon at "
              f"{socket_path or f'{host}:{port}'}: {exc}",
              file=sys.stderr)
        return 1
