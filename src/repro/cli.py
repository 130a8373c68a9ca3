"""Command-line interface: ``flashroute-sim`` (or ``python -m repro``).

Subcommands:

* ``scan`` — run one tool over a freshly generated topology and print the
  scan summary (optionally JSON).
* ``serve`` — run the traceroute-as-a-service daemon (docs/service.md).
* ``top`` — live terminal dashboard over a running daemon.
* ``experiment`` — regenerate one of the paper's tables/figures.
* ``list`` — list available experiments.
* ``metrics-report`` — summarize or diff ``--metrics-out`` snapshots.
* ``scan-diff`` — join two scans (``--events`` logs or ``--output``
  results) per prefix and attribute every divergence to a cause.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import Callable, Dict, List, Optional

from .api import (Engine, ScanRequest, non_negative_int, positive_finite,
                  positive_int)
from .core.results import ScanResult
from .experiments import (
    ExperimentContext,
    run_discovery_experiment,
    run_fig3,
    run_fig4,
    run_fig6,
    run_fig7,
    run_fig8,
    run_loss_recovery,
    run_loss_sweep,
    run_neighborhood_protection,
    run_proximity_span_ablation,
    run_rewrite_detection,
    run_round_pacing_ablation,
    run_granularity_future_work,
    run_route_holes,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)

_EXPERIMENTS: Dict[str, Callable[[ExperimentContext], object]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "neighborhood": run_neighborhood_protection,
    "discovery": run_discovery_experiment,
    "rewrite": run_rewrite_detection,
    "ablation-span": run_proximity_span_ablation,
    "ablation-pacing": run_round_pacing_ablation,
    "holes": run_route_holes,
    "loss-sweep": run_loss_sweep,
    "loss-recovery": run_loss_recovery,
    "future-granularity": run_granularity_future_work,
}


# --------------------------------------------------------------------- #
# Argument validators: reject impossible values at the parser, with a
# readable message, instead of crashing deep in topology generation.
# --------------------------------------------------------------------- #

def _flag_type(convert: type, check: Optional[Callable]) -> Callable:
    """An argparse ``type=``: ``convert`` the text, then ``check`` the
    value (a :mod:`repro.api` domain check); either failure is a usage
    error, exit 2."""
    def parse(text: str):
        value = convert(text)  # argparse: "invalid int value: 'x'"
        if check is not None:
            try:
                check(value)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = convert.__name__
    return parse


def _non_negative_finite(value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"must be a non-negative finite number, got "
                         f"{value}")


def _unit_interval(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must be a fraction in [0, 1], got {value}")


_positive_int = _flag_type(int, positive_int)
_nonneg_int = _flag_type(int, non_negative_int)
_positive_float = _flag_type(float, positive_finite)
_nonneg_float = _flag_type(float, _non_negative_finite)
_fraction = _flag_type(float, _unit_interval)


def _output_file(text: str) -> str:
    if not text.endswith((".json", ".csv")):
        raise argparse.ArgumentTypeError(
            f"must end in .json or .csv, got {text!r}")
    return text


def _request_flags(parser, *names: str) -> None:
    """Add one flag per named :class:`ScanRequest` field (every field when
    none is named): ``--`` plus the name with ``_`` → ``-``, the field as
    its dest, and the field's default, help and check."""
    types = ScanRequest.schema.types
    for spec in fields(ScanRequest):
        if names and spec.name not in names:
            continue
        check = spec.metadata["check"]
        kind = types[spec.name][0]
        if kind is bool:
            how = {"action": argparse.BooleanOptionalAction}
        elif hasattr(check, "choices"):
            how = {"choices": check.choices()}
        else:
            how = {"type": _flag_type(kind, check)}
        parser.add_argument("--" + spec.name.replace("_", "-"),
                            dest=spec.name, default=spec.default,
                            help=spec.metadata["help"],
                            metavar=spec.metadata["metavar"], **how)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashroute-sim",
        description="FlashRoute (IMC 2020) reproduction on a simulated "
                    "Internet")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run one scan")
    _request_flags(scan)
    scan.add_argument("--json", action="store_true",
                      help="print the result as JSON")
    scan.add_argument("--output", metavar="FILE", type=_output_file,
                      default=None,
                      help="save the full result (.json) or the hop list "
                           "(.csv)")
    scan.add_argument("--pcap", metavar="FILE", default=None,
                      help="capture every probe and response to a pcap "
                           "file (with --shards, one suffixed file per "
                           "slice: out.pcap -> out.slice00.pcap, ...)")
    scan.add_argument("--metrics-out", metavar="FILE", default=None,
                      help="write a metrics-registry snapshot (JSON) after "
                           "the scan (see docs/observability.md)")
    scan.add_argument("--trace", metavar="FILE", default=None,
                      help="write structured scan/phase/round span events "
                           "as JSONL (with --shards, per-slice trees "
                           "merged into one multi-root forest)")
    scan.add_argument("--events", metavar="FILE", default=None,
                      help="record probe-level flight-recorder events "
                           "(JSONL, or length-prefixed binary when FILE "
                           "ends in .bin); see docs/observability.md")
    scan.add_argument("--events-sample", type=_fraction, default=1.0,
                      metavar="FRACTION",
                      help="record only this deterministic fraction of "
                           "prefixes in the event log (default 1.0: all)")
    scan.add_argument("--events-ring", type=_positive_int, default=None,
                      metavar="N",
                      help="keep only the last N events (bounded ring "
                           "buffer, written at scan end)")
    scan.add_argument("--progress", nargs="?", const=1.0,
                      type=_positive_float, default=None,
                      metavar="SECONDS",
                      help="print progress snapshots to stderr every "
                           "SECONDS of virtual scan time (default 1.0); "
                           "with --shards, a live aggregated view of the "
                           "worker heartbeats (per-worker rates, "
                           "aggregate pps, ETA, straggler flags)")
    scan.add_argument("--checkpoint", metavar="FILE", default=None,
                      help="write a versioned scan checkpoint at round "
                           "boundaries and on interrupt; resume with "
                           "--resume FILE")
    scan.add_argument("--checkpoint-every", type=_positive_int, default=1,
                      metavar="K",
                      help="write the checkpoint file every K rounds "
                           "(default 1; the latest round boundary is "
                           "always flushed on interrupt)")
    scan.add_argument("--resume", metavar="FILE", default=None,
                      help="continue a scan from a checkpoint written by "
                           "--checkpoint (topology, tool and faults are "
                           "rebuilt from the file; other scan flags "
                           "except telemetry ones are ignored)")
    scan.add_argument("--interrupt-after-round", type=_positive_int,
                      default=None, metavar="K",
                      help="deterministically interrupt the scan at round "
                           "boundary K, as if ^C were pressed (testing "
                           "checkpoint/resume); with --shards, K counts "
                           "completed slices instead of rounds")
    scan.add_argument("--slice-retries", type=_nonneg_int, default=0,
                      metavar="K",
                      help="respawn a crashed slice's work up to K times "
                           "before giving up (default 0); the merged "
                           "output stays byte-identical to a clean run, "
                           "and exhausted retries salvage the completed "
                           "slices into a --resume checkpoint; requires "
                           "--shards")
    scan.add_argument("--chaos-spec", metavar="SPEC", default=None,
                      help="seeded fault injector for resilience drills: "
                           "a JSON file path or inline JSON (see "
                           "docs/robustness.md for the spec format); "
                           "kills shard workers at slice boundaries; "
                           "requires --shards")

    serve = sub.add_parser(
        "serve",
        help="run the traceroute-as-a-service daemon (docs/service.md)")
    _request_flags(serve, "prefixes", "seed")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=4792,
                       help="TCP port (0 picks a free one; default 4792)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve on a Unix-domain socket instead of TCP")
    serve.add_argument("--cache-size", type=_nonneg_int, default=None,
                       metavar="N",
                       help="LRU result-cache capacity in traces "
                            "(0 disables caching)")
    serve.add_argument("--telemetry", action="store_true",
                       help="enable service observability (request ids, "
                            "latency histograms, the metrics/health "
                            "control ops); implied by --trace and "
                            "--metrics-out")
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="write per-request span trees as JSONL "
                            "(implies --telemetry)")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the final metrics snapshot on "
                            "shutdown (metrics-report compatible; "
                            "implies --telemetry)")
    serve.add_argument("--slow-ms", type=_nonneg_float, default=None,
                       metavar="MS",
                       help="wall-latency threshold for the slow-request "
                            "log (0 logs every request; default 500)")
    serve.add_argument("--default-deadline-ms", type=_positive_float,
                       default=None, metavar="MS",
                       help="bound every request that does not carry its "
                            "own deadline_ms; expired requests get a "
                            "structured deadline_exceeded error "
                            "(default: no deadline)")
    serve.add_argument("--max-inflight", type=_positive_int, default=None,
                       metavar="N",
                       help="admit at most N concurrent trace streams; "
                            "overflow beyond the queue is shed with a "
                            "structured 'overloaded' error (default: "
                            "unlimited)")
    serve.add_argument("--max-queued", type=_nonneg_int, default=0,
                       metavar="N",
                       help="requests allowed to wait for an admission "
                            "slot before shedding starts (default 0; "
                            "only meaningful with --max-inflight)")
    serve.add_argument("--drain-seconds", type=_nonneg_float, default=5.0,
                       metavar="S",
                       help="graceful-shutdown window: in-flight traces "
                            "get S seconds to finish after SIGTERM or "
                            "the shutdown op before being cancelled "
                            "(default 5)")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running daemon "
             "(polls stats/health/metrics)")
    top.add_argument("--host", default="127.0.0.1",
                     help="daemon TCP address (default 127.0.0.1)")
    top.add_argument("--port", type=int, default=4792,
                     help="daemon TCP port (default 4792)")
    top.add_argument("--socket", metavar="PATH", default=None,
                     help="connect over a Unix-domain socket instead")
    top.add_argument("--interval", type=_positive_float, default=1.0,
                     help="seconds between redraws (default 1.0)")
    top.add_argument("--iterations", type=_nonneg_int, default=0,
                     metavar="N",
                     help="render N frames then exit (0 = until ^C; "
                          "useful for CI smokes)")
    top.add_argument("--no-clear", action="store_true",
                     help="never redraw in place; print sequential "
                          "frames (the non-TTY default)")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("id", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--prefixes", type=_positive_int, default=None,
                            help="override REPRO_BENCH_PREFIXES")

    sub.add_parser("list", help="list available experiments")

    report = sub.add_parser(
        "metrics-report",
        help="summarize one metrics snapshot or diff two")
    report.add_argument("metrics", metavar="FILE",
                        help="metrics JSON written by scan --metrics-out")
    report.add_argument("baseline", metavar="BASELINE", nargs="?",
                        default=None,
                        help="second snapshot to diff against (optional)")
    report.add_argument("--changed-only", action="store_true",
                        help="when diffing, show only rows whose value "
                             "differs")
    report.add_argument("--exposition", action="store_true",
                        help="render the snapshot as Prometheus text "
                             "exposition instead of a table")

    diff = sub.add_parser(
        "scan-diff",
        help="join two scans (event logs or --output result files) per "
             "prefix and attribute every divergence to a cause")
    diff.add_argument("a", metavar="A",
                      help="first input: scan --events log or --output "
                           "result JSON")
    diff.add_argument("b", metavar="B",
                      help="second input (the faulted run, when diffing "
                           "clean vs faulted)")
    _request_flags(diff.add_argument_group(
        "fault model of run B",
        "as passed to scan; must match it to attribute fault draws"),
        "loss", "blackout", "fault_seed")
    diff.add_argument("--json", action="store_true",
                      help="print divergences as JSON")
    return parser


def _build_telemetry(args: argparse.Namespace):
    """Construct the observability bundle when any telemetry flag is set;
    ``None`` otherwise so every engine stays on its zero-overhead path."""
    if (args.metrics_out is None and args.trace is None
            and args.progress is None and args.events is None):
        return None
    from .obs import Telemetry

    return Telemetry.create(trace_path=args.trace,
                            progress_interval=args.progress,
                            events_path=args.events,
                            events_sample=args.events_sample,
                            events_ring=args.events_ring)


def _scan_flag_error(message: str) -> "SystemExit":
    """Cross-flag validation failure: argparse-style message, exit 2."""
    print(f"flashroute-sim scan: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _validate_shard_flags(args: argparse.Namespace) -> None:
    """Cross-field checks argparse types can't express (exit code 2).

    :class:`~repro.api.ScanRequest` enforces the same shard shape for
    every caller; these run first so the CLI's messages stay spelled in
    flags."""
    if args.shard_index is not None and args.shards is None:
        raise _scan_flag_error(
            "--shard-index requires --shards N (the worker count the "
            "index selects from)")
    if args.shards is not None:
        if args.shard_index is not None and args.shard_index >= args.shards:
            raise _scan_flag_error(
                f"--shard-index must be < --shards "
                f"({args.shard_index} >= {args.shards})")
        if args.shards > args.shard_slices:
            raise _scan_flag_error(
                f"--shards ({args.shards}) must not exceed --shard-slices "
                f"({args.shard_slices}); extra workers would idle — raise "
                f"--shard-slices or lower --shards")
    if getattr(args, "slice_retries", 0) and args.shards is None:
        raise _scan_flag_error(
            "--slice-retries requires --shards N (retries respawn "
            "work in the shard pool)")
    if getattr(args, "chaos_spec", None) is not None and args.shards is None:
        raise _scan_flag_error(
            "--chaos-spec requires --shards N (the injector kills "
            "shard workers at slice boundaries)")


def _scan_to_json(result: ScanResult) -> str:
    payload = result.as_row()
    payload.update({
        "mismatched_quotes": result.mismatched_quotes,
        "rounds": result.rounds,
    })
    return json.dumps(payload, indent=2, sort_keys=True)


def _save_output(result: ScanResult, path: str) -> None:
    """Write ``--output`` (the parser admits only .json and .csv)."""
    from .core.output import save_json, write_hops_csv

    if path.endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write_hops_csv(result, stream)
    else:
        save_json(result, path)


def _load_resume(path: str):
    """Load ``--resume``: ``(request, state)``, the request rebuilt
    from the checkpoint's invocation record so the scan runs on the
    identical topology, faults and scanner.  Exits 2 (via SystemExit) on
    any unusable file."""
    from .core.resilience import CheckpointError, load_checkpoint

    try:
        document = load_checkpoint(path)
    except (OSError, CheckpointError) as exc:
        print(f"resume: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        request = ScanRequest.from_dict(document.get("invocation"),
                                        complete=True)
    except ValueError as exc:
        print(f"resume: {path}: checkpoint carries no usable "
              f"invocation record: {exc} (written by an API caller? "
              f"rebuild the scan in code and call the engine's resume())",
              file=sys.stderr)
        raise SystemExit(2)
    return request, document["state"]


def _scan_session(args: argparse.Namespace, request: ScanRequest,
                  resume_state: Optional[dict],
                  checkpoint_path: Optional[str], hook, telemetry):
    """The one-process scan: ``(result, simnet stats)``."""
    resilience = None
    if (request.retries or request.adaptive_rate or checkpoint_path
            or hook is not None):
        from .core.resilience import ResilienceConfig

        resilience = ResilienceConfig(
            retries=request.retries,
            adaptive_rate=request.adaptive_rate,
            checkpoint_path=checkpoint_path,
            checkpoint_every=args.checkpoint_every,
            checkpoint_meta=request.to_dict(),
            round_hook=hook)
    session = Engine.from_request(request).open_session(
        request, telemetry=telemetry, resilience=resilience)
    network = session.network
    pcap_handle = None
    if args.pcap is not None:
        from .simnet.capture import CapturingNetwork

        pcap_handle = open(args.pcap, "wb")
        session.network = network = CapturingNetwork(network, pcap_handle)
    try:
        if resume_state is not None:
            result = session.resume(resume_state)
        else:
            result = session.run()
    finally:
        if pcap_handle is not None:
            pcap_handle.close()
    if telemetry is not None:
        telemetry.record_network(network)
        if args.metrics_out is not None:
            telemetry.registry.save(args.metrics_out)
    return result, network.stats()


def _scan_sharded(args: argparse.Namespace, request: ScanRequest,
                  resume_state: Optional[dict],
                  checkpoint_path: Optional[str], hook):
    """The ``--shards N`` scan: slice, fan out, merge, and write the
    merged telemetry files; returns the
    :class:`~repro.core.sharding.ShardedOutcome`.  The merged result,
    metrics snapshot and event log are byte-identical for every worker
    count (see docs/scaling.md)."""
    from .core.sharding import ShardPlan, run_sharded_scan

    events_format = None
    if args.events is not None:
        events_format = ("binary" if args.events.endswith(".bin")
                         else "jsonl")
    plan = ShardPlan.from_request(
        request,
        collect_metrics=args.metrics_out is not None,
        events_format=events_format,
        events_sample=args.events_sample, events_ring=args.events_ring,
        collect_trace=args.trace is not None,
        pcap_base=args.pcap,
        heartbeat_interval=args.progress)

    chaos = None
    if args.chaos_spec is not None:
        from .testing.chaos import ChaosError, load_chaos_spec

        try:
            chaos = load_chaos_spec(args.chaos_spec)
        except ChaosError as exc:
            raise _scan_flag_error(f"--chaos-spec: {exc}")

    salvage_path = None
    if (args.slice_retries or chaos is not None) \
            and checkpoint_path is None:
        # Exhausted retries must leave something resumable even when
        # the user never asked for checkpoints: derive a salvage file
        # next to the output.
        if args.output is not None:
            salvage_path = os.path.splitext(args.output)[0] \
                + ".salvage.ckpt"
        else:
            salvage_path = "flashroute-scan.salvage.ckpt"

    progress_view = None
    if args.progress is not None:
        from .obs.shardobs import ShardProgressView

        # args.progress is the reporting interval: virtual seconds for
        # the workers' heartbeat throttle, wall seconds for the parent's
        # render throttle (the parent has no virtual clock).
        progress_view = ShardProgressView(
            slices=request.shard_slices,
            workers=request.shards if request.shard_index is None else 1,
            interval=args.progress)

    outcome = run_sharded_scan(
        plan,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
        resume_state=resume_state,
        slice_hook=hook,
        progress=progress_view,
        slice_retries=args.slice_retries,
        chaos=chaos,
        salvage_path=salvage_path)

    if args.metrics_out is not None:
        from .obs.metrics import save_snapshot
        from .obs.shardobs import shard_wall_report

        # The per-slice wall-clock accounting (pids, CPU/wall seconds)
        # rides in the snapshot's quarantined wall section, keeping the
        # deterministic sections invariant in the worker count.
        save_snapshot(outcome.metrics_snapshot, args.metrics_out,
                      extra_wall={"shard":
                                  shard_wall_report(outcome.slice_stats)})
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as stream:
            stream.write(outcome.trace_payload)
    if args.events is not None:
        payload = outcome.events_payload
        if events_format == "binary":
            with open(args.events, "wb") as stream:
                stream.write(payload)
        else:
            with open(args.events, "w", encoding="utf-8") as stream:
                stream.write(payload)
    return outcome


def _run_scan(args: argparse.Namespace) -> int:
    from .core.resilience import CheckpointError

    _validate_shard_flags(args)
    resume_state = None
    if args.resume is not None:
        request, resume_state = _load_resume(args.resume)
    else:
        request = ScanRequest.from_args(args)
    # Resumed scans keep checkpointing to the file they came from, so
    # interrupt → resume chains need no extra flags.
    checkpoint_path = (args.checkpoint if args.checkpoint is not None
                       else args.resume)
    hook = None
    if args.interrupt_after_round is not None:
        limit = args.interrupt_after_round

        def hook(boundaries: int) -> None:
            if boundaries >= limit:
                raise KeyboardInterrupt

    outcome = None
    telemetry = None
    try:
        if request.shards is not None:
            # Imported here: a one-process scan never loads the pool.
            from .core.sharding import ShardError

            try:
                outcome = _scan_sharded(args, request, resume_state,
                                        checkpoint_path, hook)
            except ShardError as exc:
                print(f"scan: {exc}", file=sys.stderr)
                return 1
            result, stats = outcome.result, outcome.simnet_stats
        else:
            telemetry = _build_telemetry(args)
            result, stats = _scan_session(args, request, resume_state,
                                          checkpoint_path, hook, telemetry)
    except CheckpointError as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        saved = getattr(exc, "checkpoint_path", None)
        if saved is not None:
            print(f"interrupted: checkpoint written to {saved} "
                  f"(continue with --resume {saved})", file=sys.stderr)
        else:
            print("interrupted: no checkpoint (pass --checkpoint FILE "
                  "to make scans resumable)", file=sys.stderr)
        return 130
    finally:
        if telemetry is not None:
            telemetry.close()

    faulted = bool(request.loss or request.blackout)
    if faulted:
        # Fault-injection runs carry the simulator's cache/fault counters
        # with the result (as_row columns + the human summary line below).
        result.attach_simnet_stats(stats)
    if args.output is not None:
        _save_output(result, args.output)
    if args.json:
        print(_scan_to_json(result))
        return 0
    print(result.summary())
    print(f"  responses={result.responses:,} "
          f"mismatched={result.mismatched_quotes:,} "
          f"probes/target={result.probes_per_target():.1f}")
    if faulted:
        print(f"  holes={result.route_holes():,} "
              f"duplicates={result.duplicate_responses:,}")
        cache = stats["route_cache"]
        fault_stats = stats.get("faults")
        print(f"  cache: hits={cache['hits']:,} "
              f"misses={cache['misses']:,}")
        if fault_stats is not None:
            print(f"  faults: probes_lost={fault_stats['probes_lost']:,} "
                  f"responses_lost={fault_stats['responses_lost']:,} "
                  f"blackout_drops={fault_stats['blackout_drops']:,} "
                  f"duplicates_injected="
                  f"{fault_stats['duplicates_injected']:,}")
    if outcome is not None:
        shard_note = (f"worker {request.shard_index} of {request.shards}"
                      if request.shard_index is not None
                      else f"{request.shards} workers")
        print(f"  shards: {shard_note}, "
              f"{outcome.slices_total} slices"
              + (f" ({outcome.slices_resumed} resumed)"
                 if outcome.slices_resumed else ""))
    elif args.pcap is not None:
        print(f"  pcap: {args.pcap}")
    if args.output is not None:
        print(f"  saved: {args.output}")
    if args.metrics_out is not None:
        print(f"  metrics: {args.metrics_out}")
    if args.trace is not None:
        print(f"  trace: {args.trace}"
              + (f" (merged span forest, {outcome.slices_total} roots)"
                 if outcome is not None else ""))
    if outcome is not None and outcome.pcap_paths:
        paths = outcome.pcap_paths
        print(f"  pcap: {len(paths)} per-slice captures "
              f"{paths[0]} .. {paths[-1]} "
              f"(merge externally, e.g. mergecap -w {args.pcap})")
    if args.events is not None:
        print(f"  events: {args.events}")
    if args.checkpoint is not None and os.path.exists(args.checkpoint):
        print(f"  checkpoint: {args.checkpoint}")
    return 0


def _build_service_telemetry(args: argparse.Namespace):
    """Observability bundle for ``serve``: built when any telemetry flag
    is set, ``None`` otherwise so the default daemon stays on the
    zero-overhead, byte-identical path."""
    if (not args.telemetry and args.trace is None
            and args.metrics_out is None and args.slow_ms is None):
        return None
    from .service.obs import DEFAULT_SLOW_MS, ServiceTelemetry

    return ServiceTelemetry.create(
        trace_path=args.trace,
        slow_ms=args.slow_ms if args.slow_ms is not None
        else DEFAULT_SLOW_MS)


def _run_serve(args: argparse.Namespace) -> int:
    from .service import daemon

    request = ScanRequest(prefixes=args.prefixes, seed=args.seed)
    cache_size = (args.cache_size if args.cache_size is not None
                  else daemon.DEFAULT_CACHE_SIZE)
    telemetry = _build_service_telemetry(args)
    try:
        service = daemon.serve(request, host=args.host, port=args.port,
                               socket_path=args.socket,
                               cache_size=cache_size,
                               telemetry=telemetry,
                               metrics_out=args.metrics_out,
                               default_deadline_ms=args.default_deadline_ms,
                               max_inflight=args.max_inflight,
                               max_queued=args.max_queued,
                               drain_seconds=args.drain_seconds)
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    stats = service.stats()
    print(f"serve: shut down after {stats['requests']} requests "
          f"({stats['traces_started']} traces, {stats['cache_hits']} "
          f"cache hits, {stats['coalesced']} coalesced)")
    if args.metrics_out is not None and telemetry is not None:
        print(f"  metrics: {args.metrics_out}")
    if args.trace is not None:
        print(f"  trace: {args.trace}")
    return 0


def _run_top(args: argparse.Namespace) -> int:
    from .service.top import run_top

    return run_top(host=args.host, port=args.port,
                   socket_path=args.socket, interval=args.interval,
                   iterations=args.iterations,
                   clear=False if args.no_clear else None)


def _run_metrics_report(args: argparse.Namespace) -> int:
    from .obs.report import metrics_report

    try:
        report = metrics_report(args.metrics, args.baseline,
                                changed_only=args.changed_only,
                                exposition=args.exposition)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"metrics-report: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _run_scan_diff(args: argparse.Namespace) -> int:
    from .obs.scandiff import (diff_views, divergences_to_json, load_view,
                               render_scan_diff)

    fault_model = None
    if args.loss or args.blackout:
        fault_model = ScanRequest(loss=args.loss, blackout=args.blackout,
                                  fault_seed=args.fault_seed).fault_model()
    try:
        view_a = load_view(args.a)
        view_b = load_view(args.b)
        divergences = diff_views(view_a, view_b, fault_model)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"scan-diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(divergences_to_json(divergences), indent=2,
                         sort_keys=True))
    else:
        print(render_scan_diff(view_a, view_b, divergences))
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    context = ExperimentContext.for_bench(args.prefixes)
    outcome = _EXPERIMENTS[args.id](context)
    render = getattr(outcome, "render", None)
    print(render() if callable(render) else outcome)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "scan":
        return _run_scan(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "top":
        return _run_top(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "metrics-report":
        return _run_metrics_report(args)
    if args.command == "scan-diff":
        return _run_scan_diff(args)
    if args.command == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
