"""The serve workloads: ``serve_fresh`` and ``serve_hit``.

The daemon is ``python -m repro serve`` in a process of its own; the
load generator is this process — one thread, ``clients`` persistent
``DaemonClient`` connections, closed loop (a connection sends its next
request only when the previous reply is complete).  The generator never
shares an event loop with the daemon, so a request's latency is the
daemon's and the transport's, not the generator's own queue.

One repeat is one burst of ``burst`` requests.  ``serve_fresh`` draws
every key new, so each request walks a ``TraceSession`` and stores the
result (the 1024-entry cache evicts in steady state); ``serve_hit``
draws from a working set filled beforehand, so no request touches the
network.  The seed draws the keys; the topology is fixed (see
``spec.SERVE_TOPOLOGY_SEED``).  An in-process twin of the daemon's engine
supplies the expected answers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, perf_counter_ns, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Engine, ScanRequest, TraceRequest, TraceSession
from repro.net.addr import int_to_ip, ip_to_int
from repro.service.client import DaemonClient
from repro.service.daemon import ServiceError

from . import micro
from .spans import SpanRecorder
from .spec import (GENERATOR_BOUND_SHARE, LATENCY_LIMIT_MS, OUT_DIR, ROOT,
                   SERVE_TOPOLOGY_SEED, SETUPS, SRC, Tally, micro_seconds,
                   percentile, summary, untraced_budget)

#: Flows a key may carry (the daemon's per-flow load balancers see
#: distinct 5-tuples per flow).
FLOWS = 8

#: One fresh record in this many is re-derived in process and compared.
FRESH_SAMPLE = 50

#: Keys of the in-process micro-benchmarks (must fit the cache, and stay
#: inside one route epoch at one virtual second per fresh trace).
MICRO_KEYS = 256

STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0

Key = Tuple[int, int]


def payload_of(key: Key) -> Dict[str, object]:
    return {"destination": int_to_ip(key[0]), "flow": key[1]}


class KeyStream:
    """Distinct ``(destination, flow)`` keys inside the daemon's address
    space, a pure function of the seed."""

    def __init__(self, engine: Engine, seed: int) -> None:
        self._rng = random.Random(seed)
        self._base = engine.topology.base_prefix << 8
        self._span = engine.topology.num_prefixes << 8
        self._seen: set = set()

    def take(self, count: int) -> List[Key]:
        keys: List[Key] = []
        while len(keys) < count:
            key = (self._base + self._rng.randrange(self._span),
                   self._rng.randrange(FLOWS))
            if key not in self._seen:
                self._seen.add(key)
                keys.append(key)
        return keys

    @property
    def issued(self) -> int:
        return len(self._seen)

    def choose(self, keys: Sequence[Key], count: int) -> List[Key]:
        """``count`` draws, with repetition, from a working set."""
        return [keys[self._rng.randrange(len(keys))] for _ in range(count)]


class Daemon:
    """``python -m repro serve`` as a child process on a Unix socket.

    The socket path is relative to the repository root (the generator's
    working directory, see ``run.py``): a checkout may sit under a path
    longer than ``sun_path`` allows.
    """

    def __init__(self, params: Dict[str, object], directory: str,
                 cpu: Optional[int] = None) -> None:
        self.socket_path = os.path.join(os.path.relpath(directory, ROOT),
                                        "daemon.sock")
        path = os.pathsep.join(
            [str(SRC)] + [entry for entry in
                          [os.environ.get("PYTHONPATH")] if entry])
        start = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--prefixes", str(params["prefixes"]),
             "--seed", str(SERVE_TOPOLOGY_SEED),
             "--socket", self.socket_path,
             "--cache-size", str(params["cache_size"])],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True)
        try:
            if cpu is not None:
                os.sched_setaffinity(self.process.pid, {cpu})
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        STARTUP_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(
                    f"daemon did not come up (said {line!r})")
        except BaseException:
            self.kill()
            raise
        #: spawn -> "listening on" line.
        self.setup_s = perf_counter() - start

    def exit_code(self) -> Optional[int]:
        """Wait for the daemon to exit after a ``shutdown`` op."""
        try:
            return self.process.wait(SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone and reaped (no-op once it is)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


async def _shutdown(socket_path: str) -> None:
    async with DaemonClient(socket_path=socket_path) as client:
        await client.control("shutdown")


def pin_generator() -> Optional[int]:
    """Pin this process to its first usable core and return the second,
    for the daemon: two busy processes that the scheduler keeps moving
    between two cores measure the scheduler.  ``None`` (nothing pinned)
    on a host with fewer than two usable cores."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def setup_once(params: Dict[str, object], directory: str,
               cpu: Optional[int]) -> float:
    """Spawn, wait for the listening line, shut down; the set-up time."""
    daemon = Daemon(params, directory, cpu)
    try:
        asyncio.run(_shutdown(daemon.socket_path))
        if daemon.exit_code() != 0:
            raise RuntimeError("daemon did not exit 0 on shutdown")
    finally:
        daemon.kill()
    return daemon.setup_s


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #

def _hops_match(hops: List[dict], expected: List[dict]) -> bool:
    """Streamed ``hop`` records against a trace's ``hops`` list."""
    if len(hops) != len(expected):
        return False
    return all({"type": "hop", **want} == got
               for got, want in zip(hops, expected))


def check_terminal(terminal: dict, cache: str) -> Optional[str]:
    if terminal.get("type") != "done":
        return (f"terminal record is {terminal.get('type')!r} "
                f"({terminal.get('code') or terminal.get('error')})")
    if terminal.get("cache") != cache:
        return f"answered as cache {terminal.get('cache')!r}, not {cache!r}"
    return None


def check_hit(hops: List[dict], terminal: dict,
              filled: Tuple[List[dict], dict]) -> Optional[str]:
    """A hit must replay the fill-phase trace of its key exactly."""
    reason = check_terminal(terminal, "hit")
    if reason is not None:
        return reason
    filled_hops, filled_terminal = filled
    if hops != filled_hops or terminal["trace"] != filled_terminal["trace"]:
        return "hit differs from the fill-phase trace of its key"
    return None


def check_fresh(hops: List[dict], terminal: dict,
                engine: Optional[Engine] = None) -> Optional[str]:
    """A fresh answer must be a miss whose streamed hops are its trace's;
    with ``engine`` it must also equal the walk re-derived in process
    from the same start time."""
    reason = check_terminal(terminal, "miss")
    if reason is not None:
        return reason
    trace = terminal["trace"]
    if not _hops_match(hops, trace["hops"]):
        return "streamed hops differ from the terminal trace record"
    if engine is not None:
        request = TraceRequest.parse({"destination": trace["destination"],
                                      "flow": trace["flow"]})
        expected = TraceSession(engine, request,
                                start_time=trace["first"]).run()
        # Through JSON, as the daemon's record came.
        if json.loads(json.dumps(expected)) != trace:
            return "fresh record differs from the in-process TraceSession"
    return None


def coverage(engine: Engine, answers: Sequence[Tuple[Key, dict]]) -> float:
    """Router interfaces the answers revealed, as a share of those on
    the true routes of the requested keys (ground truth from the
    topology, at the epoch each trace ran in)."""
    truth: set = set()
    revealed: set = set()
    seen: set = set()
    for key, terminal in answers:
        if key in seen:
            continue
        seen.add(key)
        truth.update(addr for addr in engine.topology.true_route(
            key[0], flow=key[1], epoch=terminal["epoch"])
            if addr is not None)
        trace = terminal["trace"]
        hops = trace["hops"][:-1] if trace["dest_reached"] \
            else trace["hops"]
        revealed.update(ip_to_int(hop["ip"]) for hop in hops)
    return len(revealed & truth) / max(len(truth), 1)


# --------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------- #

class Answer:
    """One request as the client saw it."""

    __slots__ = ("key", "start_ns", "end_ns", "hops", "terminal", "error",
                 "connection")

    def __init__(self, key: Key, connection: int) -> None:
        self.key = key
        self.connection = connection
        self.start_ns = self.end_ns = 0
        self.hops: List[dict] = []
        self.terminal: dict = {}
        self.error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Burst:
    """What is kept of one closed-loop burst once its answers have been
    checked: timings only.  Holding on to every hop record would grow
    the generator's heap burst by burst, and its collector's passes with
    it — a slowdown of the generator, reported as the daemon's."""

    def __init__(self, answers: List[Answer], wall_s: float,
                 cpu_s: float) -> None:
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.latencies_ms = [answer.latency_ms for answer in answers]
        self.over_limit = sum(
            1 for answer in answers
            if answer.terminal.get("type") != "done"
            or answer.latency_ms > LATENCY_LIMIT_MS)
        #: Per request: (start_ns, end_ns, connection, cache, hops).
        self.calls = [(answer.start_ns, answer.end_ns, answer.connection,
                       answer.terminal.get("cache"), len(answer.hops))
                      for answer in answers]


async def _closed_loop(client: DaemonClient, connection: int,
                       keys: Sequence[Key], answers: List[Answer]) -> None:
    """One caller: next request only after the previous reply."""
    broken: Optional[str] = None
    for key in keys:
        answer = Answer(key, connection)
        answers.append(answer)
        if broken is not None:
            answer.error = broken  # the connection is gone for good
            continue
        payload = payload_of(key)
        answer.start_ns = perf_counter_ns()
        try:
            answer.hops, answer.terminal = await client.request(payload)
        except (OSError, ServiceError, ValueError) as exc:
            broken = answer.error = \
                f"connection exception: {exc.__class__.__name__}: {exc}"
        answer.end_ns = perf_counter_ns()


class Generator:
    """The load generator: one thread, closed loop, and everything it
    learned while the daemon was up."""

    def __init__(self, engine: Engine, params: Dict[str, object],
                 keys: KeyStream, tally: Tally) -> None:
        self.engine = engine
        self.params = params
        self.keys = keys
        self.tally = tally
        self.fresh = params["mode"] == "fresh"
        self.bursts: List[Burst] = []
        self.traced: Optional[Burst] = None
        #: Fill-phase answer of each working-set key (hit mode).
        self.filled: Dict[Key, Tuple[List[dict], dict]] = {}
        #: The first measured burst's keys are a pure function of the
        #: seed, so what its answers say is too.
        self.first: Dict[str, float] = {}
        self.stats: Dict[str, object] = {}
        self.ping_us = 0.0
        self.distinct_keys_sent = 0

    def _check(self, index: int, answer: Answer) -> Optional[str]:
        if answer.error is not None:
            return answer.error
        if self.fresh:
            return check_fresh(
                answer.hops, answer.terminal,
                self.engine if index % FRESH_SAMPLE == 0 else None)
        if answer.key not in self.filled:  # the fill phase itself
            self.filled[answer.key] = (answer.hops, answer.terminal)
            return check_fresh(answer.hops, answer.terminal)
        return check_hit(answer.hops, answer.terminal,
                         self.filled[answer.key])

    async def burst(self, clients: Sequence[DaemonClient],
                    keys: Sequence[Key], note_first: bool = False) -> Burst:
        """Send ``keys`` closed-loop over ``clients``; check every
        answer afterwards, outside the timed region."""
        answers: List[Answer] = []
        gc.collect()
        gc.disable()  # the generator's collector is not the daemon's cost
        try:
            cpu = process_time()
            start = perf_counter()
            await asyncio.gather(*(
                _closed_loop(client, index, keys[index::len(clients)],
                             answers)
                for index, client in enumerate(clients)))
            wall_s = perf_counter() - start
            cpu_s = process_time() - cpu
        finally:
            gc.enable()
        for index, answer in enumerate(answers):
            self.tally.record(self._check(index, answer))
        if note_first:
            self._note_first(answers)
        return Burst(answers, wall_s, cpu_s)

    def _note_first(self, answers: List[Answer]) -> None:
        done = [(answer.key, answer.terminal) for answer in answers
                if answer.terminal.get("type") == "done"]
        traces = [terminal["trace"] for _, terminal in done]
        if traces:
            self.first = {
                "requests": len(done),
                "probes_sent": statistics.fmean(
                    trace["probes"] for trace in traces),
                "virtual_s": statistics.fmean(
                    trace["last"] - trace["first"] for trace in traces),
                "interface_coverage": coverage(self.engine, done),
            }

    async def drive(self, socket_path: str, seconds: float,
                    min_repeats: int, trace: bool) -> None:
        size = self.params["burst"]
        keys = self.keys
        clients = [DaemonClient(socket_path=socket_path)
                   for _ in range(self.params["clients"])]
        try:
            for client in clients:
                await client.connect()

            working_set: List[Key] = []
            if not self.fresh:
                working_set = keys.take(self.params["working_set"])
                await self.burst(clients, working_set)  # fill

            def next_keys(count: int) -> List[Key]:
                return keys.take(count) if self.fresh \
                    else keys.choose(working_set, count)

            await self.burst(clients, next_keys(size // 4))  # warm-up
            measured = 0.0
            while measured < seconds or len(self.bursts) < min_repeats:
                done = await self.burst(clients, next_keys(size),
                                        note_first=not self.bursts)
                measured += done.wall_s
                self.bursts.append(done)
            if trace:
                self.traced = await self.burst(clients, next_keys(size))
                pings = 50 if size < 1000 else 500
                start = perf_counter()
                for _ in range(pings):
                    await clients[0].control("ping")
                self.ping_us = (perf_counter() - start) / pings * 1e6

            self.distinct_keys_sent = keys.issued
            self.stats = await clients[0].control("stats")
            await clients[0].control("shutdown")
        finally:
            for client in clients:
                await client.close()


def run(name: str, params: Dict[str, object], seed: int, seconds: float,
        trace: bool, smoke: bool) -> Dict[str, object]:
    tally = Tally()
    engine = Engine.from_request(ScanRequest(prefixes=params["prefixes"],
                                             seed=SERVE_TOPOLOGY_SEED))
    generator = Generator(engine, params, KeyStream(engine, seed), tally)
    daemon_cpu = pin_generator()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
    try:
        daemon = Daemon(params, directory, daemon_cpu)
        try:
            asyncio.run(generator.drive(
                daemon.socket_path,
                *untraced_budget(params, seconds, trace), trace))
            exit_code = daemon.exit_code()
        finally:
            daemon.kill()
        daemon_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setup_s = [daemon.setup_s] + [
            setup_once(params, directory, daemon_cpu)
            for _ in range(SETUPS - 1)]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    # Honesty: a workload that silently stopped exercising the path it
    # is named for cannot report a number.
    stats = generator.stats
    if exit_code != 0:
        tally.fail_all(f"daemon exited {exit_code!r} after shutdown")
    elif stats["traces_started"] != generator.distinct_keys_sent:
        tally.fail_all(
            f"daemon started {stats['traces_started']} traces for "
            f"{generator.distinct_keys_sent} distinct keys: the workload "
            f"is not exercising the {params['mode']} path")
    elif stats["errors"] or stats["shed"]:
        tally.fail_all(f"daemon counted {stats['errors']} errors and "
                       f"{stats['shed']} shed requests")

    bursts = generator.bursts
    pooled = [latency for burst in bursts for latency in burst.latencies_ms]
    medians = [statistics.median(burst.latencies_ms) for burst in bursts]
    rates = [len(burst.latencies_ms) / burst.wall_s for burst in bursts]
    gen_cpu = [burst.cpu_s / burst.wall_s for burst in bursts]
    first = generator.first
    labels = []
    if statistics.median(gen_cpu) >= GENERATOR_BOUND_SHARE:
        labels.append("generator_bound")
    outcome: Dict[str, object] = {
        "tally": tally,
        "labels": labels,
        "parameters": {"repeats": len(bursts), "warmup_bursts": 1,
                       "setups": len(setup_s), "loop": "closed",
                       "generator_threads": 1, "requests": len(pooled),
                       "daemon_cpu": daemon_cpu},
        "counts": {"first_burst_requests": first.get("requests", 0),
                   # Rounded: a trace's start time depends on how the
                   # two connections interleave, and with it the last
                   # bits of (last - first).
                   "virtual_trace_s": round(first.get("virtual_s", 0.0),
                                            6)},
        # Keyed by the metric each spread belongs to.
        "samples": {"setup_s": summary(setup_s),
                    "op_p50_ms": summary(medians),
                    "throughput_per_s": summary(rates),
                    "service.client.gen_cpu_share": summary(gen_cpu)},
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": statistics.median(medians),
            "throughput_per_s": statistics.median(rates),
            "peak_rss_mb": daemon_rss_mb,
            "probes_sent": first.get("probes_sent", 0.0),
            "interface_coverage": first.get("interface_coverage", 0.0),
        },
    }
    if trace:
        outcome["metrics"].update(_per_layer(
            name, generator,
            p50_ms=statistics.median(medians),
            p99_ms=percentile(pooled, 99),
            over_limit_share=(sum(burst.over_limit for burst in bursts)
                              / len(pooled)),
            gen_cpu_share=statistics.median(gen_cpu),
            min_seconds=micro_seconds(smoke)))
    return outcome


def _per_layer(name: str, generator: Generator, p50_ms: float,
               p99_ms: float, over_limit_share: float, gen_cpu_share: float,
               min_seconds: float) -> Dict[str, float]:
    # The spans of the traced burst: one per request, client side.  The
    # daemon is another process; its share of a request is the in-process
    # handle_* time below, the rest is transport.
    recorder = SpanRecorder(name)
    repeat = len(generator.bursts) + 1
    traced = generator.traced
    began = min(call[0] for call in traced.calls if call[0])
    root = recorder.add("burst", "bench", began,
                        began + int(traced.wall_s * 1e9),
                        f"{name}/r{repeat}", repeat,
                        requests=len(traced.calls))
    for index, (start_ns, end_ns, connection, cache, hops) \
            in enumerate(traced.calls):
        recorder.add("DaemonClient.request", "service.client", start_ns,
                     end_ns, f"{name}/r{repeat}/q{index}", repeat, root,
                     connection=connection, cache=cache, hops=hops)
    recorder.write(OUT_DIR / f"trace-{name}.jsonl")

    engine, params = generator.engine, generator.params
    micro_keys = generator.keys.take(MICRO_KEYS)
    handle_fresh_us, handle_hit_us = micro.handle_trace(
        engine, [payload_of(key) for key in micro_keys],
        params["cache_size"], min_seconds)
    stats = generator.stats
    metrics = {
        "bench.traced_wall_s": traced.wall_s,
        "bench.trace_overhead_ratio": traced.wall_s / statistics.median(
            burst.wall_s for burst in generator.bursts),
        "service.daemon.handle_fresh_us": handle_fresh_us,
        "service.daemon.handle_hit_us": handle_hit_us,
        "service.daemon.cache_hits": stats["cache_hits"],
        "service.daemon.traces_started": stats["traces_started"],
        "service.daemon.evicted_lru": stats["cache_evicted_lru"],
        "service.daemon.evicted_epoch": stats["cache_evicted_epoch"],
        "service.daemon.errors": stats["errors"],
        "service.daemon.shed": stats["shed"],
        "service.client.ping_us": generator.ping_us,
        "service.client.transport_us": p50_ms * 1e3 - (
            handle_fresh_us if generator.fresh else handle_hit_us),
        "service.client.req_p99_ms": p99_ms,
        "service.client.over_limit_share": over_limit_share,
        "service.client.gen_cpu_share": gen_cpu_share,
    }
    if generator.fresh:
        api = micro.trace_api(engine, micro_keys, min_seconds)
        metrics.update({f"api.{key}": value for key, value in api.items()})
    return metrics
