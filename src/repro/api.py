"""The public entry point: engine/session API for every scan consumer.

Three layers of callers — the CLI, the experiment drivers, and the
:mod:`repro.service` daemon — used to build scanners by hand from a
sprawl of per-engine configs (``FlashRouteConfig``/``YarrpConfig``),
:class:`~repro.core.scanner.ScannerOptions` and ad-hoc kwargs.  This
module collapses that into one request/engine/session shape:

* :class:`ScanRequest` — a single **serializable** description of a whole
  scan (tool, topology, knobs, faults, resilience, shard decomposition).
  The CLI's checkpoint invocation record, the shard workers and the
  daemon's startup configuration all round-trip through this one schema.
* :class:`TraceRequest` — a single per-destination trace (the daemon's
  request unit): ``(destination, flow)`` plus walk bounds.
* :class:`Engine` — the shared **read-only core**: one warm
  :class:`~repro.simnet.topology.Topology` and
  :class:`~repro.simnet.network.SimulatedNetwork`, reused across any
  number of sessions.
* :class:`ScanSession` / :class:`TraceSession` — all per-request state
  (network session view, scanner instance, resilience trackers,
  telemetry), created by :meth:`Engine.open_session`.  Sessions are
  independent: interleaving them over one engine never perturbs their
  outcomes (see ``SimulatedNetwork.open_session``).

Convenience one-liners::

    from repro import api
    result = api.scan(api.ScanRequest(tool="flashroute-16", prefixes=256))

    engine = api.Engine.from_request(request)
    session = engine.open_session(request)
    result = session.run()

    for hop in engine.open_session(api.TraceRequest.parse(
            {"destination": "198.51.0.7", "flow": 3})).stream():
        print(hop)

The per-engine constructors (:func:`flashroute` etc.) are for callers
that need a hand-built per-engine config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import (Dict, Iterator, List, Optional, get_args,
                    get_type_hints)

from .core.resilience import CheckpointError, ResilienceConfig
from .core.results import ScanResult
from .core.scanner import ScannerOptions, create_scanner, scanner_names
from .net.addr import int_to_ip, ip_to_int
from .net.icmp import ResponseKind
from .simnet.config import TopologyConfig
from .simnet.engine import VirtualClock
from .simnet.faults import FaultModel
from .simnet.network import SimulatedNetwork
from .simnet.topology import Topology

__all__ = [
    "Engine",
    "ScanRequest",
    "ScanSession",
    "TraceRequest",
    "TraceSession",
    "flashroute",
    "open_session",
    "scamper",
    "scan",
    "serve",
    "traceroute_scanner",
    "yarrp",
]


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ScanRequest:
    """One serializable description of a whole scan.

    This is the schema the CLI's flags, the checkpoint invocation record,
    the shard workers' plans and the daemon's startup configuration all
    share: :meth:`to_dict`/:meth:`from_dict` round-trip losslessly
    (pinned by tests), so a request written into a checkpoint today is
    the same object a resume or a shard worker rebuilds tomorrow.
    """

    tool: str = "flashroute-16"
    prefixes: int = 1024
    seed: int = 20201027
    split_ttl: Optional[int] = None
    gap_limit: Optional[int] = None
    preprobe: Optional[str] = None
    rate: Optional[float] = None
    loss: float = 0.0
    blackout: float = 0.0
    fault_seed: int = 0
    retries: int = 0
    adaptive_rate: bool = False
    shards: Optional[int] = None
    shard_index: Optional[int] = None
    shard_slices: int = 16

    def __post_init__(self) -> None:
        if self.prefixes <= 0:
            raise ValueError(f"prefixes must be positive, got "
                             f"{self.prefixes}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if not 0.0 <= self.blackout < 1.0:
            raise ValueError(f"blackout must be in [0, 1), got "
                             f"{self.blackout}")
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be a positive finite number, got "
                             f"{self.rate}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.tool not in scanner_names():
            raise ValueError(
                f"unknown tool {self.tool!r} (known: "
                f"{', '.join(scanner_names())})")
        if self.shard_slices < 1:
            raise ValueError(f"shard_slices must be >= 1, got "
                             f"{self.shard_slices}")
        if self.shards is None:
            if self.shard_index is not None:
                raise ValueError(
                    "shard_index needs shards (the worker count the "
                    "index selects from)")
        elif not 1 <= self.shards <= self.shard_slices:
            raise ValueError(
                f"shards must be in [1, shard_slices={self.shard_slices}]"
                f", got {self.shards}")
        elif self.shard_index is not None \
                and not 0 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index must be in [0, {self.shards}), got "
                f"{self.shard_index}")

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict; the exact field set, nothing more."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  complete: bool = False) -> "ScanRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Unknown keys always raise (a request schema mismatch must never
        pass silently); with ``complete=True`` missing keys raise too —
        the checkpoint-resume path uses this to reject invocation
        records written by an incompatible version.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"scan request must be a JSON object, got "
                             f"{type(payload).__name__}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown scan request field(s): {', '.join(unknown)}")
        if complete:
            missing = sorted(known - set(payload))
            if missing:
                raise ValueError(
                    f"scan request record is missing field(s): "
                    f"{', '.join(missing)}")
        # The record comes from a file anyone can edit: hold each value
        # to its field's declared type — exactly, so a bool is not an
        # int, except that JSON's one number type makes an int a valid
        # float — and name a wrong one here, where it is a ValueError,
        # rather than die of a TypeError inside __post_init__.
        hints = get_type_hints(cls)
        for spec in fields(cls):
            kinds = get_args(hints[spec.name]) or (hints[spec.name],)
            if float in kinds:
                kinds += (int,)
            if spec.name in payload \
                    and type(payload[spec.name]) not in kinds:
                raise ValueError(
                    f"scan request field {spec.name!r} must be "
                    f"{spec.type}, got {payload[spec.name]!r}")
        return cls(**payload)

    @classmethod
    def from_args(cls, args) -> "ScanRequest":
        """Build a request from the CLI's parsed ``scan`` namespace
        (every field is an ``argparse`` destination of the same name)."""
        return cls(**{spec.name: getattr(args, spec.name)
                      for spec in fields(cls)})

    # -- derived builders ------------------------------------------------

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(num_prefixes=self.prefixes, seed=self.seed)

    def fault_model(self) -> FaultModel:
        return FaultModel(probe_loss=self.loss, response_loss=self.loss,
                          blackout_fraction=self.blackout,
                          seed=self.fault_seed)

    def scanner_options(self, telemetry=None,
                        resilience: Optional[ResilienceConfig] = None
                        ) -> ScannerOptions:
        """The per-tool construction knobs this request implies.

        ``resilience`` overrides the request's own retry/adaptive-rate
        fields (the CLI passes a fully built config carrying checkpoint
        paths and hooks, which are deliberately not serializable here).
        """
        if resilience is None:
            resilience = self.resilience_config()
        return ScannerOptions(
            probing_rate=self.rate, split_ttl=self.split_ttl,
            gap_limit=self.gap_limit, preprobe=self.preprobe,
            telemetry=telemetry, resilience=resilience)

    def resilience_config(self) -> Optional[ResilienceConfig]:
        if not (self.retries or self.adaptive_rate):
            return None
        return ResilienceConfig(retries=self.retries,
                                adaptive_rate=self.adaptive_rate)


#: Default walk bounds of a per-destination trace (the service unit).
TRACE_MAX_TTL = 32
TRACE_GAP_LIMIT = 5
#: Virtual seconds between a trace's probes (classic traceroute pacing).
TRACE_PROBE_GAP = 0.02
#: Source-port base of service traces; the flow id offsets it, wrapping
#: inside the 16-bit port space (the load-balancer class itself travels
#: separately, as ``flow=``).
_TRACE_PORT_BASE = 33434


@dataclass(frozen=True)
class TraceRequest:
    """One per-destination trace request — the daemon's request unit."""

    destination: int
    flow: int = 0
    max_ttl: int = TRACE_MAX_TTL
    gap_limit: int = TRACE_GAP_LIMIT
    probe_gap: float = TRACE_PROBE_GAP

    def __post_init__(self) -> None:
        if not 0 <= self.destination <= 0xFFFFFFFF:
            raise ValueError(f"destination {self.destination!r} is not an "
                             f"IPv4 address")
        if not 0 <= self.flow <= 0xFFFF:
            raise ValueError(f"flow must be in [0, 65535], got "
                             f"{self.flow}")
        if not 1 <= self.max_ttl <= 255:
            raise ValueError(f"max_ttl must be in [1, 255], got "
                             f"{self.max_ttl}")
        if self.gap_limit < 1:
            raise ValueError(f"gap_limit must be >= 1, got "
                             f"{self.gap_limit}")
        if self.probe_gap <= 0:
            raise ValueError("probe_gap must be positive")

    @property
    def key(self) -> tuple:
        """The coalescing/cache identity: one probe stream per key."""
        return (self.destination, self.flow)

    @classmethod
    def parse(cls, payload: Dict[str, object]) -> "TraceRequest":
        """Build a request from wire JSON (dotted-quad or int address).

        Raises ``ValueError`` with a client-presentable message on any
        malformed input; the daemon maps that to a structured error
        record instead of dropping the connection.
        """
        if not isinstance(payload, dict):
            raise ValueError("trace request must be a JSON object")
        known = {"destination", "flow", "max_ttl", "gap_limit"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown trace request field(s): {', '.join(unknown)}")
        if "destination" not in payload:
            raise ValueError("trace request needs a 'destination'")
        destination = payload["destination"]
        if isinstance(destination, str):
            try:
                destination = ip_to_int(destination)
            except ValueError:
                raise ValueError(
                    f"destination {payload['destination']!r} is not an "
                    f"IPv4 address")
        elif not isinstance(destination, int) \
                or isinstance(destination, bool):
            raise ValueError("destination must be a dotted quad or an "
                             "integer address")
        extra = {}
        for key in ("flow", "max_ttl", "gap_limit"):
            if key in payload:
                value = payload[key]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{key} must be an integer")
                extra[key] = value
        return cls(destination=destination, **extra)


# --------------------------------------------------------------------- #
# Engine: the shared read-only core
# --------------------------------------------------------------------- #

class Engine:
    """A warm topology + network core that any number of sessions share.

    Building the topology is the expensive part of a scan; the engine
    does it once and every :meth:`open_session` call afterwards is
    cheap.  The engine itself is never probed — sessions probe their own
    :meth:`~repro.simnet.network.SimulatedNetwork.open_session` views —
    so concurrent sessions cannot perturb each other.
    """

    def __init__(self, topology_config: Optional[TopologyConfig] = None,
                 topology: Optional[Topology] = None) -> None:
        if topology is None:
            topology = Topology(topology_config if topology_config
                                is not None else TopologyConfig())
        self.topology = topology
        #: The warm core network.  Its route cache persists across
        #: sessions (a pure function of the topology), so the daemon's
        #: later traces are served from tables earlier ones built.
        self.network = SimulatedNetwork(topology)

    @classmethod
    def from_request(cls, request: ScanRequest) -> "Engine":
        return cls(request.topology_config())

    # -- address space ---------------------------------------------------

    def contains(self, destination: int) -> bool:
        """Whether an address falls inside the simulated scanned space."""
        offset = (destination >> 8) - self.topology.base_prefix
        return 0 <= offset < self.topology.num_prefixes

    def address_space(self) -> str:
        first = self.topology.base_prefix << 8
        last = ((self.topology.base_prefix
                 + self.topology.num_prefixes) << 8) - 1
        return f"{int_to_ip(first)}..{int_to_ip(last)}"

    @property
    def flap_epoch_seconds(self) -> float:
        """Length of one route-dynamics epoch (the service cache's
        invalidation clock is keyed to this)."""
        return self.topology.config.flap_epoch_seconds

    def warmth(self) -> Dict[str, object]:
        """What the warm core is holding — the readiness picture the
        service ``health`` op reports (an engine only exists once the
        topology and network are built, so ``warm`` is definitionally
        true; the outcome tables the route cache holds show how warm)."""
        cache = self.network.route_cache.stats()
        return {
            "warm": True,
            "prefixes": self.topology.num_prefixes,
            "address_space": self.address_space(),
            "route_cache_entries":
                cache["udp_tables"] + cache["tcp_tables"],
        }

    # -- sessions --------------------------------------------------------

    def open_session(self, request, telemetry=None,
                     resilience: Optional[ResilienceConfig] = None,
                     start_time: float = 0.0):
        """Create the per-request session for ``request``.

        A :class:`ScanRequest` yields a :class:`ScanSession`
        (``.run()``); a :class:`TraceRequest` yields a
        :class:`TraceSession` (``.stream()``/``.run()``).
        """
        if isinstance(request, TraceRequest):
            return TraceSession(self, request, start_time=start_time)
        if isinstance(request, ScanRequest):
            return ScanSession(self, request, telemetry=telemetry,
                               resilience=resilience)
        raise TypeError(f"expected ScanRequest or TraceRequest, got "
                        f"{type(request).__name__}")


# --------------------------------------------------------------------- #
# Sessions: all per-request state
# --------------------------------------------------------------------- #

class ScanSession:
    """One full scan over an engine: the per-request state bundle.

    Owns a private network session view (rate-limiter bins, fault
    injector, counters), a fresh scanner instance from the registry and
    the request's resilience trackers.  ``run()`` executes the scan;
    ``resume()`` continues a checkpointed one.
    """

    def __init__(self, engine: Engine, request: ScanRequest,
                 telemetry=None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        self.engine = engine
        self.request = request
        self.telemetry = telemetry
        #: The session's private network view; callers may wrap it
        #: (e.g. ``CapturingNetwork`` for ``--pcap``) before running.
        self.network = engine.network.open_session(
            faults=request.fault_model())
        self.scanner = create_scanner(
            request.tool,
            request.scanner_options(telemetry=telemetry,
                                    resilience=resilience))

    def run(self, **scan_kwargs) -> ScanResult:
        """Run the scan to completion (``scan_kwargs`` pass through to
        the tool's ``scan()`` — targets, stop sets, start TTLs)."""
        return self.scanner.scan(self.network, **scan_kwargs)

    def resume(self, state: dict) -> ScanResult:
        """Continue a checkpointed scan from its ``state`` section."""
        resume = getattr(self.scanner, "resume", None)
        if resume is None:
            raise CheckpointError(
                f"tool {self.request.tool!r} does not support "
                f"checkpoint/resume")
        return resume(self.network, state)


class TraceSession:
    """One streamed per-destination traceroute over an engine.

    The walk is the classic sequential one (probe TTL 1, wait, probe
    TTL 2, …) on the session's own virtual clock, stopping at the
    destination or after ``gap_limit`` consecutive silent hops.  Hops
    stream as Manifold-schema records (see docs/service.md); sessions
    interleave freely over one engine.
    """

    def __init__(self, engine: Engine, request: TraceRequest,
                 start_time: float = 0.0,
                 faults: Optional[FaultModel] = None) -> None:
        if not engine.contains(request.destination):
            raise ValueError(
                f"destination {int_to_ip(request.destination)} is outside "
                f"the simulated space {engine.address_space()}")
        self.engine = engine
        self.request = request
        self.network = engine.network.open_session(faults=faults)
        self.clock = VirtualClock(start_time)
        self.start_time = start_time
        self.hops: List[Dict[str, object]] = []
        self.dest_reached = False
        self.dest_distance: Optional[int] = None
        self.done = False

    def _hop_record(self, ttl: int, responder: int,
                    rtt_ms: float) -> Dict[str, object]:
        # Manifold's hop schema (manifold-tdmi.h): KEY(source,
        # destination, ttl) with the probe id in `path`.
        return {
            "ip": int_to_ip(responder),
            "ttl": ttl,
            "hop_probecount": 0,
            "path": self.request.flow,
            "source": int_to_ip(self.engine.topology.vantage_addr),
            "destination": int_to_ip(self.request.destination),
            "rtt_ms": round(rtt_ms, 3),
        }

    def stream(self) -> Iterator[Dict[str, object]]:
        """Walk the path, yielding one hop record per responding TTL.

        The generator is resumable mid-flight (the daemon interleaves
        many of them); records accumulate on :attr:`hops` so late
        subscribers can replay the prefix already streamed.
        """
        request = self.request
        network = self.network
        clock = self.clock
        dst = request.destination
        src_port = _TRACE_PORT_BASE \
            + request.flow % (0x10000 - _TRACE_PORT_BASE)
        silent = 0
        for ttl in range(1, request.max_ttl + 1):
            sent_at = clock.now
            response = network.send_probe(dst, ttl, sent_at, src_port,
                                          flow=request.flow)
            clock.advance(request.probe_gap)
            if response is None:
                silent += 1
                if silent >= request.gap_limit:
                    break
                continue
            silent = 0
            clock.advance_to(response.arrival_time)
            rtt_ms = (response.arrival_time - sent_at) * 1000.0
            if response.kind is ResponseKind.TTL_EXCEEDED:
                record = self._hop_record(ttl, response.responder, rtt_ms)
                self.hops.append(record)
                yield record
                continue
            # Unreachable family / TCP RST: the destination answered.
            record = self._hop_record(ttl, response.responder, rtt_ms)
            self.hops.append(record)
            self.dest_reached = True
            self.dest_distance = ttl
            yield record
            break
        self.done = True

    def run(self) -> Dict[str, object]:
        """Drain the walk and return the Manifold traceroute record."""
        if not self.done:
            for _ in self.stream():
                pass
        return self.result()

    def result(self) -> Dict[str, object]:
        """The Manifold-schema traceroute record for the finished walk."""
        return {
            "source": int_to_ip(self.engine.topology.vantage_addr),
            "destination": int_to_ip(self.request.destination),
            "flow": self.request.flow,
            "hops": list(self.hops),
            "hop_count": len(self.hops),
            "dest_reached": self.dest_reached,
            "dest_distance": self.dest_distance,
            "probes": self.network.probes_sent,
            "first": self.start_time,
            "last": self.clock.now,
            "ts": self.clock.now,
        }


# --------------------------------------------------------------------- #
# Module-level conveniences
# --------------------------------------------------------------------- #

def scan(request: Optional[ScanRequest] = None, telemetry=None,
         **overrides) -> ScanResult:
    """One-shot scan: build an engine for ``request`` and run it.

    ``overrides`` build a request when none is given::

        api.scan(tool="yarrp-32", prefixes=256, seed=7)

    A request with ``shards`` set runs through the sharded executor and
    returns the merged (worker-count-invariant) result; its slices run
    in worker processes, so a caller-side ``telemetry`` bundle cannot
    observe them and is refused.
    """
    if request is None:
        request = ScanRequest(**overrides)
    elif overrides:
        request = dataclasses.replace(request, **overrides)
    if request.shards is not None:
        from .core.sharding import ShardPlan, run_sharded_scan

        if telemetry is not None:
            raise ValueError(
                "a sharded scan cannot fill a caller's telemetry bundle "
                "(slices run in worker processes); build a ShardPlan "
                "with its collect_metrics/collect_trace/events_format "
                "wishes and call run_sharded_scan")
        return run_sharded_scan(ShardPlan.from_request(request)).result
    engine = Engine.from_request(request)
    return engine.open_session(request, telemetry=telemetry).run()


def open_session(request, engine: Optional[Engine] = None,
                 telemetry=None):
    """Open a session for ``request``, building a fresh engine unless
    one is supplied (reuse an engine to amortize topology construction)."""
    if engine is None:
        if isinstance(request, TraceRequest):
            raise ValueError("trace sessions need an explicit engine "
                             "(the warm core the daemon holds)")
        engine = Engine.from_request(request)
    return engine.open_session(request, telemetry=telemetry)


def serve(*args, **kwargs):
    """Run the traceroute-as-a-service daemon (see :mod:`repro.service`).

    Lazy wrapper so importing :mod:`repro.api` never pulls in asyncio
    machinery; all arguments forward to
    :func:`repro.service.daemon.serve`.
    """
    from .service.daemon import serve as _serve

    return _serve(*args, **kwargs)


# -- per-engine constructors ------------------------------------------- #
# For callers that need a hand-built per-engine config (the experiment
# drivers reproduce paper tables with knobs ScanRequest deliberately
# does not carry).

def flashroute(config=None, telemetry=None):
    """A :class:`~repro.core.prober.FlashRoute` from an explicit config."""
    from .core.prober import FlashRoute

    return FlashRoute(config, telemetry=telemetry)


def yarrp(config=None, telemetry=None):
    """A :class:`~repro.baselines.yarrp.Yarrp` from an explicit config."""
    from .baselines.yarrp import Yarrp

    return Yarrp(config, telemetry=telemetry)


def scamper(config=None, telemetry=None):
    """A :class:`~repro.baselines.scamper.Scamper` from an explicit
    config."""
    from .baselines.scamper import Scamper

    return Scamper(config, telemetry=telemetry)


def traceroute_scanner(telemetry=None, **kwargs):
    """A :class:`~repro.baselines.traceroute.TracerouteScanner`."""
    from .baselines.traceroute import TracerouteScanner

    return TracerouteScanner(telemetry=telemetry, **kwargs)
