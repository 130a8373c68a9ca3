"""The public entry point: engine/session API for every scan consumer.

Three layers of callers — the CLI, the experiment drivers, and the
:mod:`repro.service` daemon — used to build scanners by hand from a
sprawl of per-engine configs (``FlashRouteConfig``/``YarrpConfig``) and
ad-hoc kwargs.  This module collapses that into one request/engine/session
shape:

* :class:`ScanRequest` — a single **serializable** description of a whole
  scan (tool, topology, knobs, faults, resilience, shard decomposition).
  The CLI's checkpoint invocation record, the shard workers and the
  daemon's startup configuration all round-trip through this one schema,
  and the scanner registry builds every tool from it.
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
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, fields
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, get_args, get_type_hints)

from .core.config import PreprobeMode
from .core.resilience import CheckpointError, ResilienceConfig
from .core.results import ScanResult
from .core.scanner import create_scanner, scanner_names
from .net.addr import int_to_ip, ip_to_int
from .net.addr6 import int_to_ip6
from .net.icmp import ResponseKind
from .net.packets import PROTO_UDP, UDP_HEADER_LEN
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
    "scan",
]


# --------------------------------------------------------------------- #
# Field domains
# --------------------------------------------------------------------- #
# A request field declares its domain once, as the ``check`` in its
# metadata.  ``__post_init__`` runs every check for every caller; the
# readers hold outside values (a checkpoint file, a wire line) to the
# declared types first; the CLI builds each flag's ``type=`` or
# ``choices=`` from the same check.  A check takes a value of the field's
# type and raises ``ValueError`` saying what the value must be; the
# caller names the field.

def positive_int(value: int) -> None:
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")


def non_negative_int(value: int) -> None:
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")


def probability(value: float) -> None:
    if not 0.0 <= value < 1.0:  # NaN fails both comparisons
        raise ValueError(f"must be a probability in [0, 1), got {value}")


def positive_finite(value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"must be a positive finite number, got {value}")


def int_range(low: int, high: int) -> Callable[[int], None]:
    def check(value: int) -> None:
        if not low <= value <= high:
            raise ValueError(f"must be in [{low}, {high}], got {value}")
    return check


def one_of(choices: Callable[[], Sequence[str]]) -> Callable[[str], None]:
    """A choice among ``choices()``, read when checked (the scanner
    registry fills itself on first use); the CLI offers the same list as
    the flag's ``choices``."""
    def check(value: str) -> None:
        if value not in choices():
            raise ValueError(f"must be one of {', '.join(choices())}, "
                             f"got {value!r}")
    check.choices = choices
    return check


def _declare(default=dataclasses.MISSING, *, check=None, help=None,
             metavar=None):
    """A request field: its default, its domain check (``None``: any value
    of the declared type) and its ``--help`` text."""
    return dataclasses.field(default=default, metadata={
        "check": check, "help": help, "metavar": metavar})


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


class FieldSchema(NamedTuple):
    """A request class's declarations as its readers use them."""

    #: Field name -> the value types it admits, exactly: a bool is not an
    #: int, but JSON's one number type makes an int a valid float.
    types: Dict[str, Tuple[type, ...]]
    #: ``(name, check, default)`` for every checked field.  A field still
    #: holding its default is not checked: a default is in its field's
    #: domain, or is ``None`` for "the tool's own".
    checks: Tuple[Tuple[str, Callable[[object], None], object], ...]
    #: Field name -> default, in field order; ``MISSING`` where required.
    defaults: Dict[str, object]
    #: Fields without a default.
    required: Tuple[str, ...]


def _declared(cls):
    """Class decorator: read ``cls``'s annotations and field metadata into
    ``cls.schema``, a :class:`FieldSchema`, once, when the class is
    defined (``TraceRequest.parse`` runs on every daemon request)."""
    hints = get_type_hints(cls)
    types, checks, defaults = {}, [], {}
    for spec in fields(cls):
        if spec.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{spec.name}: a request field takes a plain "
                            f"default, not a default_factory")
        kinds = get_args(hints[spec.name]) or (hints[spec.name],)
        types[spec.name] = kinds + (int,) if float in kinds else kinds
        if spec.metadata["check"] is not None:
            checks.append((spec.name, spec.metadata["check"], spec.default))
        defaults[spec.name] = spec.default
    cls.schema = FieldSchema(
        types, tuple(checks), defaults,
        tuple(name for name, default in defaults.items()
              if default is dataclasses.MISSING))
    return cls


def _check_fields(request) -> None:
    """Run every field check of ``request`` (from its ``__post_init__``)."""
    values = request.__dict__
    for name, check, default in request.schema.checks:
        value = values[name]
        if value is not default:
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None


def _build(cls, payload, what: str):
    """``cls(**payload)`` for a ``payload`` from outside — a file anyone
    can edit, a wire line — held to ``cls``'s declaration first.

    It must be a JSON object naming only ``cls``'s fields and every field
    without a default, each value of exactly a declared type.  A wrong
    one is named here, as a ``ValueError``, rather than dying of a
    ``TypeError`` inside ``__post_init__``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(payload).__name__}")
    types, _, defaults, required = cls.schema
    for name, value in payload.items():
        kinds = types.get(name)
        if kinds is None:
            unknown = sorted(payload.keys() - types.keys())
            raise ValueError(
                f"unknown {what} field(s): {', '.join(unknown)}")
        if type(value) not in kinds:
            spelled = " or ".join(_KIND_NAMES[kind] for kind in kinds
                                  if kind is not int or float not in kinds)
            raise ValueError(f"{what} field {name!r} must be {spelled}, "
                             f"got {value!r}")
    for name in required:
        if name not in payload:
            raise ValueError(f"{what} needs a {name!r}")
    # What the dataclass __init__ would do, minus its one frozen
    # object.__setattr__ per field — most of a wire request's parse.
    request = object.__new__(cls)
    request.__dict__.update(defaults)
    request.__dict__.update(payload)
    request.__post_init__()
    return request


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

@_declared
@dataclass(frozen=True)
class ScanRequest:
    """One serializable description of a whole scan.

    This is the schema the CLI's flags, the checkpoint invocation record,
    the shard workers' plans and the daemon's startup configuration all
    share: :meth:`to_dict`/:meth:`from_dict` round-trip losslessly
    (pinned by tests), so a request written into a checkpoint today is
    the same object a resume or a shard worker rebuilds tomorrow.  Each
    field's domain and ``--help`` text live in its declaration.
    """

    tool: str = _declare(
        "flashroute-16", check=one_of(scanner_names),
        help="probing engine (scanner registry name)")
    prefixes: int = _declare(
        1024, check=positive_int,
        help="number of /24 prefixes in the simulated space")
    seed: int = _declare(20201027, help="topology seed")
    split_ttl: Optional[int] = _declare(
        None, check=int_range(1, 32),
        help="TTL probing starts from where no distance is known "
             "(FlashRoute's split TTL, Scamper's first TTL; default: the "
             "tool's own)")
    gap_limit: Optional[int] = _declare(
        None, check=positive_int,
        help="consecutive silent hops that end forward probing (default: "
             "the tool's own)")
    preprobe: Optional[str] = _declare(
        None, check=one_of(lambda: [mode.value for mode in PreprobeMode]),
        help="where preprobe targets come from (default: hitlist)")
    rate: Optional[float] = _declare(
        None, check=positive_finite,
        help="probes per second (default: scaled 100 Kpps)")
    loss: float = _declare(
        0.0, check=probability,
        help="independent per-probe and per-response loss probability "
             "(default 0: no injected faults)")
    blackout: float = _declare(
        0.0, check=probability,
        help="fraction of responders suffering periodic transient "
             "blackouts")
    fault_seed: int = _declare(
        0, help="seed of the injected fault sequence (same seed + same "
                "scan = identical faults)")
    retries: int = _declare(
        0, check=int_range(0, 200), metavar="N",
        help="re-probe each unanswered (prefix, ttl) up to N times, at "
             "most 200 (default 0: byte-identical to the retry-free "
             "engines; see docs/robustness.md)")
    adaptive_rate: bool = _declare(
        False,
        help="back the probing rate off multiplicatively when a round's "
             "loss or rate-limiter drops spike, recover additively when "
             "it clears")
    shards: Optional[int] = _declare(
        None, check=positive_int, metavar="N",
        help="run the scan sharded over N worker processes and merge to "
             "an output byte-identical to --shards 1 for the same seed "
             "(see docs/scaling.md)")
    shard_index: Optional[int] = _declare(
        None, check=non_negative_int, metavar="I",
        help="run only worker I's residue class of slices (slice index "
             "mod N == I) standalone; requires --shards N")
    shard_slices: int = _declare(
        16, check=positive_int, metavar="L",
        help="logical slices the keyspace splits into (default 16); fixed "
             "independently of --shards so the merged output never "
             "depends on the worker count")

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.shards is None:
            if self.shard_index is not None:
                raise ValueError(
                    "shard_index needs shards (the worker count the "
                    "index selects from)")
        elif self.shards > self.shard_slices:
            raise ValueError(
                f"shards must be in [1, shard_slices={self.shard_slices}]"
                f", got {self.shards}")
        elif self.shard_index is not None \
                and self.shard_index >= self.shards:
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

        Unknown keys and wrongly typed values always raise (a request
        schema mismatch must never pass silently); with ``complete=True``
        missing keys raise too — the checkpoint-resume path uses this to
        reject invocation records written by an incompatible version.
        """
        if complete and isinstance(payload, dict):
            missing = sorted(cls.schema.types.keys() - payload.keys())
            if missing:
                raise ValueError(
                    f"scan request record is missing field(s): "
                    f"{', '.join(missing)}")
        return _build(cls, payload, "scan request")

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


@_declared
@dataclass(frozen=True)
class TraceRequest:
    """One per-destination trace request — the daemon's request unit.

    Its fields are exactly the wire fields of a trace request."""

    destination: int = _declare(check=int_range(0, 0xFFFFFFFF))
    flow: int = _declare(0, check=int_range(0, 0xFFFF))
    max_ttl: int = _declare(TRACE_MAX_TTL, check=int_range(1, 255))
    gap_limit: int = _declare(TRACE_GAP_LIMIT, check=positive_int)

    __post_init__ = _check_fields

    @property
    def key(self) -> tuple:
        """The cache identity: one probe stream per key."""
        return (self.destination, self.flow)

    @classmethod
    def parse(cls, payload: Dict[str, object]) -> "TraceRequest":
        """Build a request from wire JSON (dotted-quad or int address).

        Raises ``ValueError`` with a client-presentable message on any
        malformed input; the daemon maps that to a structured error
        record instead of dropping the connection.
        """
        destination = (payload.get("destination")
                       if isinstance(payload, dict) else None)
        if isinstance(destination, str):
            try:
                payload = {**payload, "destination": ip_to_int(destination)}
            except ValueError:
                raise ValueError(f"destination {destination!r} is not an "
                                 f"IPv4 address") from None
        return _build(cls, payload, "trace request")


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
        topology = self.topology
        if topology.address_bits == 128:
            return topology.internal_addr(destination) >= 0
        offset = (destination >> 8) - topology.base_prefix
        return 0 <= offset < topology.num_prefixes

    def address_space(self) -> str:
        topology = self.topology
        if topology.address_bits == 128:  # one /48 site per stub
            first, last = (int_to_ip6(key >> 16 << 80) for key in (
                topology.subnet_keys[0], topology.subnet_keys[-1]))
            return f"{first}/48..{last}/48 ({topology.num_prefixes} /64s)"
        first = topology.base_prefix << 8
        last = ((topology.base_prefix + topology.num_prefixes) << 8) - 1
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

    def drop_route(self, destination: int, flow: int) -> None:
        """Drop the outcome tables a trace of ``(destination, flow)``
        built in the warm core; the route cache grows with every distinct
        key otherwise.  A later trace rebuilds them bit-identically."""
        self.network.route_cache.drop(destination, flow)

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
        self.scanner = create_scanner(request, telemetry, resilience)

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


#: One responding TTL of a trace: ``(ttl, responder, rtt_ms)``.  The
#: responder is the route cache's shared ``int`` for its interface; the
#: round trip is in milliseconds, rounded to 3 places.
TraceRow = Tuple[int, int, float]


def hop_records(rows: Iterable[TraceRow], source: str, destination: str,
                flow: int) -> Iterator[Dict[str, object]]:
    """``rows`` as Manifold's hop records (manifold-tdmi.h): KEY(source,
    destination, ttl) with the probe id in ``path``."""
    for ttl, responder, rtt_ms in rows:
        yield {"ip": int_to_ip(responder), "ttl": ttl, "hop_probecount": 0,
               "path": flow, "source": source, "destination": destination,
               "rtt_ms": rtt_ms}


def trace_record(rows: Sequence[TraceRow], source: str, destination: str,
                 flow: int, dest_distance: Optional[int], probes: int,
                 first: float, last: float) -> Dict[str, object]:
    """A walk's rows and summary as Manifold's traceroute record."""
    return {
        "source": source,
        "destination": destination,
        "flow": flow,
        "hops": list(hop_records(rows, source, destination, flow)),
        "hop_count": len(rows),
        "dest_reached": dest_distance is not None,
        "dest_distance": dest_distance,
        "probes": probes,
        "first": first,
        "last": last,
        "ts": last,
    }


def _walk(request: TraceRequest, network, clock: VirtualClock,
          rows: List[TraceRow]) -> Iterator[bool]:
    """A trace's sequential walk: appends each responding TTL's row to
    ``rows``, then yields whether the destination answered it.  It holds
    no reference to its session, so a session dropped mid-walk is freed
    with its network view (and the view's rate limiter) at once."""
    send = network.send_probes
    dst = request.destination
    flow = request.flow
    src_port = _TRACE_PORT_BASE + flow % (0x10000 - _TRACE_PORT_BASE)
    silent = 0
    for ttl in range(1, request.max_ttl + 1):
        sent_at = clock.now
        response = send(((dst, ttl, sent_at, src_port, 0, UDP_HEADER_LEN),),
                        33434, PROTO_UDP, flow)[0]
        clock.advance(TRACE_PROBE_GAP)
        if response is None:
            silent += 1
            if silent >= request.gap_limit:
                return
            continue
        silent = 0
        arrival = response.arrival_time
        clock.advance_to(arrival)
        rows.append((ttl, response.responder,
                     round((arrival - sent_at) * 1000.0, 3)))
        # Unreachable family / TCP RST: the destination answered.
        reached = response.kind is not ResponseKind.TTL_EXCEEDED
        yield reached
        if reached:
            return


class TraceSession:
    """One per-destination traceroute over an engine.

    The walk is the classic sequential one (probe TTL 1, wait, probe
    TTL 2, …) on the session's own virtual clock, stopping at the
    destination or after ``gap_limit`` consecutive silent hops.  It
    records one row per responding TTL in :attr:`rows`, a
    one-destination hop table; the Manifold-schema records (see
    docs/service.md) are built from the rows when a caller asks for
    them.  A session walks its path once, however many callers iterate
    it; sessions interleave freely over one engine.
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
        # Interned: the sessions of an engine, and the daemon's cached
        # traces, share one string.
        self.source = sys.intern(int_to_ip(engine.topology.vantage_addr))
        self.rows: List[TraceRow] = []
        self.dest_distance: Optional[int] = None
        # The one walk, started by the first walk().
        self._walk: Optional[Iterator[bool]] = None

    def walk(self) -> Iterator[TraceRow]:
        """Yield the walk's rows: those recorded so far, then each one
        the walk records as it goes on."""
        if self._walk is None:
            self._walk = _walk(self.request, self.network, self.clock,
                               self.rows)
        rows = self.rows
        index = 0
        while True:
            if index == len(rows):
                reached = next(self._walk, None)
                if reached is None:
                    return
                if reached:
                    self.dest_distance = rows[-1][0]
            yield rows[index]
            index += 1

    def stream(self) -> Iterator[Dict[str, object]]:
        """:meth:`walk`, one Manifold hop record per row."""
        return hop_records(self.walk(), self.source,
                           int_to_ip(self.request.destination),
                           self.request.flow)

    def run(self) -> Dict[str, object]:
        """Drain the walk and return the Manifold traceroute record."""
        for _ in self.walk():
            pass
        return self.result()

    def result(self) -> Dict[str, object]:
        """The Manifold-schema traceroute record of the rows so far."""
        return trace_record(self.rows, self.source,
                            int_to_ip(self.request.destination),
                            self.request.flow, self.dest_distance,
                            self.network.probes_sent, self.start_time,
                            self.clock.now)


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
