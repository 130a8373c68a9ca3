"""The Scanner protocol and tool registry.

Every probing engine in this library — FlashRoute, Yarrp, Scamper's
Doubletree tracer, the classic traceroute baseline — exposes the same
surface: construct it from a handful of shared knobs, call ``scan``
against a simulated network, get a :class:`~repro.core.results.ScanResult`
back.  Before this module each consumer (the CLI, the experiment drivers)
re-spelled that construction in its own if/elif chain; now tools register
themselves under their CLI names and consumers resolve them by lookup.
Adding a tool is one :func:`register_scanner` decorator in its module.

The registry stores *factories*, not instances: scanners hold per-scan
state, so every :func:`create_scanner` call builds a fresh one from a
:class:`ScannerOptions`.  Options a tool has no counterpart for are
ignored by its factory (e.g. ``gap_limit`` for traceroute), mirroring how
the real tools' command lines differ.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from .results import ScanResult


@runtime_checkable
class Scanner(Protocol):
    """What every registered probing engine provides."""

    def scan(self, network, targets=None, **kwargs) -> ScanResult:
        """Run one scan against ``network`` and return its result."""
        ...


@dataclass(frozen=True)
class ScannerOptions:
    """Tool-independent construction knobs, all optional.

    ``None`` means "the tool's own default"; factories map each option
    onto their config's field when one exists and ignore it otherwise.
    """

    #: Probes per second.
    probing_rate: Optional[float] = None

    #: Initial forward-probing TTL (FlashRoute's split TTL).
    split_ttl: Optional[int] = None

    #: Consecutive silent hops tolerated during forward probing.
    gap_limit: Optional[int] = None

    #: Preprobe mode name for tools that preprobe: a
    #: :class:`~repro.core.config.PreprobeMode` value ("hitlist",
    #: "random", "none").
    preprobe: Optional[str] = None

    #: Per-scan randomization seed (probing order, port draws).
    seed: Optional[int] = None

    #: Optional :class:`repro.obs.Telemetry` bundle (metrics registry,
    #: tracer, progress reporter).  Factories hand it to their engine;
    #: ``None`` (the default) keeps every tool on its zero-overhead path.
    #: Typed loosely to keep this module import-light.
    telemetry: Optional[object] = None

    #: Optional :class:`repro.core.resilience.ResilienceConfig` (probe
    #: retries, adaptive rate backoff, checkpoint/resume).  Factories map
    #: what their tool supports: FlashRoute and Yarrp take the full
    #: config, Scamper and traceroute honour the retry budget only.
    #: ``None`` (the default) keeps every tool byte-identical to seed.
    resilience: Optional[object] = None


ScannerFactory = Callable[[ScannerOptions], Scanner]

_REGISTRY: Dict[str, ScannerFactory] = {}
_DEFAULTS_LOADED = False

#: Modules whose import registers the built-in tools.  Loaded lazily on
#: first lookup so this module stays import-light and free of cycles.
_DEFAULT_MODULES = (
    "repro.core.prober",
    "repro.baselines.yarrp",
    "repro.baselines.scamper",
    "repro.baselines.traceroute",
)


def register_scanner(name: str, factory: Optional[ScannerFactory] = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    ::

        @register_scanner("mytool")
        def _build(options: ScannerOptions) -> Scanner:
            return MyTool(...)

    Registering an already-taken name raises — shadowing a tool silently
    would corrupt experiment comparisons.
    """
    def _register(fn: ScannerFactory) -> ScannerFactory:
        if name in _REGISTRY:
            raise ValueError(f"scanner {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_scanner(name: str) -> None:
    """Remove a registration (tests use this to clean up)."""
    _REGISTRY.pop(name, None)


def _load_defaults() -> None:
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True
    for module in _DEFAULT_MODULES:
        importlib.import_module(module)


def scanner_names() -> Tuple[str, ...]:
    """Sorted names of every registered tool."""
    _load_defaults()
    return tuple(sorted(_REGISTRY))


def create_scanner(name: str,
                   options: Optional[ScannerOptions] = None) -> Scanner:
    """Build a fresh scanner registered under ``name``."""
    _load_defaults()
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scanner {name!r} (known: {known})")
    return factory(options if options is not None else ScannerOptions())
