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
:class:`~repro.api.ScanRequest` — the same description the CLI, the
checkpoints and the shard workers carry.  Knobs a tool has no counterpart
for are ignored by its factory (e.g. ``gap_limit`` for traceroute),
mirroring how the real tools' command lines differ.
"""

from __future__ import annotations

import importlib
from typing import (TYPE_CHECKING, Callable, Dict, Optional, Protocol, Tuple,
                    runtime_checkable)

from .results import ScanResult

if TYPE_CHECKING:
    from ..api import ScanRequest


@runtime_checkable
class Scanner(Protocol):
    """What every registered probing engine provides."""

    def scan(self, network, targets=None, **kwargs) -> ScanResult:
        """Run one scan against ``network`` and return its result."""
        ...


ScannerFactory = Callable[["ScanRequest", object, object], Scanner]

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

    A factory takes a request, an optional :class:`repro.obs.Telemetry`
    bundle and an optional
    :class:`~repro.core.resilience.ResilienceConfig`; ``None`` keeps the
    tool on its zero-overhead, seed-identical path::

        @register_scanner("mytool")
        def _build(request, telemetry, resilience) -> Scanner:
            return MyTool(rate=request.rate, telemetry=telemetry)

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


def create_scanner(request: ScanRequest, telemetry=None,
                   resilience=None) -> Scanner:
    """Build a fresh ``request.tool`` scanner (``ScanRequest`` checked
    the name).  ``resilience`` overrides the request's retry fields: the
    CLI's config carries a checkpoint path and a round hook."""
    _load_defaults()
    if resilience is None:
        resilience = request.resilience_config()
    return _REGISTRY[request.tool](request, telemetry, resilience)
