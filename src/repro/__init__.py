"""FlashRoute (IMC 2020) reproduction.

A production-quality Python library reproducing *FlashRoute: Efficient
Traceroute on a Massive Scale* (Huang, Rabinovich, Al-Dalky, IMC 2020) on a
simulated Internet.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured results.

Public entry point — the :mod:`repro.api` facade::

    from repro import api

    result = api.scan(tool="flashroute-16", prefixes=1024)
    print(result.summary())

    engine = api.Engine.from_request(api.ScanRequest(prefixes=1024))
    for hop in engine.open_session(api.TraceRequest.parse(
            {"destination": "20.0.0.7"})).stream():
        print(hop)

The probing engines can also be constructed directly
(``FlashRoute(config).scan(network)`` …) or through the scanner registry
(:func:`repro.core.scanner.create_scanner`).
"""

__version__ = "1.0.0"

from .simnet import SimulatedNetwork, Topology, TopologyConfig, scaled_probing_rate

__all__ = [
    "__version__",
    "SimulatedNetwork",
    "Topology",
    "TopologyConfig",
    "scaled_probing_rate",
    "FlashRoute",
    "FlashRouteConfig",
    "ScanResult",
]


def __getattr__(name):  # lazy re-exports, filled in as subpackages land
    if name in ("FlashRoute", "FlashRouteConfig"):
        from . import core
        return getattr(core, name)
    if name == "ScanResult":
        from .core.results import ScanResult
        return ScanResult
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
