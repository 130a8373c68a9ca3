"""Traceroute-as-a-service: the long-lived asyncio scan daemon.

``flashroute-sim serve`` holds one warm :class:`repro.api.Engine`
(topology + simulated network, the expensive part) and answers JSON
trace requests over a local TCP or Unix socket, streaming per-hop
records in the Manifold hop schema.  An LRU result cache with
epoch-based invalidation (one probe stream per key) lives here; see
docs/service.md for the wire protocol and operations guide.
"""

from .daemon import (Flight, ServiceError, TraceService, serve,
                     start_service)
from .client import (DEFAULT_TIMEOUT, DaemonClient, request_trace,
                     trace_stream)
from .obs import RequestContext, ServiceTelemetry
from .top import render_frame, run_top

__all__ = [
    "DEFAULT_TIMEOUT",
    "DaemonClient",
    "Flight",
    "RequestContext",
    "ServiceError",
    "ServiceTelemetry",
    "TraceService",
    "render_frame",
    "request_trace",
    "run_top",
    "serve",
    "start_service",
    "trace_stream",
]
