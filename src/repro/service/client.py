"""Minimal clients for the scan daemon's NDJSON protocol.

:func:`trace_stream` is the asyncio building block (the load-test
harness runs hundreds of these concurrently); :func:`request_trace` is
the one-call synchronous convenience for scripts and tests.

Every client operation is bounded by a timeout
(:data:`DEFAULT_TIMEOUT` unless overridden): a daemon that accepts the
connection but never answers — wedged event loop, half-dead host —
surfaces as a clear :class:`~repro.service.daemon.ServiceError` instead
of hanging the caller forever.  Pass ``timeout=None`` to wait without
bound.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional, Tuple

from .daemon import MAX_LINE, ServiceError, bound_reads

#: Generous default: a simulated trace answers in milliseconds, so a
#: connect or read that takes this long means the daemon is wedged,
#: not slow.
DEFAULT_TIMEOUT = 30.0


async def _bounded(awaitable, timeout: Optional[float], what: str):
    """Await with a bound; timeouts become a clear :class:`ServiceError`."""
    if timeout is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise ServiceError(
            f"timed out after {timeout:g}s waiting for {what}; "
            f"the daemon accepted the connection but is not responding"
        ) from None


async def open_connection(host: Optional[str] = None,
                          port: Optional[int] = None,
                          socket_path: Optional[str] = None,
                          timeout: Optional[float] = DEFAULT_TIMEOUT):
    if socket_path is not None:
        reader, writer = await _bounded(
            asyncio.open_unix_connection(socket_path, limit=MAX_LINE),
            timeout, f"connect to {socket_path}")
    else:
        reader, writer = await _bounded(
            asyncio.open_connection(host, port, limit=MAX_LINE),
            timeout, f"connect to {host}:{port}")
    bound_reads(writer)
    return reader, writer


async def send_request(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       payload: dict,
                       timeout: Optional[float] = DEFAULT_TIMEOUT
                       ) -> Tuple[List[dict], dict]:
    """Send one request on an open connection; collect its response.

    Returns ``(hops, terminal)`` where ``terminal`` is the ``done``,
    ``error``, or control-response record.  ``timeout`` bounds each
    read (per record, not the whole stream: a live hop stream resets
    the clock with every record).
    """
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    hops: List[dict] = []
    while True:
        line = await _bounded(reader.readline(), timeout,
                              "a response record")
        if not line:
            raise ConnectionError("server closed the connection "
                                  "mid-response")
        record = json.loads(line)
        if record.get("type") == "hop":
            hops.append(record)
            continue
        return hops, record


async def trace_stream(payload: dict, host: Optional[str] = None,
                       port: Optional[int] = None,
                       socket_path: Optional[str] = None,
                       timeout: Optional[float] = DEFAULT_TIMEOUT
                       ) -> Tuple[List[dict], dict]:
    """One request on a fresh connection (one concurrent client)."""
    reader, writer = await open_connection(host, port, socket_path,
                                           timeout=timeout)
    try:
        return await send_request(reader, writer, payload,
                                  timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def request_trace(payload: dict, host: Optional[str] = None,
                  port: Optional[int] = None,
                  socket_path: Optional[str] = None,
                  timeout: Optional[float] = DEFAULT_TIMEOUT
                  ) -> Tuple[List[dict], dict]:
    """Synchronous one-shot: connect, request, collect, disconnect."""
    return asyncio.run(trace_stream(payload, host=host, port=port,
                                    socket_path=socket_path,
                                    timeout=timeout))


class DaemonClient:
    """One persistent connection issuing sequential requests.

    The polling consumers (``flashroute-sim top``, monitoring scripts)
    reuse a single connection across frames instead of reconnecting per
    poll.  Use as an async context manager::

        async with DaemonClient(host=..., port=...) as client:
            stats = await client.control("stats")

    ``timeout`` bounds the connect and each response read
    (:data:`DEFAULT_TIMEOUT` by default; ``None`` waits forever).
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 socket_path: Optional[str] = None,
                 timeout: Optional[float] = DEFAULT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "DaemonClient":
        self._reader, self._writer = await open_connection(
            self.host, self.port, self.socket_path,
            timeout=self.timeout)
        return self

    async def request(self, payload: dict) -> Tuple[List[dict], dict]:
        """One request/response exchange (trace or control op)."""
        if self._reader is None or self._writer is None:
            raise ConnectionError("client is not connected")
        return await send_request(self._reader, self._writer, payload,
                                  timeout=self.timeout)

    async def control(self, op: str, **fields) -> dict:
        """Issue a control op and return its response record."""
        _, record = await self.request({"control": op, **fields})
        return record

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "DaemonClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
