"""Minimal clients for the scan daemon's NDJSON protocol.

:func:`trace_stream` is the asyncio building block (the daemon's
overload tests run ~100 of these concurrently); :func:`request_trace` is
the one-call synchronous convenience for scripts and tests.

Every client operation is bounded by a timeout
(:data:`DEFAULT_TIMEOUT` unless overridden): a daemon that accepts the
connection but never answers — wedged event loop, half-dead host —
surfaces as a clear :class:`~repro.service.daemon.ServiceError` instead
of hanging the caller forever.  Pass ``timeout=None`` to wait without
bound.  The timeout bounds each response record, not the whole stream,
and one timer per request holds it: a record pushes the deadline
forward, so a buffered record is read without a hand-off to the event
loop.  A request sent on a connection is answered before the next one
is sent; a read that fails (timeout, end of stream, bad JSON) closes
the connection, because a late answer would otherwise be read as the
next request's.
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


def _timed_out(timeout: float, what: str) -> ServiceError:
    return ServiceError(
        f"timed out after {timeout:g}s waiting for {what}; "
        f"the daemon accepted the connection but is not responding")


async def _bounded(awaitable, timeout: Optional[float], what: str):
    """Await with a bound; timeouts become a clear :class:`ServiceError`."""
    if timeout is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise _timed_out(timeout, what) from None


class _RecordTimer:
    """A per-record timeout for one response, held by one timer.

    A record pushes the deadline forward without touching the timer; a
    timer that fires before the deadline re-arms itself for it, as
    ``asyncio.timeout().reschedule`` does (``asyncio.timeout`` needs
    3.11; this package supports 3.9).  On expiry it cancels the reading
    task, and :meth:`expired_by` tells that cancellation from one that
    came from outside.
    """

    __slots__ = ("loop", "task", "timeout", "deadline", "handle",
                 "cancelling", "fired")

    def __init__(self, timeout: float) -> None:
        self.loop = asyncio.get_running_loop()
        self.task = asyncio.current_task()
        self.timeout = timeout
        # Cancellations already pending on the task are not ours
        # (Task.cancelling exists from 3.11 on).
        cancelling = getattr(self.task, "cancelling", None)
        self.cancelling = cancelling() if cancelling is not None else 0
        self.fired = False
        self.deadline = self.loop.time() + timeout
        self.handle = self.loop.call_at(self.deadline, self._fire)

    def push(self) -> None:
        self.deadline = self.loop.time() + self.timeout

    def _fire(self) -> None:
        if self.deadline > self.handle.when():
            self.handle = self.loop.call_at(self.deadline, self._fire)
            return
        self.fired = True
        self.task.cancel()

    def expired_by(self, exc: BaseException) -> bool:
        """Whether ``exc`` is this timer's expiry and nothing else's: a
        cancellation from outside that lands as well still wins."""
        if not self.fired or not isinstance(exc, asyncio.CancelledError):
            return False
        uncancel = getattr(self.task, "uncancel", None)
        return uncancel is None or uncancel() <= self.cancelling

    def cancel(self) -> None:
        self.handle.cancel()


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
    the clock with every record).  Any failure closes ``writer``: what
    is left on the stream belongs to this request, not the next.
    """
    timer: Optional[_RecordTimer] = None
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        if timeout is not None:
            timer = _RecordTimer(timeout)
        hops: List[dict] = []
        while True:
            line = await reader.readline()
            if timer is not None:
                timer.push()
            if not line:
                raise ConnectionError("server closed the connection "
                                      "mid-response")
            record = json.loads(line)
            if record.get("type") == "hop":
                hops.append(record)
                continue
            return hops, record
    except BaseException as exc:
        writer.close()
        if timer is not None and timer.expired_by(exc):
            raise _timed_out(timeout, "a response record") from None
        raise
    finally:
        if timer is not None:
            timer.cancel()


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
        """One request/response exchange (trace or control op).

        A request that fails leaves the client closed: the next one
        raises :class:`ConnectionError` until :meth:`connect` again.
        """
        if self._writer is None or self._writer.is_closing():
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
