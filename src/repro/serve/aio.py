"""The multi-tenant asyncio serving layer: one hub, many named sessions.

:class:`AsyncSessionHub` multiplexes every connected controller over a
:class:`~repro.serve.sessions.SessionManager`.  The concurrency model
is the one the wire protocol promises (``docs/protocol.md``; which verb
is which: :data:`repro.serve.stream.VERB_CLASS`):

- **writes apply per session in arrival order** — a *point update*
  (``insert`` / ``remove`` without ``"spec"``) with nothing ahead of it
  runs right on the event-loop thread when it can neither block nor run
  long: an in-process backend, a session write lock that a non-blocking
  try wins, no periodic checkpoint due with it.  Under the GIL verifier
  work is serial anyway, and a thread hop costs more than the update.
  Every other write goes through the session's lane — a FIFO applied one
  job at a time, each on an executor thread unless it has become such a
  point update — so tenants' long writes proceed in parallel and the
  loop never waits on a lock, a pipe or a disk (speculative children
  live inside their session's :class:`StreamServer` and inherit its
  admission control and metrics scope);
- **concurrent readers** — ``query``, ``violations``, ``stats``,
  ``ping`` run straight on the executor pool under the session's
  shared read lock, never waiting behind another tenant's writes;
- **admission control per tenant** — a full lane answers
  ``overloaded`` with the session's ``retry_after`` immediately,
  without blocking the event loop or the connection;
- **hub verbs** — ``open`` / ``attach`` / ``detach`` / ``sessions``
  manage which session a connection talks to, and ``metrics`` /
  ``health`` answer on the loop without touching any session lock:
  at worst they wait for one point update, never for a thread.

Transports: :func:`serve_hub_tcp` (asyncio TCP, many concurrent
connections) and :func:`serve_hub_stdio` (the single-connection stdio
compatibility mode the pre-multi-tenant CLI used).  Both write and
flush every response — including backpressure refusals — before
blocking on the next request frame.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import weakref
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, IO, Optional, Tuple

from repro.serve.sessions import SessionError, SessionManager
from repro.serve.stream import (
    DEFAULT_MAX_LINE_BYTES, DrainRequested, StreamServer, VERB_CLASS,
    _read_capped,
)

#: ``open`` request keys forwarded to the session factory.
_OPEN_OVERRIDE_KEYS = ("engine", "width", "properties", "checkpoint_every",
                       "checkpoint_interval", "scrub_interval",
                       "scrub_budget")


class HubConnection:
    """Per-connection state: which session the connection is attached to."""

    def __init__(self) -> None:
        """Start detached (every session verb then needs ``"session"``)."""
        self.session: Optional[str] = None


class _AsyncLineFramer:
    """Newline framing over an :class:`asyncio.StreamReader` with a cap.

    Mirrors :func:`repro.serve.stream._read_capped`: an oversized line
    is discarded chunk by chunk up to its newline — at most ``limit``
    bytes of it are ever buffered — and the stream stays framed for
    the next request.
    """

    def __init__(self, reader: asyncio.StreamReader, limit: int) -> None:
        self._reader = reader
        self._limit = limit
        self._buf = bytearray()

    async def next_frame(self) -> Tuple[Optional[str], bool]:
        """Return ``(line, oversized)``; ``line`` is ``None`` at EOF."""
        oversized = False
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                raw = bytes(self._buf[:newline])
                del self._buf[:newline + 1]
                if oversized or len(raw) > self._limit:
                    return "", True
                return raw.decode("utf-8", "replace"), False
            if len(self._buf) > self._limit:
                # Already too long without a newline: drop what we
                # have and keep draining until the line ends.
                oversized = True
                self._buf.clear()
            chunk = await self._reader.read(65536)
            if not chunk:
                if not self._buf and not oversized:
                    return None, False
                raw = bytes(self._buf)
                self._buf.clear()
                if oversized or len(raw) > self._limit:
                    return "", True
                return raw.decode("utf-8", "replace"), False
            self._buf.extend(chunk)


class _Lane:
    """One session's writes that could not run on arrival: ``(request,
    reply future)`` in order and, until they run dry, the task on them."""

    def __init__(self) -> None:
        self.jobs: deque = deque()
        self.task: Optional["asyncio.Future"] = None


class AsyncSessionHub:
    """Route protocol requests from many connections to named sessions.

    One hub owns one :class:`SessionManager` and must be driven from a
    single asyncio event loop (it owns every session's write lane);
    session work that can block or run long goes to the loop's default
    executor, so the loop stays responsive while a backend computes.
    """

    def __init__(self, manager: SessionManager, *,
                 retry_after: float = 1.0,
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
                 log: Callable[[str], None] = lambda line: None) -> None:
        """Wrap ``manager`` in the asyncio serving surface.

        Args:
            manager: the named-session registry to serve.
            retry_after: ``retry_after`` hint on hub-level refusals
                (session-level refusals carry the session's own).
            max_line_bytes: request frame cap on hub transports.
            log: sink for one-line operational notes.
        """
        self.manager = manager
        self.retry_after = retry_after
        self.max_line_bytes = max_line_bytes
        self._log = log
        #: Owned by the loop thread; a lane dies with its session.
        self._lanes: Dict[StreamServer, _Lane] = weakref.WeakKeyDictionary()
        #: Connected TCP clients: the task serving each and its socket.
        self._connections: Dict["asyncio.Task", asyncio.StreamWriter] = {}
        self._draining = False
        self._stop: Optional[asyncio.Event] = None
        self._served = 0
        registry = manager.metrics
        self._m_requests = registry.counter(
            "deltanet_requests_total",
            "Requests dispatched, by session and verb.",
            ("session", "verb"))
        self._m_rejected = registry.counter(
            "deltanet_rejected_total",
            "Requests refused before dispatch, by session and reason.",
            ("session", "reason"))
        self._m_connections = registry.counter(
            "deltanet_connections_total",
            "Connections accepted, by transport.",
            ("transport",))
        registry.gauge(
            "deltanet_open_sessions",
            "Sessions currently open in the hub.").watch(
            (), lambda: len(self.manager.open_names()))

    # -- lifecycle ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the hub is refusing new work (stop requested)."""
        return self._draining

    def request_stop(self) -> None:
        """Refuse new work and wake :meth:`wait_stopped`.

        Safe from an asyncio signal handler; in-flight requests finish
        and every session is closed (final checkpoint) by
        :meth:`aclose`.
        """
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop` (or a ``shutdown`` verb)."""
        if self._stop is None:
            self._stop = asyncio.Event()
        if self._draining:
            return
        await self._stop.wait()

    async def aclose(self) -> None:
        """Let the lanes run dry, then close every session (checkpoints)."""
        self._draining = True
        busy = [lane.task for lane in self._lanes.values() if lane.task]
        if busy and (await asyncio.wait(busy, timeout=10))[1]:
            self._log("closing with writes still in a lane")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.manager.close_all)

    async def close_connections(self) -> None:
        """Hang up on every connected client and let its loop finish.

        Closing the socket ends the client's pending read with EOF, so
        :meth:`serve_connection` returns by itself; left attached, the
        client's task would be cancelled mid-read when the event loop
        shuts down and the stream protocol would log the traceback.
        """
        if not self._connections:
            return
        for writer in self._connections.values():
            writer.close()
        await asyncio.wait(list(self._connections), timeout=10)

    # -- request handling --------------------------------------------------------

    def oversized_response(self) -> Dict[str, Any]:
        """The answer for a frame longer than ``max_line_bytes``."""
        self._m_rejected.inc(session="_hub", reason="frame-too-large")
        return {"ok": False, "error": "frame too large",
                "max_line_bytes": self.max_line_bytes}

    async def handle_line(self, conn: HubConnection,
                          line: str) -> Tuple[Dict[str, Any], bool]:
        """Frame-check, parse and dispatch one request line.

        Args:
            conn: the connection's attachment state.
            line: one ndjson frame.

        Returns:
            ``(response, keep_going)``; an empty response (blank line)
            is skipped by the transports.
        """
        overlong = len(line) > self.max_line_bytes + 1
        if not overlong and len(line) * 4 > self.max_line_bytes + 1:
            overlong = (len(line.encode("utf-8", "replace"))
                        > self.max_line_bytes + 1)
        if overlong:
            return self.oversized_response(), True
        line = line.strip()
        if not line:
            return {}, True
        try:
            request = json.loads(line)
        except ValueError as exc:
            self._m_rejected.inc(session="_hub", reason="bad-json")
            return {"ok": False, "error": f"bad JSON: {exc}"}, True
        return await self.handle_request(conn, request)

    async def handle_request(self, conn: HubConnection,
                             request: Any) -> Tuple[Dict[str, Any], bool]:
        """Dispatch one parsed request: hub verb, write, or read.

        Args:
            conn: the connection's attachment state (mutated by
                ``open`` / ``attach`` / ``detach``).
            request: the decoded JSON value.

        Returns:
            ``(response, keep_going)`` — ``keep_going`` is False only
            for hub shutdown or drain; a single session's refusal
            never closes a multi-tenant connection.
        """
        if not isinstance(request, dict) \
                or not isinstance(request.get("cmd"), str):
            return {"ok": False,
                    "error": "bad request: expected an object with a "
                             "\"cmd\" string"}, True
        cmd = request["cmd"]
        self._served += 1
        target = request.get("session", conn.session)
        if target is not None and not isinstance(target, str):
            return {"ok": False, "error": "bad request: \"session\" "
                                          "must be a string"}, True
        if cmd == "metrics" and target is None:
            self._m_requests.inc(session="_hub", verb="metrics")
            return {"ok": True,
                    "metrics": self.manager.metrics.render_text()}, \
                not self._draining
        if cmd == "health" and target is None:
            self._m_requests.inc(session="_hub", verb="health")
            return self._hub_health(), not self._draining
        if self._draining:
            self._m_rejected.inc(session=target or "_hub",
                                 reason="draining")
            return {"ok": False, "error": "draining",
                    "retry_after": self.retry_after}, False
        if cmd == "sessions":
            self._m_requests.inc(session="_hub", verb="sessions")
            return {"ok": True, "sessions": self.manager.sessions()}, True
        if cmd in ("open", "attach"):
            return await self._open_or_attach(conn, cmd, request)
        if cmd == "detach":
            self._m_requests.inc(session="_hub", verb="detach")
            detached, conn.session = conn.session, None
            return {"ok": True, "detached": detached}, True
        if cmd == "shutdown":
            self._m_requests.inc(session="_hub", verb="shutdown")
            self.request_stop()
            return {"ok": True, "closing": True,
                    "sessions": self.manager.open_names()}, False
        # -- session-scoped verbs ----------------------------------------------
        if target is None:
            return {"ok": False,
                    "error": f"no session attached for {cmd!r}; send "
                             f"\"open\"/\"attach\" first or set "
                             f"\"session\""}, True
        try:
            server = await self._attach(target)
        except SessionError as exc:
            return {"ok": False, "error": str(exc)}, True
        kind = VERB_CLASS.get(cmd, "read")
        if kind == "free":
            return server.handle_request(request)[0], True
        if kind != "read":
            return await self._write(server, request), True
        return (await asyncio.get_running_loop().run_in_executor(
            None, server.handle_request, request))[0], True

    async def _attach(self, name: str) -> StreamServer:
        """An open session straight from the table; only recovering one
        from disk (or refusing the name) takes a thread."""
        try:
            return self.manager.get(name)
        except SessionError:
            return await asyncio.get_running_loop().run_in_executor(
                None, self.manager.attach, name)

    async def _open_or_attach(self, conn: HubConnection, cmd: str,
                              request: Dict[str, Any]
                              ) -> Tuple[Dict[str, Any], bool]:
        """Open (create/recover) or attach; both bind the connection."""
        self._m_requests.inc(session="_hub", verb=cmd)
        name = request.get("session", request.get("name"))
        loop = asyncio.get_running_loop()
        try:
            if cmd == "open":
                overrides = {key: request[key]
                             for key in _OPEN_OVERRIDE_KEYS
                             if key in request}
                if "properties" in overrides:
                    overrides["properties"] = tuple(overrides["properties"])
                call = partial(self.manager.open, name, **overrides)
                server = await loop.run_in_executor(None, call)
            else:
                server = await self._attach(name)
        except (ValueError, TypeError) as exc:  # bad name or option
            return {"ok": False, "error": str(exc)}, True
        conn.session = server.name
        return {"ok": True, "session": server.name,
                "seq": server.session.sequence,
                "backend": server.session.backend_name,
                "recovered": server.recovery is not None}, True

    async def _write(self, server: StreamServer,
                     request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a mutating verb in its session's arrival order: here
        and now if it may run on the loop and nothing is ahead of it,
        else through the lane (a full lane is refused immediately)."""
        lane = self._lanes.get(server)
        if lane is None:
            lane = self._lanes[server] = _Lane()
            server.backlog = lane.jobs.__len__
        if lane.task is None:
            response = server.handle_request(request, False)[0]
            if response is not None:
                return response
        if len(lane.jobs) >= max(1, server.max_queue):
            self._m_rejected.inc(session=server.name, reason="overloaded")
            return {"ok": False, "error": "overloaded",
                    "queue_depth": len(lane.jobs),
                    "retry_after": server.retry_after}
        loop = asyncio.get_running_loop()
        reply = loop.create_future()
        lane.jobs.append((request, reply))
        if lane.task is None:
            # in a fresh context: the lane outlives this request
            lane.task = contextvars.Context().run(
                loop.create_task, self._drain(server, lane))
        return await reply

    async def _drain(self, server: StreamServer, lane: _Lane) -> None:
        """Apply ``lane``'s jobs oldest first, one at a time."""
        loop = asyncio.get_running_loop()
        while lane.jobs:
            request, reply = lane.jobs.popleft()
            try:
                response = server.handle_request(request, False)[0]
                if response is None:    # long, or it could block: a thread
                    response = (await loop.run_in_executor(
                        None, server.handle_request, request))[0]
            except Exception as exc:    # the daemon survives any dispatch
                self._log(f"[{server.name}] lane job failed: "
                          f"{type(exc).__name__}: {exc}")
                response = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            if not reply.done():
                reply.set_result(response)
            await asyncio.sleep(0)  # the loop serves everyone in between
        lane.task = None

    def _hub_health(self) -> Dict[str, Any]:
        open_names = self.manager.open_names()
        return {"ok": True,
                "status": "draining" if self._draining else "ok",
                "hub": True,
                "sessions_open": len(open_names),
                "sessions": open_names,
                "served": self._served}

    # -- transports --------------------------------------------------------------

    async def serve_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """One TCP connection's request/response loop.

        Every response is drained to the socket before the next frame
        is read — a backpressure refusal (``overloaded``, ``busy``,
        ``frame too large``) reaches the client even though the hub
        immediately goes back to waiting on input.
        """
        self._m_connections.inc(transport="tcp")
        conn = HubConnection()
        framer = _AsyncLineFramer(reader, self.max_line_bytes)
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                line, oversized = await framer.next_frame()
                if line is None:
                    break
                if oversized:
                    response, keep_going = self.oversized_response(), True
                else:
                    response, keep_going = await self.handle_line(conn, line)
                if response:
                    writer.write(
                        (json.dumps(response) + "\n").encode("utf-8"))
                    await writer.drain()
                if not keep_going:
                    break
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._log(f"client disconnected mid-request: "
                      f"{type(exc).__name__}: {exc}")
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass


async def serve_hub_tcp(hub: AsyncSessionHub, host: str = "127.0.0.1",
                        port: int = 0,
                        ready: Optional[Callable[[str, int], None]] = None,
                        install_signals: bool = False) -> None:
    """Serve the hub over asyncio TCP until ``shutdown`` (or SIGTERM).

    Args:
        hub: the session hub to serve.
        host: interface to bind.
        port: TCP port (0 picks a free one).
        ready: callback fired with the bound ``(host, port)``.
        install_signals: route SIGTERM/SIGINT into a graceful stop
            (skipped silently where the loop does not support it).
    """
    server = await asyncio.start_server(hub.serve_connection, host, port)
    if install_signals:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, hub.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
    try:
        if ready is not None:
            bound = server.sockets[0].getsockname()
            ready(bound[0], bound[1])
        await hub.wait_stopped()
    finally:
        server.close()
        await hub.aclose()
        # Hang up before waiting: since Python 3.12 ``wait_closed``
        # returns only once every accepted connection has finished.
        await hub.close_connections()
        await server.wait_closed()


def serve_hub_stdio(hub: AsyncSessionHub, in_stream: IO[str],
                    out_stream: IO[str]) -> int:
    """The stdio compatibility loop for multi-tenant mode.

    The calling thread blocks on ``readline`` exactly like the
    single-session :func:`~repro.serve.stream.serve_stdio` (so SIGTERM
    can break the read via :class:`DrainRequested`), while a private
    event loop on a background thread runs the hub.
    Every response is written and flushed before the next read.

    Args:
        hub: the session hub to serve.
        in_stream: text stream of ndjson requests.
        out_stream: text stream responses are written to.

    Returns:
        The number of responses written.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    hub._m_connections.inc(transport="stdio")
    conn = HubConnection()
    served = 0

    def call(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result()

    try:
        while True:
            line, oversized = _read_capped(
                in_stream.readline, hub.max_line_bytes, "\n")
            if not line:
                break
            if oversized:
                response, keep_going = hub.oversized_response(), True
            else:
                response, keep_going = call(hub.handle_line(conn, line))
            if response:
                out_stream.write(json.dumps(response) + "\n")
                out_stream.flush()
                served += 1
            if not keep_going:
                break
    except DrainRequested:
        pass
    finally:
        try:
            call(hub.aclose())
        except Exception as exc:
            hub._log(f"hub close failed: {type(exc).__name__}: {exc}")
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
    return served
