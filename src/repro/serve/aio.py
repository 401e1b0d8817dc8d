"""The multi-tenant asyncio serving layer: one hub, many named sessions.

:class:`AsyncSessionHub` multiplexes every connected controller over a
:class:`~repro.serve.sessions.SessionManager`.  The concurrency model
is the one the wire protocol promises (``docs/protocol.md``):

- **one writer task per session** — mutating verbs (``insert``,
  ``remove``, ``batch``, ``watch``, ``checkpoint``, ``audit``, and the
  speculative ``speculate`` / ``commit`` / ``discard``) are
  enqueued onto the target session's bounded queue and applied by that
  session's single writer task, so writes serialize per tenant while
  different tenants proceed in parallel (speculative children live
  inside their session's :class:`StreamServer` and inherit its
  admission control and metrics scope);
- **concurrent readers** — ``query``, ``violations``, ``stats``,
  ``ping`` run straight on the executor pool under the session's
  shared read lock, never waiting behind another tenant's writes;
- **admission control per tenant** — a full writer queue answers
  ``overloaded`` with the session's ``retry_after`` immediately,
  without blocking the event loop or the connection;
- **hub verbs** — ``open`` / ``attach`` / ``detach`` / ``sessions``
  manage which session a connection talks to, and ``metrics`` /
  ``health`` answer from the hub without touching any session lock.

Transports: :func:`serve_hub_tcp` (asyncio TCP, many concurrent
connections) and :func:`serve_hub_stdio` (the single-connection stdio
compatibility mode the pre-multi-tenant CLI used).  Both write and
flush every response — including backpressure refusals — before
blocking on the next request frame.
"""

from __future__ import annotations

import asyncio
import json
import threading
from functools import partial
from typing import Any, Callable, Dict, IO, Optional, Tuple

from repro.serve.sessions import SessionError, SessionManager
from repro.serve.stream import (
    DEFAULT_MAX_LINE_BYTES, DrainRequested, StreamServer, WRITE_CMDS,
    _read_capped,
)

#: Mutating verbs routed through a session's writer task.  ``shutdown``
#: is hub-level in multi-tenant mode, hence excluded.
HUB_WRITE_CMDS = frozenset(WRITE_CMDS - {"shutdown"})

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


class _Writer:
    """One session's write pipeline: a bounded queue and its task."""

    def __init__(self, queue: "asyncio.Queue", task: "asyncio.Task") -> None:
        self.queue = queue
        self.task = task


class AsyncSessionHub:
    """Route protocol requests from many connections to named sessions.

    One hub owns one :class:`SessionManager` and must be driven from a
    single asyncio event loop (its writer tasks live there); the
    blocking session work itself runs on the loop's default executor,
    so the loop stays responsive while a backend computes.
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
        self._writers: Dict[str, _Writer] = {}
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
        """Stop writer tasks, then close every session (checkpoints)."""
        self._draining = True
        writers = list(self._writers.values())
        self._writers.clear()
        for writer in writers:
            await writer.queue.put(None)
        for writer in writers:
            try:
                await asyncio.wait_for(writer.task, timeout=10)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                writer.task.cancel()
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
        loop = asyncio.get_running_loop()
        try:
            server = await loop.run_in_executor(
                None, self.manager.attach, target)
        except SessionError as exc:
            return {"ok": False, "error": str(exc)}, True
        if cmd in HUB_WRITE_CMDS:
            return await self._submit_write(server, request)
        response, _keep = await loop.run_in_executor(
            None, server.handle_request, request)
        return response, True

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
            else:
                call = partial(self.manager.attach, name)
            server = await loop.run_in_executor(None, call)
        except SessionError as exc:
            return {"ok": False, "error": str(exc)}, True
        conn.session = server.name
        self._ensure_writer(server)
        return {"ok": True, "session": server.name,
                "seq": server.session.sequence,
                "backend": server.session.backend_name,
                "recovered": server.recovery is not None}, True

    def _ensure_writer(self, server: StreamServer) -> _Writer:
        writer = self._writers.get(server.name)
        if writer is not None and not writer.task.done():
            return writer
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(1, server.max_queue))
        task = asyncio.get_running_loop().create_task(
            self._writer_loop(server, queue))
        writer = _Writer(queue, task)
        self._writers[server.name] = writer
        return writer

    async def _writer_loop(self, server: StreamServer,
                           queue: "asyncio.Queue") -> None:
        """Apply one session's writes in arrival order, one at a time."""
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            request, future = item
            try:
                response, _keep = await loop.run_in_executor(
                    None, server.handle_request, request)
            except Exception as exc:  # the daemon survives any dispatch
                response = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            if not future.done():
                future.set_result(response)
            queue.task_done()

    async def _submit_write(self, server: StreamServer,
                            request: Dict[str, Any]
                            ) -> Tuple[Dict[str, Any], bool]:
        """Enqueue a mutating verb; a full queue is refused immediately."""
        writer = self._ensure_writer(server)
        future = asyncio.get_running_loop().create_future()
        try:
            writer.queue.put_nowait((request, future))
        except asyncio.QueueFull:
            self._m_rejected.inc(session=server.name, reason="overloaded")
            return {"ok": False, "error": "overloaded",
                    "queue_depth": writer.queue.qsize(),
                    "retry_after": server.retry_after}, True
        return await future, True

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
    event loop on a background thread runs the hub's writer tasks.
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
