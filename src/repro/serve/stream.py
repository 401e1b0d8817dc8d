"""One checkpointed verification session behind a line protocol.

:class:`StreamServer` is the single-tenant core of ``deltanet
serve``: it owns one checkpointed
:class:`~repro.api.session.VerificationSession`, applies updates
streamed to it as newline-delimited JSON, answers property queries,
journals every update, and writes background snapshots — so a ``kill
-9`` mid-stream loses nothing: the next start recovers ``snapshot +
journal tail`` and continues at the exact sequence number it died at.
The multi-tenant layers (:mod:`repro.serve.sessions`,
:mod:`repro.serve.aio`) compose many of these, one per named session.

See ``docs/protocol.md`` for the complete wire protocol: framing
rules, every verb's request/response schema, and the error envelopes
(``busy`` / ``overloaded`` / ``frame too large`` / ``draining``, all
carrying ``retry_after``).

Concurrency model (which verb is which: :data:`VERB_CLASS`): writes
take the session's *write* lock, so updates, checkpoints and scrub
steps serialize; so does any request addressed to a speculative child
(a ``spec`` key), because children share ownership structures with the
parent copy-on-write.  Reads take the *read* side and run concurrently
with each other: every backend's queries are in-process traversals.
``health`` and ``metrics`` take no session lock at all, so the daemon
stays observable while an update runs.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Tuple

from repro.api import (
    FlowsOn, LinkDown, Loops, PROPERTY_TYPES, Reachable, SpeculativeSession,
    VerificationSession, Violation, query_from_payload,
)
from repro.core.rules import Action, Rule
from repro.datasets.format import Op
from repro.integrity import Scrubber
from repro.persist import RecoveryInfo, SessionStore
from repro.serve.metrics import MetricsRegistry

#: Default cap on one request frame.  A line longer than this is
#: answered with ``{"ok": false, "error": "frame too large"}`` and
#: drained without ever being buffered whole — a runaway (or hostile)
#: client cannot balloon the daemon's memory with one giant line.
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: The one verb-class table, read by lock selection here and by the hub's
#: routing.  ``point``: one journaled update, which the hub may apply on
#: its event loop (a ``"spec"``-scoped one, or one to a session watching a
#: property that is not ``delta_bounded``, counts as ``lane``); ``lane``:
#: a write long by nature, always on a thread; ``read``: the shared side
#: of the session lock (also an unknown verb's class); ``free``: no
#: session lock; ``hub``: the hub's own — a lone :class:`StreamServer`
#: knows only ``shutdown``, as a write.
VERB_CLASS: Dict[str, str] = {
    "insert": "point", "remove": "point",
    "batch": "lane", "watch": "lane", "checkpoint": "lane", "audit": "lane",
    "speculate": "lane", "commit": "lane", "discard": "lane",
    "query": "read", "violations": "read", "stats": "read", "ping": "read",
    "health": "free", "metrics": "free", "shutdown": "hub",
    "open": "hub", "attach": "hub", "detach": "hub", "sessions": "hub",
}


class DrainRequested(Exception):
    """Raised in the transport loop when SIGTERM asks for a drain."""


class ReadWriteLock:
    """A writer-preferring reader/writer lock with timeouts.

    Many readers may hold the lock together; a writer holds it alone.
    Waiting writers block *new* readers (writer preference), so a
    steady query stream cannot starve updates.  The write side is
    reentrant per-thread, and a thread holding the write lock may take
    the read side without deadlocking (it is counted as nested write
    depth) — mirroring the RLock semantics the single-lock server had.
    """

    def __init__(self) -> None:
        """Create an unheld lock."""
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: Optional[threading.Thread] = None
        self._writer_depth = 0
        self._writers_waiting = 0

    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Acquire shared access; returns False on timeout."""
        me = threading.current_thread()
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            if self._writer is me:
                self._writer_depth += 1
                return True
            while self._writer is not None or self._writers_waiting:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            self._readers += 1
            return True

    def release_read(self) -> None:
        """Release shared access (or one nested write-side hold)."""
        me = threading.current_thread()
        with self._cond:
            if self._writer is me:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Acquire exclusive access; returns False on timeout."""
        me = threading.current_thread()
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            if self._writer is me:
                self._writer_depth += 1
                return True
            self._writers_waiting += 1
            try:
                while self._readers or self._writer is not None:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1
            return True

    def release_write(self) -> None:
        """Release exclusive access (one level of reentrancy)."""
        with self._cond:
            if self._writer is not threading.current_thread():
                raise RuntimeError("release_write by a non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()


class _WriteLockFacade:
    """``server._lock`` compatibility: the exclusive side as a plain lock.

    Pre-package code (and the fault-injection tests) wedge the daemon
    with ``with server._lock: ...`` and expect lock-free ``health`` to
    keep answering; this object preserves that surface over the
    reader/writer lock.
    """

    def __init__(self, rw: ReadWriteLock) -> None:
        self._rw = rw

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Acquire the write side; returns False on timeout."""
        return self._rw.acquire_write(timeout)

    def release(self) -> None:
        """Release the write side."""
        self._rw.release_write()

    def __enter__(self) -> "_WriteLockFacade":
        self._rw.acquire_write()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._rw.release_write()


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of protocol payloads (cycles, spans)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(item) for item in value), key=repr)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def _violation_payload(violation: Violation) -> Dict[str, Any]:
    return {"property": violation.property_name,
            "signature": _jsonable(violation.signature),
            "detail": violation.detail}


def rule_from_payload(session: VerificationSession,
                      payload: Dict[str, Any]) -> Rule:
    """Build a rule from a request dict (CIDR ``prefix`` or ``lo``/``hi``).

    Args:
        session: the session whose width validates a ``prefix`` form.
        payload: the wire ``rule`` object — ``rid``, ``priority``,
            ``source``, either ``prefix`` or ``lo``/``hi``, optional
            ``target`` and ``action`` (``"forward"`` default,
            ``"drop"``).

    Returns:
        The constructed :class:`~repro.core.rules.Rule`.

    Raises:
        KeyError: a required field is missing.
        ValueError: the prefix does not parse or is out of range.
    """
    action = (Action.DROP if payload.get("action") == "drop"
              else Action.FORWARD)
    if "prefix" in payload:
        return session.make_rule(
            payload["rid"], payload["prefix"], payload["priority"],
            payload["source"], payload.get("target"), action)
    if action is Action.DROP:
        return Rule.drop(payload["rid"], payload["lo"], payload["hi"],
                         payload["priority"], payload["source"])
    return Rule.forward(payload["rid"], payload["lo"], payload["hi"],
                        payload["priority"], payload["source"],
                        payload["target"])


class StreamServer:
    """One checkpointed session behind a line-oriented command surface.

    Thread-safe: transports may dispatch from several connections.
    Mutating commands serialize on the session's write lock; read-only
    commands share the read side (see the module docstring for the
    exact split).  ``checkpoint_every`` bounds journal-replay work
    after a crash; ``checkpoint_interval`` (seconds) additionally
    snapshots quiet sessions in the background.

    Backpressure: ``max_queue`` bounds how many requests may wait for
    the session lock at once and ``request_timeout`` how long one may
    wait; breaching either yields an immediate ``retry_after`` error
    response instead of an unbounded queue.  (The timeout bounds time
    *waiting to start* — Python cannot abort a dispatch already
    running.)

    ``name`` identifies this session in multi-tenant deployments and
    labels every metric sample; ``metrics`` shares one
    :class:`~repro.serve.metrics.MetricsRegistry` across sessions (a
    private registry is created when omitted).
    """

    def __init__(self, store_dir: str, engine: str = "deltanet",
                 width: int = 32, checkpoint_every: int = 1000,
                 checkpoint_interval: Optional[float] = None,
                 properties: Iterable[str] = ("loops",),
                 log: Callable[[str], None] = lambda line: None,
                 request_timeout: Optional[float] = None,
                 max_queue: int = 64,
                 retry_after: float = 1.0,
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
                 scrub_interval: Optional[float] = None,
                 scrub_budget: int = 4096,
                 name: str = "default",
                 metrics: Optional[MetricsRegistry] = None,
                 **backend_options: Any) -> None:
        """Recover (or create) the session under ``store_dir`` and start
        the background checkpoint/scrub tickers when configured.

        Args:
            store_dir: checkpoint/journal directory; recovered from
                when it already holds state (``engine`` is then
                ignored in favor of the store's backend).
            engine: backend registry name for a fresh session.
            width: packet header width in bits for a fresh session.
            checkpoint_every: snapshot after this many journaled ops.
            checkpoint_interval: also snapshot every this many seconds
                in the background (``None`` disables the ticker).
            properties: property names watched on a fresh session (and
                added, with a checkpoint, to a recovered one).
            log: sink for one-line operational notes.
            request_timeout: max seconds a request may wait for the
                session lock before an immediate ``busy`` response
                (``None`` waits forever).
            max_queue: max requests waiting for the session before
                ``overloaded`` backpressure.
            retry_after: the ``retry_after`` hint (seconds) carried by
                backpressure responses.
            max_line_bytes: request frame cap; longer lines are
                refused with ``frame too large``.
            scrub_interval: run one budgeted integrity-scrub step every
                this many seconds (``None`` disables the ticker).
            scrub_budget: max digest entries re-verified per scrub step.
            name: session name (multi-tenant identity; metrics label).
            metrics: shared registry; a private one when ``None``.
            **backend_options: forwarded to the backend factory.

        Raises:
            repro.persist.CorruptStoreError: the store exists but fails
                its integrity checks and cannot be recovered.
        """
        self._rw = ReadWriteLock()
        self._lock = _WriteLockFacade(self._rw)
        self._log = log
        self.name = name
        self.checkpoint_every = int(checkpoint_every)
        self.request_timeout = request_timeout
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.max_line_bytes = max_line_bytes
        self._admission = threading.Lock()
        self._waiters = 0
        #: Writes a transport (the hub) holds in front of this session.
        self.backlog: Callable[[], int] = lambda: 0
        self._draining = False
        self._busy = False
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._specs: Dict[str, SpeculativeSession] = {}
        self._spec_counter = 0
        self._instrument()
        self.store = SessionStore(store_dir)
        self.recovery: Optional[RecoveryInfo] = None
        if self.store.exists():
            self.session, self.recovery = self.store.recover(
                **backend_options)
            log(f"recovered sequence {self.recovery.sequence} "
                f"(snapshot {self.recovery.snapshot_sequence} + "
                f"{self.recovery.replayed} journaled ops"
                + (", torn tail truncated)" if self.recovery.torn_tail
                   else ")"))
            if engine not in (self.session.backend_name, "deltanet"):
                log(f"note: store was written by backend "
                    f"{self.session.backend_name!r}; requested "
                    f"--engine {engine!r} is ignored on recovery")
            # Subscriptions live in the snapshot; requested properties
            # the recovered session is not yet watching are added (and
            # checkpointed) rather than silently dropped.
            watching = {p.name for p in self.session.properties}
            missing = [name for name in properties if name not in watching]
            for prop_name in missing:
                self._watch(prop_name, {})
            if missing:
                log(f"watching additionally requested properties: "
                    f"{', '.join(missing)}")
            if missing or self.recovery.replayed:
                self.store.checkpoint(self.session)
        else:
            self.session = VerificationSession(engine, width=width,
                                               **backend_options)
            for prop_name in properties:
                self._watch(prop_name, {})
            self.store.checkpoint(self.session)
            log(f"fresh session ({engine}, width={width}) in {store_dir}")
        self._last_checkpoint = self.session.sequence
        self.scrubber = Scrubber(self.session, entries_per_step=scrub_budget)
        self._m_sequence.watch((self.name,), lambda: self.session.sequence)
        self._m_depth.watch((self.name,), self.queue_depth)
        self._shutdown = threading.Event()
        self._ticker: Optional[threading.Thread] = None
        if checkpoint_interval:
            self._ticker = threading.Thread(
                target=self._background_checkpoints,
                args=(checkpoint_interval,), daemon=True)
            self._ticker.start()
        self._scrub_ticker: Optional[threading.Thread] = None
        if scrub_interval:
            self._scrub_ticker = threading.Thread(
                target=self._background_scrub,
                args=(scrub_interval,), daemon=True)
            self._scrub_ticker.start()

    # -- lifecycle ---------------------------------------------------------------

    def _instrument(self) -> None:
        """Register this session's instruments on the shared registry."""
        registry = self.metrics
        self._m_requests = registry.counter(
            "deltanet_requests_total",
            "Requests dispatched, by session and verb.",
            ("session", "verb"))
        self._m_rejected = registry.counter(
            "deltanet_rejected_total",
            "Requests refused before dispatch, by session and reason.",
            ("session", "reason"))
        self._m_errors = registry.counter(
            "deltanet_errors_total",
            "Dispatches that raised, by session and verb.",
            ("session", "verb"))
        self._m_violations = registry.counter(
            "deltanet_violations_total",
            "Property violations delivered, by session.",
            ("session",))
        self._m_checkpoints = registry.counter(
            "deltanet_checkpoints_total",
            "Snapshots written, by session.",
            ("session",))
        self._m_latency = registry.histogram(
            "deltanet_request_seconds",
            "Dispatch latency in seconds, by session and verb.",
            ("session", "verb"))
        self._m_sequence = registry.gauge(
            "deltanet_session_sequence",
            "Current committed sequence number, by session.",
            ("session",))
        self._m_depth = registry.gauge(
            "deltanet_write_queue_depth",
            "Requests admitted and not yet answered, by session.",
            ("session",))

    def _background_checkpoints(self, interval: float) -> None:
        while not self._shutdown.wait(interval):
            try:
                with self._lock:
                    if self.session.sequence > self._last_checkpoint:
                        self._checkpoint()
            except Exception as exc:
                # A transient failure (disk full, fs hiccup) must not
                # kill the ticker — durability degrades for one tick,
                # loudly, instead of silently forever.
                self._log(f"background checkpoint failed: "
                          f"{type(exc).__name__}: {exc}")

    def _background_scrub(self, interval: float) -> None:
        """One budgeted scrub step per tick, interleaving with requests.

        Each step verifies at most ``scrub_budget`` digest entries under
        the session lock, so the audit shares the session fairly with
        traffic instead of stalling it for a whole pass.  A pass that
        ends unclean (mismatch detected, repair or escalation recorded
        in the scrubber's counters) is logged; the counters themselves
        surface through ``health``.
        """
        while not self._shutdown.wait(interval):
            try:
                with self._lock:
                    progress = self.scrubber.step()
                if progress.get("pass_complete"):
                    report = self.scrubber.last_report
                    if report is not None and not report.ok:
                        self._log(f"background scrub found problems: "
                                  f"{dict(report)}")
            except Exception as exc:
                # Same contract as the checkpoint ticker: a failing
                # scrub step degrades auditing for one tick, loudly.
                self._log(f"background scrub failed: "
                          f"{type(exc).__name__}: {exc}")

    def _checkpoint(self) -> int:
        sequence = self.store.checkpoint(self.session)
        self._last_checkpoint = sequence
        self._m_checkpoints.inc(session=self.name)
        self._log(f"checkpoint at sequence {sequence}")
        return sequence

    def close(self) -> None:
        """Clean shutdown: final checkpoint, stop the tickers, close
        the session, release the metric gauge.  Idempotent — the drain path
        and a ``finally`` may both reach it.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5)
        if self._scrub_ticker is not None:
            self._scrub_ticker.join(timeout=5)
        with self._lock:
            for child in self._specs.values():
                child.discard()
            self._specs.clear()
            if self.session.sequence > self._last_checkpoint:
                self._checkpoint()
            self.store.close()
            self.session.close()
        self._m_sequence.unwatch((self.name,))
        self._m_depth.unwatch((self.name,))

    def request_drain(self) -> None:
        """Stop admitting work; the transport loop exits after the
        in-flight request and the caller's ``close()`` writes the final
        checkpoint.  Safe from a signal handler.
        """
        self._draining = True

    @property
    def draining(self) -> bool:
        """Whether a drain was requested (new work is being refused)."""
        return self._draining

    # -- command dispatch --------------------------------------------------------

    def oversized_response(self) -> Dict[str, Any]:
        """The answer for a frame longer than ``max_line_bytes``."""
        self._m_rejected.inc(session=self.name, reason="frame-too-large")
        return {"ok": False, "error": "frame too large",
                "max_line_bytes": self.max_line_bytes}

    def handle_line(self, line: str) -> Tuple[Dict[str, Any], bool]:
        """Process one raw request line.

        Args:
            line: one ndjson frame (the trailing newline may be
                included).

        Returns:
            ``(response, keep_going)`` — the JSON-serializable response
            object (empty dict for a blank line, which transports skip)
            and whether the connection should stay open.
        """
        # The frame cap is in *bytes*; text transports hand us str, so
        # re-measure in UTF-8 when the character count alone cannot
        # prove the line fits (multi-byte characters must not let a
        # frame 4x the cap sneak past a character-based check).
        overlong = len(line) > self.max_line_bytes + 1
        if not overlong and len(line) * 4 > self.max_line_bytes + 1:
            overlong = (len(line.encode("utf-8", "replace"))
                        > self.max_line_bytes + 1)
        if overlong:  # +1 above allows for the newline
            return self.oversized_response(), True
        line = line.strip()
        if not line:
            return {}, True
        try:
            request = json.loads(line)
        except ValueError as exc:
            self._m_rejected.inc(session=self.name, reason="bad-json")
            return {"ok": False, "error": f"bad JSON: {exc}"}, True
        return self.handle_request(request)

    def handle_request(self, request: Any, wait: bool = True
                       ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """Admit, lock and dispatch one parsed request object.

        This is the transport-independent entry point (the asyncio hub
        calls it with already-parsed frames).  Lock-free commands
        (``health``, ``metrics``) answer immediately; everything else
        passes admission control (``max_queue`` → ``overloaded``),
        acquires the read or write side of the session lock
        (``request_timeout`` → ``busy``) and dispatches.

        Args:
            request: the decoded JSON value; anything but an object
                with a ``cmd`` string is answered with an error.
            wait: ``False`` from a thread that must not block (the
                hub's event loop): the response is ``None``, nothing
                counted or changed, unless this is a point update that
                cannot block or run long — every watched property
                ``delta_bounded``, the session lock free right now, no
                checkpoint due.

        Returns:
            ``(response, keep_going)`` exactly as :meth:`handle_line`.
        """
        cmd = request.get("cmd") if isinstance(request, dict) else None
        if cmd == "health":
            # Deliberately lock-free: health must answer while an
            # update holds the session.  The fields are snapshots,
            # racy by design.
            self._m_requests.inc(session=self.name, verb="health")
            return self._health(), not self._draining
        if cmd == "metrics":
            self._m_requests.inc(session=self.name, verb="metrics")
            return {"ok": True,
                    "metrics": self.metrics.render_text()}, \
                not self._draining
        if not wait and (VERB_CLASS.get(cmd) != "point" or "spec" in request
                         or not all(getattr(prop, "delta_bounded", False)
                                    for prop in self.session.properties)):
            return None, True
        if self._draining:
            self._m_rejected.inc(session=self.name, reason="draining")
            return {"ok": False, "error": "draining",
                    "retry_after": self.retry_after}, False
        with self._admission:
            if self._waiters >= self.max_queue:
                self._m_rejected.inc(session=self.name, reason="overloaded")
                return {"ok": False, "error": "overloaded",
                        "queue_depth": self._waiters,
                        "retry_after": self.retry_after}, True
            self._waiters += 1
        exclusive = (VERB_CLASS.get(cmd, "read") != "read"
                     or (isinstance(request, dict) and "spec" in request))
        acquired = False
        try:
            timeout = self.request_timeout if wait else 0
            if exclusive:
                acquired = self._rw.acquire_write(timeout)
            else:
                acquired = self._rw.acquire_read(timeout)
            if not wait and not (acquired and self.checkpoint_every > (
                    self.session.sequence + 1 - self._last_checkpoint)):
                return None, True
            if not acquired:
                self._m_rejected.inc(session=self.name, reason="busy")
                return {"ok": False,
                        "error": f"busy: session held longer than "
                                 f"{self.request_timeout}s",
                        "retry_after": self.retry_after}, True
            self._busy = True
            started = time.perf_counter()
            try:
                response, keep_going = self._dispatch(request)
            finally:
                self._busy = False
            verb = cmd if isinstance(cmd, str) else "invalid"
            self._m_requests.inc(session=self.name, verb=verb)
            self._m_latency.observe(time.perf_counter() - started,
                                    session=self.name, verb=verb)
            # A drain that arrived mid-dispatch still gets this
            # request's real response; the transport exits afterwards.
            return response, keep_going and not self._draining
        except Exception as exc:  # protocol errors must not kill the daemon
            self._m_errors.inc(
                session=self.name,
                verb=cmd if isinstance(cmd, str) else "invalid")
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}, True
        finally:
            if acquired:
                if exclusive:
                    self._rw.release_write()
                else:
                    self._rw.release_read()
            with self._admission:
                self._waiters -= 1

    def queue_depth(self) -> int:
        """Requests admitted and not yet answered, here or in front."""
        return self._waiters + self.backlog()

    def _health(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "status": "draining" if self._draining else "ok",
            "session": self.name,
            "seq": self.session.sequence,
            "backend": self.session.backend_name,
            "draining": self._draining,
            "queue_depth": self.queue_depth(),
            "max_queue": self.max_queue,
            "request_timeout": self.request_timeout,
            "last_checkpoint": self._last_checkpoint,
            "scrub": _jsonable(self.scrubber.status()),
            # Kept for the additive wire protocol: no backend has
            # worker processes.
            "workers": {},
        }

    def apply_op(self, op: Op) -> Dict[str, Any]:
        """Apply one dataset op under the write lock (the SDN-bridge
        entry point).

        Args:
            op: the :class:`~repro.datasets.format.Op` to apply.

        Returns:
            The protocol update response (``seq``, ``violations``,
            ``latency_us``).
        """
        self._rw.acquire_write()
        try:
            return self._apply_op_locked(op)
        finally:
            self._rw.release_write()

    def _apply_op_locked(self, op: Op) -> Dict[str, Any]:
        """The journaled update path; caller holds the write lock."""
        result = self.session.apply(op)
        self.store.record(op, self.session.sequence)
        self._maybe_checkpoint()
        return self._update_response(result)

    def _maybe_checkpoint(self) -> None:
        if self.session.sequence - self._last_checkpoint \
                >= self.checkpoint_every:
            self._checkpoint()

    def _update_response(self, result) -> Dict[str, Any]:
        if result.violations:
            self._m_violations.inc(len(result.violations),
                                   session=self.name)
        return {
            "ok": True,
            "seq": self.session.sequence,
            "violations": [_violation_payload(v) for v in result.violations],
            "latency_us": round(result.latency * 1e6, 1),
        }

    def _watch(self, name: str, args: Dict[str, Any]) -> bool:
        """Subscribe a property; idempotent — an identical subscription
        (same name and spec) is not added twice, so a defensive
        re-watch after a client reconnect cannot double every future
        violation delivery.  Returns whether anything was added.
        """
        from repro.api.properties import property_spec

        cls = PROPERTY_TYPES.get(name)
        if cls is None:
            raise ValueError(
                f"unknown property {name!r}; known: "
                f"{', '.join(sorted(PROPERTY_TYPES))}")
        candidate = cls(**args)
        spec = property_spec(candidate)
        for existing in self.session.properties:
            if (getattr(existing, "name", None) == name
                    and property_spec(existing) == spec):
                return False
        self.session.watch(candidate)
        return True

    def _dispatch(self, request: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        cmd = request.get("cmd")
        if cmd == "speculate":
            spec_id = f"spec-{self._spec_counter}"
            self._spec_counter += 1
            self._specs[spec_id] = self.session.speculate()
            return {"ok": True, "seq": self.session.sequence,
                    "spec": spec_id}, True
        if cmd == "commit":
            return self._commit_spec(request["spec"]), True
        if cmd == "discard":
            spec_id = request["spec"]
            child = self._specs.pop(spec_id, None)
            if child is None:
                return {"ok": False,
                        "error": f"unknown speculation {spec_id!r}"}, True
            child.discard()
            return {"ok": True, "seq": self.session.sequence,
                    "spec": spec_id, "discarded": True}, True
        if "spec" in request:
            return self._dispatch_speculative(cmd, request), True
        if cmd == "insert":
            rule = rule_from_payload(self.session, request["rule"])
            return self._apply_op_locked(Op.insert(rule)), True
        if cmd == "remove":
            return self._apply_op_locked(Op.remove(request["rid"])), True
        if cmd == "batch":
            inserts = [rule_from_payload(self.session, payload)
                       for payload in request.get("insert", ())]
            removals = list(request.get("remove", ()))
            result = self.session.apply_batch(inserts, removals)
            ops = [Op.remove(rid) for rid in removals]
            ops += [Op.insert(rule) for rule in inserts]
            if ops:  # an empty batch is a legal no-op, nothing to journal
                self.store.record_batch(ops, self.session.sequence)
                self._maybe_checkpoint()
            return self._update_response(result), True
        if cmd == "watch":
            if self._watch(request["property"], request.get("args", {})):
                # Subscriptions live in the snapshot, not the journal —
                # checkpoint now so a crash cannot forget the watch.
                self._checkpoint()
            return {"ok": True, "seq": self.session.sequence,
                    "watching": [p.name for p in self.session.properties]}, True
        if cmd == "query":
            if "query" in request:
                result = self.session.query(
                    query_from_payload(request["query"]))
                return {"ok": True, "seq": self.session.sequence,
                        "result": _jsonable(result.to_payload())}, True
            return {"ok": True, "seq": self.session.sequence,
                    "result": self._query(self.session, request)}, True
        if cmd == "violations":
            return {"ok": True, "seq": self.session.sequence,
                    "violations": [_violation_payload(v)
                                   for v in self.session.violations()]}, True
        if cmd == "stats":
            stats = dict(self.session.stats())
            stats["sequence"] = self.session.sequence
            stats["watching"] = [p.name for p in self.session.properties]
            digest = self.session.state_digest()
            if digest is not None:
                stats["state_digest"] = digest
            return {"ok": True, "stats": _jsonable(stats)}, True
        if cmd == "checkpoint":
            return {"ok": True, "seq": self._checkpoint()}, True
        if cmd == "audit":
            # One full scrub pass, synchronously, under the session
            # lock the dispatcher already holds — the response reports
            # exactly the state the pass verified.
            report = self.scrubber.run_full()
            return {"ok": True, "seq": self.session.sequence,
                    "clean": report.ok,
                    "digest": self.session.state_digest(),
                    "report": _jsonable(dict(report)),
                    "scrub": _jsonable(self.scrubber.status())}, True
        if cmd == "ping":
            return {"ok": True, "seq": self.session.sequence}, True
        if cmd == "shutdown":
            return {"ok": True, "seq": self.session.sequence,
                    "closing": True}, False
        return {"ok": False, "error": f"unknown cmd {cmd!r}"}, True

    def _commit_spec(self, spec_id: str) -> Dict[str, Any]:
        """Replay a speculative child's buffered ops through the
        journaled update path, then discard the child.  Every replayed
        op is recorded exactly as a direct update would be, so the
        committed state survives a crash like any other.
        """
        child = self._specs.get(spec_id)
        if child is None:
            return {"ok": False, "error": f"unknown speculation {spec_id!r}"}
        child.assert_fresh()
        ops = child.buffered_ops()
        del self._specs[spec_id]
        try:
            responses = [self._apply_op_locked(op) for op in ops]
        finally:
            child.discard()
        violations = [v for response in responses
                      for v in response["violations"]]
        return {"ok": True, "seq": self.session.sequence, "spec": spec_id,
                "committed": len(ops), "violations": violations}

    def _dispatch_speculative(self, cmd: Any,
                              request: Dict[str, Any]) -> Dict[str, Any]:
        """Route an update or query to a named speculative child.

        Speculative updates are *not* journaled — they exist only in
        the child until ``commit`` replays them through the durable
        path — so the response reports the buffered-op count instead
        of a committed sequence number.
        """
        spec_id = request["spec"]
        child = self._specs.get(spec_id)
        if child is None:
            return {"ok": False, "error": f"unknown speculation {spec_id!r}"}
        if cmd == "insert":
            rule = rule_from_payload(child, request["rule"])
            return self._spec_update_response(spec_id, child,
                                              child.insert(rule))
        if cmd == "remove":
            return self._spec_update_response(spec_id, child,
                                              child.remove(request["rid"]))
        if cmd == "batch":
            inserts = [rule_from_payload(child, payload)
                       for payload in request.get("insert", ())]
            removals = list(request.get("remove", ()))
            result = child.apply_batch(inserts, removals)
            return self._spec_update_response(spec_id, child, result)
        if cmd == "query":
            if "query" in request:
                result = child.query(query_from_payload(request["query"]))
                return {"ok": True, "spec": spec_id,
                        "result": _jsonable(result.to_payload())}
            return {"ok": True, "spec": spec_id,
                    "result": self._query(child, request)}
        return {"ok": False,
                "error": f"cmd {cmd!r} cannot target a speculation"}

    def _spec_update_response(self, spec_id: str, child: SpeculativeSession,
                              result) -> Dict[str, Any]:
        return {
            "ok": True,
            "spec": spec_id,
            "buffered": len(child.buffered_ops()),
            "violations": [_violation_payload(v) for v in result.violations],
            "latency_us": round(result.latency * 1e6, 1),
        }

    def _query(self, session: VerificationSession,
               request: Dict[str, Any]) -> Any:
        what = request.get("what")
        if what == "loops":
            return [_jsonable(cycle)
                    for cycle in session.query(Loops()).violations]
        if what == "blackholes":
            return {str(node): _jsonable(spans) for node, spans
                    in session.find_blackholes().items()}
        if what == "reachable":
            return _jsonable(session.query(
                Reachable(request["src"], request["dst"])).spans)
        if what == "flows_on":
            return _jsonable(session.query(
                FlowsOn((request["source"], request["target"]))).spans)
        if what == "what_if_link_down":
            return _jsonable(session.query(
                LinkDown((request["source"], request["target"]))).spans)
        if what == "links":
            return [_jsonable(tuple(link)) for link in session.links()]
        if what == "rules":
            return sorted(session.rules())
        raise ValueError(f"unknown query {what!r}")


# -- transports ----------------------------------------------------------------


def _read_capped(readline: Callable[[int], Any], limit: int,
                 newline: Any) -> Tuple[Any, bool]:
    """Read one line of at most ``limit`` bytes/chars via ``readline``.

    Returns ``(line, oversized)``.  An oversized line is *drained* —
    read and discarded chunk by chunk up to its terminating newline —
    so the daemon never holds more than ``limit`` of it in memory and
    the stream stays framed for the next request.
    """
    line = readline(limit + 1)
    if len(line) <= limit or line.endswith(newline):
        return line, False
    while True:
        chunk = readline(limit)
        if not chunk or chunk.endswith(newline):
            return line, True


def serve_stdio(server: StreamServer, in_stream: IO[str],
                out_stream: IO[str]) -> int:
    """The ndjson request/response loop over text streams.

    Every response — including backpressure refusals (``busy``,
    ``overloaded``, ``frame too large``, ``draining``) — is written
    *and flushed* before the loop blocks reading the next request, so
    a client waiting on its reply never deadlocks against a daemon
    waiting on its next line.

    Args:
        server: the session daemon to dispatch into.
        in_stream: text stream of ndjson requests (e.g. ``sys.stdin``).
        out_stream: text stream responses are written to.

    Returns:
        The number of requests served.  A :class:`DrainRequested`
        raised by the SIGTERM handler (while the loop is blocked
        reading) exits the loop cleanly; the caller's
        ``server.close()`` then writes the final checkpoint exactly as
        a protocol ``shutdown`` would.
    """
    served = 0
    try:
        while True:
            line, oversized = _read_capped(
                in_stream.readline, server.max_line_bytes, "\n")
            if not line:
                break
            if oversized:
                response, keep_going = server.oversized_response(), True
            else:
                response, keep_going = server.handle_line(line)
            if response:
                out_stream.write(json.dumps(response) + "\n")
                out_stream.flush()
                served += 1
            if not keep_going:
                break
    except DrainRequested:
        pass
    return served


def serve_socket(server: StreamServer, host: str = "127.0.0.1",
                 port: int = 0,
                 ready: Optional[Callable[[str, int], None]] = None) -> None:
    """Serve ndjson over TCP; one thread per connection, shared session.

    Blocks until a client sends ``shutdown`` (or SIGTERM drains the
    daemon — see :func:`install_sigterm_drain`).  ``ready(host, port)``
    fires once the socket is listening (port 0 picks a free port).

    Responses — including error envelopes under backpressure — are
    flushed to the wire before the handler blocks on the next frame
    (the writer is unbuffered: each reply reaches ``sendall`` whole).
    A client that disconnects mid-request (reset, broken pipe) costs
    its own connection thread nothing but a log line — never a
    traceback, never the daemon.

    Args:
        server: the session daemon to dispatch into.
        host: interface to bind.
        port: TCP port (0 picks a free one).
        ready: callback fired with the bound ``(host, port)``.
    """
    stop = threading.Event()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            try:
                while True:
                    raw, oversized = _read_capped(
                        self.rfile.readline, server.max_line_bytes, b"\n")
                    if not raw:
                        return
                    if oversized:
                        response, keep_going = (server.oversized_response(),
                                                True)
                    else:
                        response, keep_going = server.handle_line(
                            raw.decode("utf-8", "replace"))
                    if response:
                        self.wfile.write(
                            (json.dumps(response) + "\n").encode("utf-8"))
                        self.wfile.flush()
                    if not keep_going:
                        stop.set()
                        return
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                # The client vanished mid-request; the update (if any)
                # is already applied and journaled — only the response
                # was lost, and only this connection is affected.
                server._log(f"client disconnected mid-request: "
                            f"{type(exc).__name__}: {exc}")

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as tcp:
        if ready is not None:
            ready(*tcp.server_address[:2])
        worker = threading.Thread(target=tcp.serve_forever, daemon=True)
        worker.start()
        try:
            stop.wait()
        finally:
            # Runs on clean shutdown AND when DrainRequested unwinds
            # stop.wait(): either way the listener closes, in-flight
            # handlers finish, and the caller's close() checkpoints.
            tcp.shutdown()
            worker.join(timeout=5)


def install_sigterm_drain(server: StreamServer):
    """Route SIGTERM into a graceful drain; returns the prior handler.

    The handler marks the server draining; if the main thread is idle
    (blocked reading stdin or in ``stop.wait()``) it additionally
    raises :class:`DrainRequested` there to break the block.  If a
    dispatch is running, nothing is raised — interrupting it could
    leave the session half-updated — and the transport loop exits right
    after it completes.  Repeated SIGTERMs while already draining are
    no-ops: supervisors (systemd, timeout) commonly re-signal, and a
    second raise would land inside the final checkpoint and abort it.
    Returns ``None`` when signals cannot be installed (not the main
    thread, e.g. under a test runner).
    """
    import signal

    def handler(signum, frame):
        if server.draining:
            return
        server.request_drain()
        if not server._busy:
            raise DrainRequested()

    try:
        return signal.signal(signal.SIGTERM, handler)
    except ValueError:
        return None


def request_over_socket(host: str, port: int,
                        requests: Iterable[Dict[str, Any]],
                        timeout: float = 10.0) -> List[Dict[str, Any]]:
    """Small client helper: send requests in lockstep, collect responses.

    Args:
        host: daemon host.
        port: daemon port.
        requests: JSON-serializable request objects, sent one per line.
        timeout: socket timeout in seconds.

    Returns:
        One decoded response per request (shorter if the daemon closed
        the connection mid-conversation).
    """
    responses: List[Dict[str, Any]] = []
    with socket.create_connection((host, port), timeout=timeout) as conn:
        stream = conn.makefile("rw", encoding="utf-8", newline="\n")
        for request in requests:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            line = stream.readline()
            if not line:
                break
            responses.append(json.loads(line))
    return responses


# -- the SDN bridge ------------------------------------------------------------


def attach_controller(controller, server: StreamServer,
                      on_violation: Optional[Callable[[Dict[str, Any]], None]]
                      = None) -> None:
    """Verify an SDN controller's committed operations as they land.

    Works with any controller exposing ``subscribe(listener)`` and
    emitting :class:`~repro.datasets.format.Op` at commit time, such as
    :class:`repro.sdn.Controller`.  Each committed op flows through the
    daemon's journaled, checkpointed update path; ``on_violation`` fires
    per delivered violation payload.
    """

    def _listener(op: Op) -> None:
        response = server.apply_op(op)
        if on_violation is not None:
            for payload in response["violations"]:
                on_violation(payload)

    controller.subscribe(_listener)


def wait_until_idle(server: StreamServer) -> int:
    """Testing aid: the current sequence once in-flight commands drain."""
    with server._lock:
        return server.session.sequence
