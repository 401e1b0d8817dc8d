"""Named verification sessions: one store, one daemon core per tenant.

A :class:`SessionManager` owns a *root* directory; every named session
lives in ``<root>/<name>/`` as an ordinary
:class:`~repro.persist.SessionStore` (snapshot + journal), wrapped in
its own :class:`~repro.serve.stream.StreamServer`.  Each session
therefore keeps the full single-tenant contract — crash-safe
persistence, per-session checkpoint and scrub tickers, admission
control, health — while the manager adds the multi-tenant concerns:
name validation (no path tricks), lazy recovery of sessions found on
disk, a shared :class:`~repro.serve.metrics.MetricsRegistry`, and a
coherent ``sessions`` listing.

Thread-safe: the asyncio hub opens and recovers sessions from
executor threads (and looks up open ones from its event loop);
creation is serialized on one manager lock and each name maps to
exactly one live server.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.serve.metrics import MetricsRegistry
from repro.serve.stream import StreamServer

#: Session names are one path component: alphanumeric start, then
#: alphanumerics, dots, underscores and dashes, at most 64 chars.
#: This (not escaping) is the defense against ``../`` store escapes.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


class SessionError(ValueError):
    """A session operation failed (bad name, unknown session, closed)."""


def validate_session_name(name: Any) -> str:
    """Return ``name`` if it is a legal session name.

    Args:
        name: the candidate name from the wire.

    Returns:
        The validated name, unchanged.

    Raises:
        SessionError: not a string, empty, too long, or containing
            anything beyond ``[A-Za-z0-9._-]`` (first char must be
            alphanumeric, so ``.`` and ``..`` are impossible).
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SessionError(
            f"bad session name {name!r}: need 1-64 chars of "
            f"[A-Za-z0-9._-], starting with a letter or digit")
    return name


class SessionManager:
    """Open, look up, enumerate and close named sessions under a root.

    ``defaults`` are the :class:`StreamServer` keyword arguments every
    session is created with (engine, width, checkpoint cadence,
    backpressure limits, ...); per-``open`` overrides win over them.
    All sessions share this manager's metrics registry, so one
    ``metrics`` scrape covers every tenant.
    """

    def __init__(self, root: str, *,
                 metrics: Optional[MetricsRegistry] = None,
                 log: Callable[[str], None] = lambda line: None,
                 defaults: Optional[Dict[str, Any]] = None) -> None:
        """Create a manager over ``root`` (the directory is created).

        Args:
            root: directory holding one subdirectory per session.
            metrics: shared registry (a fresh one when ``None``).
            log: sink for operational notes; lines are prefixed with
                the session name they concern.
            defaults: baseline ``StreamServer`` keyword arguments.
        """
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._log = log
        self._defaults = dict(defaults or {})
        self._lock = threading.Lock()
        self._servers: Dict[str, StreamServer] = {}
        self._closed = False

    def open(self, name: str, **overrides: Any) -> StreamServer:
        """Open (create or recover) the session called ``name``.

        Idempotent: an already-open session is returned as-is (the
        overrides are ignored — the running daemon's configuration
        wins).  A session directory already on disk is recovered.

        Args:
            name: the session name (validated).
            **overrides: ``StreamServer`` keyword arguments layered
                over the manager defaults for a newly opened session.

        Returns:
            The live :class:`StreamServer` for ``name``.

        Raises:
            SessionError: bad name, or the manager is closed.
        """
        name = validate_session_name(name)
        with self._lock:
            if self._closed:
                raise SessionError("session manager is closed")
            server = self._servers.get(name)
            if server is None:
                options = dict(self._defaults)
                options.update(overrides)
                options.pop("name", None)
                options.pop("metrics", None)
                log = self._log

                def prefixed(line: str, _name: str = name) -> None:
                    log(f"[{_name}] {line}")

                options.setdefault("log", prefixed)
                server = StreamServer(
                    os.path.join(self.root, name), name=name,
                    metrics=self.metrics, **options)
                self._servers[name] = server
            return server

    def attach(self, name: str) -> StreamServer:
        """Return the open session ``name``, recovering it from disk if
        its store exists but is not currently open.

        Args:
            name: the session name (validated).

        Returns:
            The live :class:`StreamServer`.

        Raises:
            SessionError: bad name, no such session in memory or on
                disk, or the manager is closed.
        """
        name = validate_session_name(name)
        with self._lock:
            server = self._servers.get(name)
        if server is not None:
            return server
        if name not in self.discover():
            raise SessionError(
                f"unknown session {name!r}; open it first "
                f"(known: {', '.join(self.discover()) or 'none'})")
        return self.open(name)

    def get(self, name: str) -> StreamServer:
        """Return the *already open* session ``name``.

        Raises:
            SessionError: the session is not open (use :meth:`attach`
                to recover one from disk).
        """
        # no manager lock: the hub's loop must not park behind an ``open``
        server = self._servers.get(name) if isinstance(name, str) else None
        if server is None:
            raise SessionError(f"session {name!r} is not open")
        return server

    def discover(self) -> List[str]:
        """Session names present on disk (open or not), sorted."""
        from repro.persist.store import SNAPSHOT_NAME

        names = []
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return []
        for entry in entries:
            if not _NAME_RE.match(entry):
                continue
            if os.path.exists(os.path.join(self.root, entry, SNAPSHOT_NAME)):
                names.append(entry)
        return names

    def open_names(self) -> List[str]:
        """Names of currently open sessions, sorted."""
        with self._lock:
            return sorted(self._servers)

    def sessions(self) -> List[Dict[str, Any]]:
        """One summary dict per known session (open first, then
        on-disk-only), for the ``sessions`` protocol verb.
        """
        with self._lock:
            open_servers = dict(self._servers)
        listing = []
        for name in sorted(open_servers):
            server = open_servers[name]
            listing.append({
                "session": name,
                "open": True,
                "seq": server.session.sequence,
                "rules": server.session.num_rules,
                "backend": server.session.backend_name,
                "queue_depth": server.queue_depth(),
                "draining": server.draining,
                "watching": [p.name for p in server.session.properties],
            })
        for name in self.discover():
            if name not in open_servers:
                listing.append({"session": name, "open": False})
        return listing

    def close(self, name: str) -> bool:
        """Close one session (final checkpoint); returns whether it was
        open.
        """
        with self._lock:
            server = self._servers.pop(name, None)
        if server is None:
            return False
        server.close()
        return True

    def close_all(self) -> None:
        """Close every open session (final checkpoints); idempotent, and
        the manager refuses new opens afterwards.
        """
        with self._lock:
            self._closed = True
            servers = list(self._servers.items())
            self._servers.clear()
        for _name, server in servers:
            try:
                server.close()
            except Exception as exc:
                self._log(f"[{_name}] close failed: "
                          f"{type(exc).__name__}: {exc}")

    def __enter__(self) -> "SessionManager":
        """Context-manager entry: the manager itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close_all`."""
        self.close_all()
