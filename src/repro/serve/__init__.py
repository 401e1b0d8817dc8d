"""``deltanet serve`` — the streaming verification serving layer.

A package of four layers (see ``docs/architecture.md``):

- :mod:`repro.serve.stream` — :class:`StreamServer`, the single-tenant
  daemon core: one checkpointed session, the ndjson command surface,
  admission control and the synchronous stdio/TCP transports;
- :mod:`repro.serve.sessions` — :class:`SessionManager`, named
  per-tenant sessions under one root directory;
- :mod:`repro.serve.aio` — :class:`AsyncSessionHub`, the multi-tenant
  asyncio transport (point updates on the event loop when the session
  is idle, one FIFO write lane per session otherwise, concurrent
  readers);
- :mod:`repro.serve.metrics` — :class:`MetricsRegistry`, the counters,
  histograms and gauges behind the ``metrics`` verb.

The wire protocol every layer speaks is specified, verb by verb, in
``docs/protocol.md`` — and the examples there are executed against a
live daemon by the doc-conformance test suite.

Everything the pre-package ``repro.serve`` module exported is
re-exported here unchanged.
"""

from repro.serve.aio import (
    AsyncSessionHub, HubConnection, serve_hub_stdio, serve_hub_tcp,
)
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.sessions import (
    SessionError, SessionManager, validate_session_name,
)
from repro.serve.stream import (
    DEFAULT_MAX_LINE_BYTES, DrainRequested, ReadWriteLock, StreamServer,
    VERB_CLASS, _jsonable, _read_capped, _violation_payload,
    attach_controller, install_sigterm_drain, request_over_socket,
    rule_from_payload, serve_socket, serve_stdio, wait_until_idle,
)

__all__ = [
    "AsyncSessionHub",
    "Counter",
    "DEFAULT_MAX_LINE_BYTES",
    "DrainRequested",
    "Gauge",
    "Histogram",
    "HubConnection",
    "MetricsRegistry",
    "ReadWriteLock",
    "SessionError",
    "SessionManager",
    "StreamServer",
    "VERB_CLASS",
    "attach_controller",
    "install_sigterm_drain",
    "request_over_socket",
    "rule_from_payload",
    "serve_hub_stdio",
    "serve_hub_tcp",
    "serve_socket",
    "serve_stdio",
    "validate_session_name",
    "wait_until_idle",
]
