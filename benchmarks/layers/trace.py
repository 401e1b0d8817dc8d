"""Span recorder for the layer ledger.

``Tracer.install()`` wraps a fixed table of the layers' public callables
(:data:`TABLE`) at run time, inside the benchmark's own processes only;
nothing under ``src/`` changes.  Each finished call leaves one
:class:`Span` — id, parent, op, layer, name, start, end — in memory; the
runner writes them out when the run ends.

Three call shapes need their own wrapper so the recorded interval is the
time the layer was actually working:

* a plain function is timed around the call;
* a generator function (``LoopProperty.check``) is timed around each
  ``next()`` — constructing a generator runs none of its body, and the
  consumer's work between two ``next()`` calls is not the layer's;
* a coroutine function (``AsyncSessionHub.handle_line``) is timed across
  its awaits.  The parent is kept in a :mod:`contextvars` variable, which
  asyncio copies per task, so two connections interleaving on one event
  loop never adopt each other's spans.

The hub hands a parsed request to ``StreamServer.handle_request`` on an
executor thread, where the task's context does not follow.  The wrapper
on the hub side publishes ``id(request) -> span`` and the server-side
wrapper adopts it, so the link is exact rather than guessed from times.

A layer's self time is its span minus the part its children cover.
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    """One finished call into a layer."""

    id: int
    parent: Optional[int]
    #: Id of the root span of this call tree: spans of one operation share it.
    op: int
    layer: str
    name: str
    start: float
    end: float
    #: 1 for a call, 0 for the second and later ``next()`` of one generator.
    calls: int


def _delta_edges(tracer: "Tracer", _args: tuple, delta: Any) -> None:
    tracer.counters["delta_edges"] += (
        sum(len(atoms) for atoms in delta.added.values())
        + sum(len(atoms) for atoms in delta.removed.values()))


def _loops_reported(tracer: "Tracer", _args: tuple, loops: Any) -> None:
    tracer.counters["loops_reported"] += len(loops)


def _publish_request(args: tuple) -> int:
    return id(args[2])      # AsyncSessionHub.handle_request(self, conn, request)


def _adopt_request(args: tuple) -> int:
    return id(args[1])      # StreamServer.handle_request(self, request)


def _request_verb(args: tuple) -> str:
    request = args[1]
    return str(request.get("cmd")) if isinstance(request, dict) else "invalid"


#: layer -> [(module, owner class or None, attribute, options)].  Options:
#: ``after(tracer, args, result)`` counts at the boundary once the span is
#: closed; ``publish``/``adopt`` carry the parent across a thread hop;
#: ``label(args)`` is appended to the span name (the verb of a request).
TABLE: Dict[str, List[tuple]] = {
    "serve.aio": [
        ("repro.serve.aio", "AsyncSessionHub", "handle_line", {}),
        ("repro.serve.aio", "AsyncSessionHub", "handle_request",
         {"publish": _publish_request}),
    ],
    "serve.stream": [
        ("repro.serve.stream", "StreamServer", "handle_request",
         {"adopt": _adopt_request, "label": _request_verb}),
        ("repro.serve.stream", "StreamServer", "apply_op", {}),
        ("repro.serve.stream", "StreamServer", "__init__", {}),
    ],
    "api.session": [
        ("repro.api.session", "VerificationSession", "apply", {}),
        ("repro.api.session", "VerificationSession", "apply_batch", {}),
        ("repro.api.session", "VerificationSession", "query", {}),
    ],
    "api.properties": [
        ("repro.api.properties", "LoopProperty", "check", {}),
    ],
    "api.backends": [
        ("repro.api.backends", "DeltaNetBackend", "insert", {}),
        ("repro.api.backends", "DeltaNetBackend", "remove", {}),
        ("repro.api.backends", "DeltaNetBackend", "apply_batch", {}),
        ("repro.api.backends", "DeltaNetBackend", "loops_for_commit", {}),
        ("repro.api.backends", "DeltaNetBackend", "flows_on", {}),
        ("repro.api.backends", "DeltaNetBackend", "run_query", {}),
    ],
    "core.deltanet": [
        ("repro.core.deltanet", "DeltaNet", "insert_rule",
         {"after": _delta_edges}),
        ("repro.core.deltanet", "DeltaNet", "remove_rule",
         {"after": _delta_edges}),
        ("repro.core.deltanet", "DeltaNet", "apply_batch", {}),
    ],
    "core.atoms": [
        ("repro.core.atoms", "AtomTable", "create_atoms", {}),
        ("repro.core.atoms", "AtomTable", "create_atoms_many", {}),
    ],
    "core.findex": [
        ("repro.core.findex", "ForwardingIndex", "apply_delta", {}),
    ],
    "checkers.loops": [
        ("repro.checkers.loops", "LoopChecker", "check_update",
         {"after": _loops_reported}),
        ("repro.checkers.loops", None, "find_forwarding_loops", {}),
    ],
    "checkers.whatif": [
        ("repro.checkers.whatif", None, "link_failure_impact", {}),
    ],
    "query.planner": [
        ("repro.query.planner", None, "evaluate_deltanet", {}),
    ],
    "persist.store": [
        ("repro.persist.store", "SessionStore", "record", {}),
        ("repro.persist.store", "SessionStore", "record_batch", {}),
        ("repro.persist.store", "SessionStore", "checkpoint", {}),
        ("repro.persist.store", "SessionStore", "recover", {}),
    ],
    "persist.snapshot": [
        ("repro.persist.snapshot", None, "save_session", {}),
        ("repro.persist.snapshot", None, "load_session", {}),
    ],
    "persist.journal": [
        ("repro.persist.journal", "Journal", "append", {}),
        ("repro.persist.journal", "Journal", "append_batch", {}),
    ],
}

LAYERS = tuple(TABLE)


class Tracer:
    """Records spans around wrapped callables while ``recording`` is set."""

    def __init__(self) -> None:
        #: Finished spans as plain rows in :class:`Span` field order (a
        #: named tuple per call would cost as much as the clock reads);
        #: :meth:`finished` dresses them.
        self.spans: List[tuple] = []
        self.counters: Counter = Counter()
        self.recording = False
        self._ids = itertools.count(1)
        #: (span id, op id) of the innermost open span of this thread/task.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "layers_open_span", default=None)
        self._handoff: Dict[int, tuple] = {}
        self._patched: List[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, *,
             after: Optional[Callable] = None,
             publish: Optional[Callable] = None,
             adopt: Optional[Callable] = None,
             label: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in the span recorder that fits its shape."""
        clock = time.perf_counter
        current = self._current
        record = self.spans.append
        ids = self._ids
        handoff = self._handoff
        tracer = self

        def enter(args: tuple) -> tuple:
            parent = current.get()
            if parent is None and adopt is not None:
                parent = handoff.get(adopt(args))
            span_id = next(ids)
            op = span_id if parent is None else parent[1]
            key = None
            if publish is not None:
                key = publish(args)
                handoff[key] = (span_id, op)
            token = current.set((span_id, op))
            return (span_id, None if parent is None else parent[0], op,
                    token, key,
                    name if label is None else f"{name}:{label(args)}")

        def leave(frame: tuple, start: float, end: float, calls: int) -> None:
            span_id, parent, op, token, key, span_name = frame
            current.reset(token)
            if key is not None:
                handoff.pop(key, None)
            record((span_id, parent, op, layer, span_name, start, end, calls))

        if inspect.iscoroutinefunction(fn):
            async def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                frame = enter(args)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(frame, start, clock(), 1)
                if after is not None:
                    after(tracer, args, result)
                return result
        elif inspect.isgeneratorfunction(fn):
            def traced(*args: Any, **kwargs: Any) -> Any:
                generator = fn(*args, **kwargs)
                if not tracer.recording:
                    yield from generator
                    return
                calls = 1
                while True:
                    frame = enter(args)
                    start = clock()
                    try:
                        value = next(generator)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, start, clock(), calls)
                    calls = 0
                    yield value
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.recording:
                    return fn(*args, **kwargs)
                frame = enter(args)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame, start, clock(), 1)
                if after is not None:
                    after(tracer, args, result)
                return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def finished(self) -> List[Span]:
        """The spans recorded so far."""
        return [Span(*row) for row in self.spans]

    def install(self) -> None:
        """Wrap every callable in :data:`TABLE`."""
        import importlib

        for layer, entries in TABLE.items():
            for module_name, owner_name, attr, options in entries:
                module = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(module, owner_name)
                    original = getattr(owner, attr)
                    had_own = attr in vars(owner)
                    setattr(owner, attr, self.wrap(
                        layer, f"{owner_name}.{attr}", original, **options))
                    self._patched.append((owner, attr, original, had_own))
                    continue
                # A module-level function is bound by name wherever it was
                # imported; replace every binding inside the package.
                original = getattr(module, attr)
                wrapped = self.wrap(layer, attr, original, **options)
                root = module_name.split(".")[0] + "."
                for holder in list(sys.modules.values()):
                    if holder is None or not getattr(
                            holder, "__name__", "").startswith(root):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._patched.append(
                                (holder, key, original, True))

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


# -- analysis ------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover.

    A parent missing from ``spans`` (cut off by a time window) makes its
    children roots; their time is then nobody's child time.
    """
    spans = list(spans)
    known = {span.id for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent in known:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id]
            for span in spans}


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Layer -> ``calls`` and ``self_s`` summed over its spans."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += span.calls
        entry["self_s"] += own[span.id]
    return totals


def outermost_time(spans: Iterable[Span], layers: Iterable[str]) -> float:
    """Seconds inside ``layers`` counted once: the summed durations of
    their spans that have no ancestor in ``layers`` (the inclusive time
    of that slice of the stack)."""
    spans = list(spans)
    chosen = set(layers)
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.layer not in chosen:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.layer not in chosen:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.end - span.start
    return total


def window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    """The spans that lie wholly inside ``[start, end]``."""
    return [span for span in spans if span.start >= start and span.end <= end]
