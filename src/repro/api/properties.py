"""The :class:`Property` protocol: invariants checked on every update.

A property registered on a session via ``session.watch(...)`` is
evaluated after each committed update (one rule operation, or one
aggregated batch); any violations it reports are delivered on the
:class:`~repro.api.session.UpdateResult`.  The session deduplicates by
violation *signature*, so a subscription behaves like an alert stream —
each distinct violation is reported the first time it is observed, no
matter whether the backend detects it incrementally (Delta-net's
delta-graph chase, Veriflow's per-update EC check) or by re-sweeping.

These classes unify the previously divergent ``repro.checkers`` entry
points: the same :class:`LoopProperty` works on all five backends, and
:class:`WaypointProperty` / :class:`IsolationProperty` run on generic
interval propagation rather than Delta-net internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple,
    Union, runtime_checkable,
)

from repro.api.registry import BackendAdapter, BackendUpdate, Spans
from repro.core.delta_graph import DeltaGraph
from repro.core.intervals import IntervalSet
from repro.core.rules import DROP, Link, cycle_links


@dataclass(frozen=True)
class Violation:
    """One property violation.

    ``signature`` is the hashable identity the session deduplicates on;
    ``data`` carries the property-specific evidence (a cycle, a node, a
    span list) and is excluded from equality.
    """

    property_name: str
    signature: Tuple[object, ...]
    detail: str
    data: Any = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"[{self.property_name}] {self.detail}"


@dataclass
class Commit:
    """What the session just applied: the updates and, when the backend
    maintains one, the merged delta-graph."""

    updates: List[BackendUpdate]
    delta: Optional[DeltaGraph] = None


@runtime_checkable
class Property(Protocol):
    """A subscribable invariant.

    ``check(backend, commit)`` returns the violations observable after
    ``commit``; ``commit`` is ``None`` for one-shot evaluation via
    ``session.check(prop)``, in which case the property must inspect the
    whole current state.

    An optional ``clears`` attribute declares the dedup semantics:
    ``True`` for state-based properties whose ``check`` reports *all*
    current violations (the session re-arms a violation once it
    disappears, so it can fire again later); ``False`` — the default
    when absent — for event-like properties that may report only the
    violations an update introduced (delivered at most once, since
    their absence from a later check means nothing).

    An optional ``delta_bounded`` class attribute declares that the
    per-update ``check`` costs on the order of the commit's delta, not
    of the whole state; the serving layer runs a point write on its
    event loop only when every watched property declares it (absent
    means ``False``).
    """

    name: str

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]: ...


def _fmt_spans(spans: Spans, limit: int = 4) -> str:
    shown = ", ".join(f"[{lo}:{hi})" for lo, hi in spans[:limit])
    more = f", +{len(spans) - limit} more" if len(spans) > limit else ""
    return shown + more


def propagate_intervals(backend: BackendAdapter, src: object,
                        avoid: Iterable[object] = ()) -> Dict[object, IntervalSet]:
    """Generic packet-space propagation from ``src`` over any backend.

    Pushes the full header space from ``src`` along ``flows_on`` labels
    (skipping ``avoid`` nodes and the drop sink).  Because every
    backend's per-node forwarding is functional on packet classes, the
    interval algebra is exact — this is ``reachable_atoms`` lifted from
    atoms to the uniform span currency.
    """
    skip = set(avoid)
    adjacency: Dict[object, List[Tuple[Link, IntervalSet]]] = {}
    for link in backend.links():
        flows = IntervalSet(backend.flows_on(link))
        if flows:
            adjacency.setdefault(link.source, []).append((link, flows))
    reached: Dict[object, IntervalSet] = {
        src: IntervalSet.universe(backend.width)}
    queue = [src]
    while queue:
        node = queue.pop()
        mask = reached[node]
        for link, flows in adjacency.get(node, ()):
            if link.target == DROP or link.target in skip:
                continue
            passed = mask & flows
            if not passed:
                continue
            previous = reached.get(link.target, IntervalSet())
            fresh = passed - previous
            if fresh:
                reached[link.target] = previous | fresh
                queue.append(link.target)
    return reached


class LoopProperty:
    """Forwarding loops (the paper's flagship per-update check).

    The property manages its own alert dedup: each distinct cycle is
    delivered when it appears, and again whenever it is re-introduced
    after having been broken.  (Plain signature dedup cannot do this:
    the incremental backends report a loop only on the update that
    creates it, so its later absence from a check means nothing.)

    Liveness of the reported cycles is delta-driven.  A reported cycle
    can only have died if one of its links *lost* flow, so a commit's
    suspects are the cycles on a link named in ``removed`` of its
    delta-graphs, found through an index of the reported cycles by
    directed link; a commit that removes no flow from any such link
    evaluates nothing.  ``added`` entries only widen a link's flow, and
    splits and garbage-collected atoms rename packet classes without
    moving a packet, so none of them can break a loop.  Only the
    suspects are put to :meth:`BackendAdapter.cycle_alive
    <repro.api.registry.BackendAdapter.cycle_alive>` — a few run merges
    in atom space on the Delta-net backends, ``flows_on`` intersections
    elsewhere (``docs/performance.md``, "Session vs core", has what
    re-deriving every cycle through the updated switch in interval
    space used to cost).  Backends that deliver no delta-graph fall
    back to "every cycle through an updated switch", served from the
    same index.
    """

    name = "loops"
    clears = True  # session dedup defers to the property's own
    delta_bounded = True

    def __init__(self) -> None:
        self._reported: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
        #: ``source -> target -> signatures`` of the reported cycles
        #: running over that directed link (derived from ``_reported``).
        self._on_link: Dict[object, Dict[object, Set[Tuple[object, ...]]]] = {}

    def spec(self) -> dict:
        return {}

    def state_dict(self) -> dict:
        """Cycle-liveness tracking, for snapshot/restore continuity."""
        return {"reported": sorted(
            ((list(signature), list(cycle))
             for signature, cycle in self._reported.items()), key=repr)}

    def load_state_dict(self, state: dict) -> None:
        self._reported = {}
        self._on_link = {}
        for signature, cycle in state["reported"]:
            self._report(tuple(signature), tuple(cycle))

    def _report(self, signature, cycle) -> None:
        self._reported[signature] = cycle
        for source, target in cycle_links(cycle):
            self._on_link.setdefault(source, {}).setdefault(
                target, set()).add(signature)

    def _forget(self, signature) -> None:
        for source, target in cycle_links(self._reported.pop(signature)):
            targets = self._on_link[source]
            targets[target].discard(signature)
            if not targets[target]:
                del targets[target]
                if not targets:
                    del self._on_link[source]

    def _suspects(self, commit: Commit) -> Set[Tuple[object, ...]]:
        """Reported cycles ``commit`` may have broken."""
        suspects: Set[Tuple[object, ...]] = set()
        if commit.delta is None:
            # No delta-graph: a node's forwarding only changes on an
            # update installed at that node.
            for update in commit.updates:
                if update.rule is not None:
                    suspects.update(*self._on_link.get(
                        update.rule.source, {}).values())
            return suspects
        # Per-op deltas and apply_batch's aggregate are exact.  A
        # session.batch() aggregate is merged by hand and may cancel a
        # removal against a later add of a re-split or recycled atom
        # id, so the per-op deltas it was merged from are read as well.
        deltas = [commit.delta]
        deltas += [update.delta for update in commit.updates
                   if update.delta is not None
                   and update.delta is not commit.delta]
        for delta in deltas:
            for source, target in delta.removed:
                on_link = self._on_link.get(source)
                if on_link:
                    suspects.update(on_link.get(target, ()))
        return suspects

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]:
        if commit is None:
            cycles = backend.find_loops()
        else:
            # Forget cycles that no longer carry traffic, so a later
            # re-introduction is reported again.
            if self._reported:
                for signature in self._suspects(commit):
                    if not backend.cycle_alive(self._reported[signature]):
                        self._forget(signature)
            cycles = backend.loops_for_commit(commit.updates, commit.delta)
        for cycle in cycles:
            signature = ("loop", cycle)
            if commit is not None:
                if signature in self._reported:
                    continue
                self._report(signature, cycle)
            yield Violation(
                self.name, signature,
                "forwarding loop " + " -> ".join(map(str, cycle)) +
                f" -> {cycle[0]}", data=cycle)


class BlackholeProperty:
    """Nodes that silently swallow traffic (no forward, no explicit drop)."""

    name = "blackholes"
    clears = True
    delta_bounded = False  # re-derived from the whole state per update

    def __init__(self, expected_sinks: Iterable[object] = ()) -> None:
        self.expected_sinks = set(expected_sinks)

    def spec(self) -> dict:
        return {"expected_sinks": sorted(self.expected_sinks, key=repr)}

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]:
        for node, spans in backend.find_blackholes().items():
            if node in self.expected_sinks:
                continue
            yield Violation(
                self.name, ("blackhole", node),
                f"traffic black-holed at {node}: {_fmt_spans(spans)}",
                data=spans)


class ReachabilityProperty:
    """``dst`` must (or, with ``expect_reachable=False``, must not) be
    reachable from ``src``."""

    name = "reachability"
    clears = True
    delta_bounded = False  # re-derived from the whole state per update

    def __init__(self, src: object, dst: object,
                 expect_reachable: bool = True) -> None:
        self.src = src
        self.dst = dst
        self.expect_reachable = expect_reachable

    def spec(self) -> dict:
        return {"src": self.src, "dst": self.dst,
                "expect_reachable": self.expect_reachable}

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]:
        spans = backend.reachable(self.src, self.dst)
        if bool(spans) == self.expect_reachable:
            return
        if self.expect_reachable:
            detail = f"{self.dst} unreachable from {self.src}"
        else:
            detail = (f"{self.dst} reachable from {self.src}: "
                      f"{_fmt_spans(spans)}")
        yield Violation(self.name,
                        ("reachability", self.src, self.dst,
                         self.expect_reachable),
                        detail, data=spans)


class WaypointProperty:
    """All ``src -> dst`` traffic must traverse ``waypoint``."""

    name = "waypoint"
    clears = True
    delta_bounded = False  # re-derived from the whole state per update

    def __init__(self, src: object, dst: object, waypoint: object) -> None:
        if waypoint in (src, dst):
            raise ValueError("waypoint must differ from the endpoints")
        self.src = src
        self.dst = dst
        self.waypoint = waypoint

    def spec(self) -> dict:
        return {"src": self.src, "dst": self.dst, "waypoint": self.waypoint}

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]:
        reached = propagate_intervals(backend, self.src,
                                      avoid=(self.waypoint,))
        leaked = reached.get(self.dst)
        if leaked:
            yield Violation(
                self.name,
                ("waypoint", self.src, self.dst, self.waypoint),
                f"traffic {self.src} -> {self.dst} bypasses "
                f"{self.waypoint}: {_fmt_spans(leaked.spans)}",
                data=leaked.spans)


class IsolationProperty:
    """No link may carry traffic of both header-space slices."""

    name = "isolation"
    clears = True
    delta_bounded = False  # re-derived from the whole state per update

    def __init__(self, slice_a: Iterable[Tuple[int, int]],
                 slice_b: Iterable[Tuple[int, int]]) -> None:
        self.slice_a = IntervalSet(slice_a)
        self.slice_b = IntervalSet(slice_b)

    def spec(self) -> dict:
        return {"slice_a": self.slice_a.spans, "slice_b": self.slice_b.spans}

    def check(self, backend: BackendAdapter,
              commit: Optional[Commit]) -> Iterable[Violation]:
        for link in backend.links():
            flows = IntervalSet(backend.flows_on(link))
            shared_a = flows & self.slice_a
            shared_b = flows & self.slice_b
            if shared_a and shared_b:
                yield Violation(
                    self.name, ("isolation", link),
                    f"link {link} carries both slices "
                    f"({_fmt_spans(shared_a.spans, 2)} | "
                    f"{_fmt_spans(shared_b.spans, 2)})",
                    data=(shared_a.spans, shared_b.spans))


# -- persistence hooks (see repro.persist.snapshot) ----------------------------

#: Built-in property classes reconstructible from a saved spec, by
#: their ``name``.  Downstream property classes can register here (or
#: implement ``spec()`` and appear here) to make their subscriptions
#: snapshot-restorable without caller support.
PROPERTY_TYPES: Dict[str, type] = {
    "loops": LoopProperty,
    "blackholes": BlackholeProperty,
    "reachability": ReachabilityProperty,
    "waypoint": WaypointProperty,
    "isolation": IsolationProperty,
}


def property_spec(prop: Property) -> Optional[dict]:
    """``prop``'s constructor arguments as plain data, if it offers them."""
    spec = getattr(prop, "spec", None)
    return spec() if callable(spec) else None


def property_state(prop: Property) -> Optional[dict]:
    """``prop``'s internal state as plain data, if it has any."""
    state = getattr(prop, "state_dict", None)
    return state() if callable(state) else None


def property_from_spec(name: str, spec: Optional[dict]):
    """Rebuild a registered property from its saved spec, else ``None``."""
    cls = PROPERTY_TYPES.get(name)
    if cls is None or spec is None:
        return None
    return cls(**spec)
