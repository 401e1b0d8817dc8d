"""The :class:`Backend` protocol and the backend registry.

Every verifier in this repository — Delta-net, Veriflow-RI, the
atomic-predicates verifier, NetPlumber, and the Libra-style sharded
Delta-net — is exposed to :class:`repro.api.session.VerificationSession`
through the same small surface:

* a *transactional* update pair ``insert(rule)`` / ``remove(rid)``, each
  returning a :class:`BackendUpdate` describing what the backend learned
  while processing the operation (a delta-graph when the backend
  maintains one, natively detected loops when checking is fused into the
  update, or neither),
* uniform queries over the *packet space as canonical half-closed
  intervals* — the one currency all five verifiers can speak:
  ``flows_on``, ``reachable``, ``what_if_link_down``, ``find_loops``,
  ``find_blackholes``.

Backends register themselves by name::

    @register_backend("deltanet")
    class DeltaNetBackend(BackendAdapter):
        ...

and callers resolve them by name::

    backend = create_backend("deltanet", width=32, gc=True)
    available_backends()   # ('apv', 'deltanet', 'netplumber', ...)

Unknown names raise :class:`UnknownBackendError` with did-you-mean
suggestions, so CLI typos fail helpfully.
"""

from __future__ import annotations

import abc
import difflib
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, Type, Union,
)

from repro.core.delta_graph import DeltaGraph
from repro.core.intervals import IntervalSet
from repro.core.prefix import prefix_to_interval
from repro.core.rules import (
    Action, DROP, Link, Rule, canonical_rotation, cycle_links,
    validate_batch_ops,
)

#: A forwarding cycle as a canonical tuple of graph nodes.
Cycle = Tuple[object, ...]

#: Disjoint half-closed ``(lo, hi)`` intervals — the uniform answer type.
Spans = List[Tuple[int, int]]


def canonical_cycle(nodes: Iterable[object]) -> Cycle:
    """Rotate a cycle to its canonical start, for dedup (see
    :func:`repro.core.rules.canonical_rotation` for the pivot rule)."""
    return canonical_rotation(nodes)


@dataclass
class BackendUpdate:
    """What a backend reports about one processed rule operation.

    ``delta`` is a :class:`~repro.core.delta_graph.DeltaGraph` for
    backends that maintain one (Delta-net); ``loops`` holds canonical
    cycles for backends whose update natively runs a loop check
    (Veriflow-RI, sharded Delta-net).  Either may be ``None`` — the
    session's properties fall back to whole-data-plane sweeps then.
    """

    rid: int
    inserted: bool
    rule: Optional[Rule] = None
    delta: Optional[DeltaGraph] = None
    loops: Optional[List[Cycle]] = None


@dataclass
class BackendBatch:
    """What a backend reports about one aggregated update batch.

    ``updates`` carries one :class:`BackendUpdate` per operation
    (removals first, then insertions — the batch order).  ``delta`` is
    the batch's merged delta-graph when the backend maintains one; for
    backends that natively ran checks during the batch, the loops ride on
    the per-op updates as usual.
    """

    updates: List[BackendUpdate]
    delta: Optional[DeltaGraph] = None


class BackendAdapter(abc.ABC):
    """Common base for registry backends.

    Subclasses implement ``_do_insert`` / ``_do_remove`` plus the query
    primitives; the base class provides uniform rule bookkeeping (so
    duplicate/unknown rule ids fail identically on every backend, even
    those whose native classes do not check) and interval-algebra default
    implementations for the derived queries.
    """

    #: Registry name, set by :func:`register_backend`.
    name: str = "?"

    #: Whether query methods (``find_loops``, ``reachable``, ...) are
    #: pure in-process reads that many threads may run concurrently.
    #: Backends whose queries fan out over worker pipes (the parallel
    #: backend) must leave this False; the serving layer then keeps
    #: reads exclusive instead of sharing the read lock.
    concurrent_read_safe: bool = False

    def __init__(self, width: int = 32) -> None:
        """Initialize the uniform rule table.

        Args:
            width: packet header width in bits.
        """
        self.width = width
        self._rules: Dict[int, Rule] = {}

    # -- update API (the checked operations) ---------------------------------

    def insert(self, rule: Rule) -> BackendUpdate:
        """Insert ``rule`` into the native verifier.

        Args:
            rule: the rule to install; its ``rid`` must be new.

        Returns:
            The backend's :class:`BackendUpdate` for the operation.

        Raises:
            ValueError: a rule with the same id is already installed.
        """
        if rule.rid in self._rules:
            raise ValueError(f"duplicate rule id {rule.rid}")
        update = self._do_insert(rule)
        self._rules[rule.rid] = rule
        return update

    def remove(self, rid: int) -> BackendUpdate:
        """Remove the rule with id ``rid`` from the native verifier.

        Args:
            rid: the id of an installed rule.

        Returns:
            The backend's :class:`BackendUpdate` for the operation.

        Raises:
            KeyError: no rule with that id is installed.
        """
        rule = self._rules.get(rid)
        if rule is None:
            raise KeyError(f"unknown rule id {rid}")
        update = self._do_remove(rule)
        del self._rules[rid]
        return update

    @abc.abstractmethod
    def _do_insert(self, rule: Rule) -> BackendUpdate:
        """Apply one insertion to the native verifier."""

    @abc.abstractmethod
    def _do_remove(self, rule: Rule) -> BackendUpdate:
        """Apply one removal to the native verifier."""

    # -- batched updates ---------------------------------------------------------

    @property
    def supports_batch(self) -> bool:
        """Whether this backend has a *native* batched update path.

        :meth:`apply_batch` works on every backend either way — without
        native support it loops the checked single-op path.
        """
        return type(self)._do_apply_batch is not BackendAdapter._do_apply_batch

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()) -> BackendBatch:
        """Apply removals then insertions as one aggregated batch.

        Order semantics match :meth:`repro.core.deltanet.DeltaNet.apply`:
        all removals run first (so a batch may remove and re-insert the
        same rule id), then all insertions in batch order.  The batch is
        validated up front — duplicate or unknown rule ids reject the
        whole batch before the native verifier is touched.
        """
        inserts = list(rules_to_insert)
        removals = list(rids_to_remove)
        # Validated here too (not just natively) so the sequential
        # fallback backends also reject the whole batch up front, before
        # any removal is applied.
        validate_batch_ops(inserts, removals, self._rules, self.width)
        removal_rules = [self._rules[rid] for rid in removals]
        if not self.supports_batch:
            # Sequential fallback through the checked single-op path
            # (which maintains the rule bookkeeping itself).
            updates = [self.remove(rid) for rid in removals]
            updates += [self.insert(rule) for rule in inserts]
            return BackendBatch(updates=updates,
                                delta=_merge_update_deltas(updates))
        batch = self._do_apply_batch(inserts, removals, removal_rules)
        for rid in removals:
            del self._rules[rid]
        for rule in inserts:
            self._rules[rule.rid] = rule
        return batch

    def _do_apply_batch(self, inserts: List[Rule], removals: List[int],
                        removal_rules: List[Rule]) -> BackendBatch:
        """Native batched path; override where the verifier has one."""
        raise NotImplementedError

    # -- uniform bookkeeping ---------------------------------------------------

    @property
    def num_rules(self) -> int:
        """The number of currently installed rules."""
        return len(self._rules)

    def rules(self) -> Dict[int, Rule]:
        """The currently installed rules, by rule id (read-only view)."""
        return dict(self._rules)

    def make_rule(self, rid: int, prefix: str, priority: int, source: object,
                  target: object = None, action: Action = Action.FORWARD) -> Rule:
        """Build a rule from CIDR text; drop rules omit ``target``."""
        lo, hi = prefix_to_interval(prefix, self.width)
        if action is Action.DROP:
            return Rule.drop(rid, lo, hi, priority, source)
        if target is None:
            raise ValueError("forward rules need a target")
        return Rule.forward(rid, lo, hi, priority, source, target)

    # -- query primitives (per-backend) ---------------------------------------

    @abc.abstractmethod
    def links(self) -> List[Link]:
        """Links that currently carry (or may carry) traffic."""

    @abc.abstractmethod
    def flows_on(self, link: Union[Link, Tuple[object, object]]) -> Spans:
        """The packet space carried by ``link`` as canonical intervals."""

    @abc.abstractmethod
    def reachable(self, src: object, dst: object) -> Spans:
        """Packets that can flow from ``src`` to ``dst`` as intervals."""

    @abc.abstractmethod
    def find_loops(self) -> List[Cycle]:
        """Whole-data-plane forwarding-loop sweep (canonical cycles)."""

    # -- derived queries (interval-algebra defaults) ---------------------------

    def what_if_link_down(self, link: Union[Link, Tuple[object, object]]) -> Spans:
        """Packet space affected by failing ``link``.

        The affected packets are exactly the flows currently using the
        link; backends with a native (and possibly much more expensive)
        what-if path override this.
        """
        return self.flows_on(link)

    def find_blackholes(self) -> Dict[object, Spans]:
        """Nodes that receive traffic they neither forward nor drop.

        Default: pure interval algebra over ``links()`` / ``flows_on()``
        — per node, the arriving packet space minus the outgoing (or
        explicitly dropped) packet space.
        """
        incoming: Dict[object, IntervalSet] = {}
        outgoing: Dict[object, IntervalSet] = {}
        for link in self.links():
            flows = IntervalSet(self.flows_on(link))
            if not flows:
                continue
            if link.target != DROP:
                incoming[link.target] = incoming.get(link.target, IntervalSet()) | flows
            outgoing[link.source] = outgoing.get(link.source, IntervalSet()) | flows
        holes: Dict[object, Spans] = {}
        for node, arrived in incoming.items():
            lost = arrived - outgoing.get(node, IntervalSet())
            if lost:
                holes[node] = lost.spans
        return holes

    def run_query(self, query) -> "Any":
        """Answer a typed :class:`repro.query.Query` with a
        :class:`~repro.query.model.QueryResult`.

        The default composes the uniform query primitives above
        (:func:`repro.query.planner.evaluate_generic`); the Delta-net
        backends override it with goal-directed planners that also fill
        the atom-currency fields (``atoms``, ``subgraph``).
        """
        from repro.query.planner import evaluate_generic

        return evaluate_generic(self, query)

    # -- speculation -----------------------------------------------------------

    def speculate(self) -> "BackendAdapter":
        """Fork an independent what-if child of this backend.

        The child answers updates and queries against a private copy of
        the current state; the parent is never mutated.  The generic
        fallback clones through ``snapshot_state``/``restore_state`` —
        O(state) per fork.  The Delta-net backends override this with
        copy-on-write children (:mod:`repro.core.speculative`) that fork
        in O(boundaries + links) pointer copies and detect a parent that
        advanced underneath them (:class:`~repro.core.speculative.
        StaleSpeculationError`).  Callers own the child: ``close()`` it
        when the speculation is discarded.
        """
        state = self.snapshot_state()
        child = create_backend(self.name, width=self.width,
                               **state.get("options", {}))
        child.restore_state(state)
        return child

    def loops_for_commit(self, updates: List[BackendUpdate],
                         delta: Optional[DeltaGraph]) -> List[Cycle]:
        """Loops attributable to a committed update batch.

        Default: when every update carried natively detected loops,
        return their union; otherwise fall back to a full sweep (the
        session deduplicates re-reported pre-existing loops).  An update
        whose delta-graph is *empty* changed no label, so no new loop
        can exist — it short-circuits to nothing instead of paying a
        sweep for a no-op.

        A batch is checked as of its commit: a loop one operation
        closed and a later operation of the same batch broke again is
        not reported (the delta-graph backends never see it either —
        they chase the aggregate on the committed state).
        """
        if updates and all(u.loops is not None for u in updates):
            seen: Dict[Cycle, None] = {}
            for update in updates:
                for cycle in update.loops:
                    seen.setdefault(cycle)
            if len(updates) > 1:
                return [cycle for cycle in seen if self.cycle_alive(cycle)]
            return list(seen)
        if delta is not None and delta.is_empty():
            return []
        return self.find_loops()

    def cycle_alive(self, cycle: Cycle) -> bool:
        """Whether any packet still survives one full turn of ``cycle``.

        :class:`~repro.api.properties.LoopProperty` asks this of an
        already-reported loop after a commit that may have broken it.
        Default: intersect the ``flows_on`` spans around the cycle in
        interval space, stopping at the first empty result — exact for
        functional forwarding on every backend.  The Delta-net backends
        override it to intersect their live label runs in atom space
        (:func:`repro.checkers.loops.cycle_alive`), converting nothing.
        """
        flow: Optional[IntervalSet] = None
        for link in cycle_links(cycle):
            spans = IntervalSet(self.flows_on(link))
            flow = spans if flow is None else flow & spans
            if not flow:
                return False
        return True

    # -- persistence (see repro.persist) ---------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """The backend's full state as codec-friendly plain data.

        The generic form records the installed rules in insertion order
        plus the constructor ``options`` needed to rebuild the adapter
        (:meth:`_snapshot_options`); :meth:`restore_state` replays them
        through the checked single-op path, which reconstructs *any*
        backend exactly — at cold-replay cost.  Backends with native
        snapshots (Delta-net and the sharded variants) override both
        for warm starts.
        """
        from repro.persist.columns import pack_rules

        return {
            "kind": "generic",
            "options": self._snapshot_options(),
            "rules": pack_rules(list(self._rules.values())),
        }

    def _snapshot_options(self) -> Dict[str, Any]:
        """Constructor keywords a restore must pass to rebuild *this*
        adapter configuration (beyond ``width``).  Adapters with
        behavioural knobs (``check_loops``, ...) override this; the
        restored instance must not silently fall back to defaults."""
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild this (freshly constructed) adapter from ``state``."""
        from repro.persist.columns import unpack_rules

        if self._rules:
            raise ValueError("restore_state requires a fresh backend")
        for rule in unpack_rules(state["rules"]):
            self.insert(rule)

    # -- integrity (see repro.integrity) ----------------------------------------

    def state_digest(self) -> Optional[str]:
        """An order-independent digest of the backend's verifier state.

        The generic form fingerprints the canonical encoding of every
        installed rule — self-consistent across save/restore because
        restore replays the identical rule set.  Backends with native
        incremental digests (Delta-net and the sharded variants)
        override this with their O(1)-maintained label/boundary digest.
        Returns ``None`` when digests are disabled.
        """
        from repro.integrity.digest import rules_digest

        return rules_digest(rule.to_state() for rule in self._rules.values())

    # -- diagnostics -----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker processes, ...); idempotent.

        A no-op for in-process backends."""

    def check_invariants(self) -> None:
        """Backend-internal consistency assertions (tests/debugging)."""

    def stats(self) -> Dict[str, Any]:
        """Backend-specific size/shape counters."""
        return {"backend": self.name, "rules": self.num_rules}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rules={self.num_rules}, width={self.width})"


def _merge_update_deltas(updates: List[BackendUpdate]) -> Optional[DeltaGraph]:
    """Merge per-op delta-graphs, or ``None`` unless every op has one."""
    if not updates or any(update.delta is None for update in updates):
        return None
    merged = DeltaGraph()
    for update in updates:
        merged.merge(update.delta)
    return merged


# -- the registry -------------------------------------------------------------

BackendFactory = Callable[..., BackendAdapter]

_REGISTRY: Dict[str, BackendFactory] = {}


class UnknownBackendError(ValueError):
    """Raised when a backend name is not registered."""


def register_backend(name: str, factory: Optional[BackendFactory] = None,
                     *, replace: bool = False):
    """Register a backend factory under ``name``.

    Usable as a decorator on a :class:`BackendAdapter` subclass (the
    class's ``name`` attribute is set to the registry name) or called
    directly with any ``(**options) -> BackendAdapter`` factory.
    """

    def _register(target: BackendFactory) -> BackendFactory:
        if name in _REGISTRY and not replace:
            raise ValueError(f"backend {name!r} already registered")
        if isinstance(target, type) and issubclass(target, BackendAdapter):
            target.name = name
        _REGISTRY[name] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_factory(name: str) -> BackendFactory:
    """Resolve a registry name, raising with suggestions when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        suggestions = difflib.get_close_matches(name, _REGISTRY, n=3, cutoff=0.4)
        hint = f"; did you mean {' or '.join(map(repr, suggestions))}?" \
            if suggestions else ""
        raise UnknownBackendError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}{hint}") from None


def create_backend(name: str, **options: Any) -> BackendAdapter:
    """Instantiate a registered backend with keyword ``options``."""
    return backend_factory(name)(**options)


def backend_description(name: str) -> str:
    """First docstring line of a registered backend (for `deltanet backends`)."""
    factory = backend_factory(name)
    doc = (factory.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""
