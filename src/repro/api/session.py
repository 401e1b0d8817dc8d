"""`VerificationSession`: one façade over every data-plane verifier.

The session is the single entry point the replay engine, the CLI, the
examples and the benchmarks all construct::

    from repro.api import VerificationSession, LoopProperty

    session = VerificationSession("deltanet", width=32)
    session.watch(LoopProperty())
    result = session.insert(session.make_rule(0, "10.0.0.0/8", 10,
                                              "s1", "s2"))
    result.violations        # new violations caused by this update
    result.latency           # seconds spent in the backend + checks

    with session.batch() as txn:
        session.insert(r1)
        session.remove(2)
    txn.result               # ONE aggregated UpdateResult for the batch

    session.apply_batch(rules, rids)   # bulk path: batches the backend
                                       # work itself (removals first)

Batching mirrors the paper's note that "multiple rule updates may be
aggregated into a delta-graph": on backends that produce delta-graphs
the per-op deltas are merged (adds cancelling removes) and the
incremental property checks run once on the aggregate;
:meth:`VerificationSession.apply_batch` additionally reaches the
backend's native batched engine (``DeltaNet.apply_batch``).  Batches
are *transactional* in the checking sense — one result, one set of
violations — not rollback-on-error; a failing operation propagates
immediately, earlier operations of the batch stay applied, and
``txn.result`` still covers (and checks) those applied operations.

Violations are deduplicated by signature: a property subscription
behaves as an alert stream delivering each distinct violation when it
becomes observable.  State-based properties (blackholes, reachability,
waypoint, isolation) re-arm once the violation clears, so breaking the
same invariant again alerts again; ``LoopProperty`` tracks cycle
liveness itself for the same effect, and does so from the commit's
delta-graphs: only a reported cycle with a link in ``removed`` — a link
that lost flow — is re-evaluated (``backend.cycle_alive``), because
added flow, atom splits and garbage-collected atoms take no packet off
a link and so cannot break a loop.  That is also why a single op's
delta-graph is handed to the properties as is, while a
``session.batch()`` aggregate rides along with the per-op graphs it was
merged from (a merged removal can cancel against a later add).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from repro.api.properties import Commit, Property, Violation
from repro.api.registry import (
    BackendAdapter, BackendBatch, BackendUpdate, Spans,
    _merge_update_deltas, available_backends, create_backend,
)
from repro.core.delta_graph import DeltaGraph
from repro.core.rules import Action, Link, Rule
from repro.core.speculative import StaleSpeculationError
from repro.datasets.format import Op
from repro.query.model import Query, QueryResult

_clock = time.perf_counter


@dataclass
class OpRecord:
    """One applied operation with its measured latency."""

    kind: str          # "+" | "-"
    rid: int
    seconds: float

    @property
    def is_insert(self) -> bool:
        """Whether this record is an insertion (``kind == "+"``)."""
        return self.kind == "+"


@dataclass
class UpdateResult:
    """Outcome of one committed update (single op or aggregated batch)."""

    backend: str
    ops: List[OpRecord] = field(default_factory=list)
    #: Merged delta-graph, when every op produced one (Delta-net).
    delta: Optional[DeltaGraph] = None
    #: New violations observed by the watched properties.
    violations: List[Violation] = field(default_factory=list)
    #: Seconds spent running property checks (on top of op latencies).
    check_seconds: float = 0.0

    @property
    def num_ops(self) -> int:
        """The number of operations this result aggregates."""
        return len(self.ops)

    @property
    def latency(self) -> float:
        """Total seconds: backend updates plus property checking."""
        return sum(op.seconds for op in self.ops) + self.check_seconds

    def __repr__(self) -> str:
        return (f"UpdateResult({self.backend}, ops={self.num_ops}, "
                f"violations={len(self.violations)}, "
                f"latency={self.latency * 1e6:.1f}us)")


class BatchTransaction:
    """Context manager collecting a batch's updates into one result."""

    def __init__(self, session: "VerificationSession") -> None:
        """Bind the transaction to ``session`` (entered via ``with``)."""
        self._session = session
        self.updates: List[BackendUpdate] = []
        self.ops: List[OpRecord] = []
        self.result: Optional[UpdateResult] = None

    def __enter__(self) -> "BatchTransaction":
        """Begin collecting the session's updates into this batch."""
        self._session._begin_batch(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Commit: check the collected updates once, set ``result``."""
        self._session._end_batch(self, failed=exc_type is not None)


class VerificationSession:
    """Uniform construct / update / subscribe / query surface.

    ``backend`` is a registry name (see
    :func:`repro.api.available_backends`), an already-constructed
    :class:`BackendAdapter`, or any object satisfying the adapter
    surface.  Keyword ``options`` are forwarded to the backend factory
    (``gc=True``, ``check_loops=False``, ...).
    """

    def __init__(self, backend: Union[str, BackendAdapter] = "deltanet",
                 *, width: int = 32,
                 properties: Iterable[Property] = (),
                 **options: Any) -> None:
        if isinstance(backend, str):
            self.backend: BackendAdapter = create_backend(
                backend, width=width, **options)
        else:
            if options:
                raise ValueError(
                    "backend options require a registry name, not an instance")
            self.backend = backend
        #: The subscriptions as ``(property, id(property), clears)``, so
        #: a commit looks neither of the last two up again.
        self._watched: List[Tuple[Property, int, bool]] = []
        self._seen: Dict[int, Set[Tuple[object, ...]]] = {}
        self._violation_log: List[Violation] = []
        self._batch: Optional[BatchTransaction] = None
        #: Count of committed rule operations — the journal cursor a
        #: snapshot records (see :mod:`repro.persist`).
        self.sequence: int = 0
        for prop in properties:
            self.watch(prop)

    # -- introspection ---------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The backend's registry name (``"deltanet"``, ``"veriflow"``...)."""
        return self.backend.name

    @property
    def width(self) -> int:
        """Packet header width in bits (the interval space is ``2**width``)."""
        return self.backend.width

    @property
    def native(self) -> Any:
        """The wrapped verifier instance — the escape hatch for
        backend-specific analyses the uniform API does not cover."""
        return getattr(self.backend, "native", self.backend)

    @property
    def num_rules(self) -> int:
        """The number of rules currently installed in the data plane."""
        return self.backend.num_rules

    def rules(self) -> Dict[int, Rule]:
        """Return the installed rules by rule id (a defensive copy)."""
        return self.backend.rules()

    def stats(self) -> Dict[str, Any]:
        """Return backend statistics (atom/rule/link counts and friends).

        The exact keys are backend-specific; every backend reports at
        least ``rules``.
        """
        return self.backend.stats()

    def check_invariants(self) -> None:
        """Run the backend's internal self-checks.

        Raises:
            AssertionError: an internal invariant is broken (a
                verifier bug, or corrupted state).
        """
        self.backend.check_invariants()

    def state_digest(self) -> Optional[str]:
        """An order-independent digest of the backend's verifier state.

        Equal across any two sessions holding the same rule state —
        whether built by replay, batch, or snapshot restore — and cheap
        to read: incremental backends maintain it in O(changed entries)
        per update.  ``None`` when digests are disabled
        (``DELTANET_DIGESTS=0``).  See :mod:`repro.integrity`.
        """
        return self.backend.state_digest()

    def close(self) -> None:
        """Release backend resources (:meth:`BackendAdapter.close`)."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    # -- persistence (see repro.persist) ----------------------------------------

    def save(self, target) -> None:
        """Snapshot the full session (backend state, subscriptions,
        dedup state, violation log) to a path or binary stream."""
        from repro.persist.snapshot import save_session

        save_session(self, target)

    @classmethod
    def load(cls, source, *, properties=None, verify: bool = False,
             **backend_overrides) -> "VerificationSession":
        """Reconstruct a session saved with :meth:`save`.

        Replaying the op stream from the saved ``sequence`` onward
        yields exactly the results the uninterrupted session would have
        produced.  See :func:`repro.persist.snapshot.load_session` for
        the ``properties``/``backend_overrides`` escape hatches.
        """
        from repro.persist.snapshot import load_session

        return load_session(source, properties=properties, verify=verify,
                            **backend_overrides)

    def __enter__(self) -> "VerificationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- property subscriptions ------------------------------------------------

    def watch(self, prop: Property) -> Property:
        """Subscribe ``prop``; it is checked on every committed update."""
        if not isinstance(prop, Property):
            raise TypeError(f"{prop!r} does not implement Property")
        self._watched.append(
            (prop, id(prop), bool(getattr(prop, "clears", False))))
        self._seen.setdefault(id(prop), set())
        return prop

    def unwatch(self, prop: Property) -> None:
        """Drop the subscription for ``prop`` (no-op if not watched)."""
        self._watched = [entry for entry in self._watched
                         if entry[0] is not prop]

    @property
    def properties(self) -> Tuple[Property, ...]:
        """The currently watched properties, in subscription order."""
        return tuple(entry[0] for entry in self._watched)

    def check(self, prop: Property) -> List[Violation]:
        """One-shot evaluation of ``prop`` on the current state (no
        subscription, no dedup)."""
        return list(prop.check(self.backend, None))

    def violations(self) -> List[Violation]:
        """Every violation delivered so far, in delivery order."""
        return list(self._violation_log)

    # -- the transactional update API ------------------------------------------

    def make_rule(self, rid: int, prefix: str, priority: int, source: object,
                  target: object = None,
                  action: Action = Action.FORWARD) -> Rule:
        """Build a rule from CIDR text at this session's width.

        Args:
            rid: unique rule id.
            prefix: CIDR prefix text (e.g. ``"10.0.0.0/8"``).
            priority: match priority (higher wins).
            source: node the rule is installed on.
            target: next-hop node; required for forward rules.
            action: ``Action.FORWARD`` (default) or ``Action.DROP``.

        Returns:
            The constructed :class:`~repro.core.rules.Rule` (not yet
            inserted).

        Raises:
            ValueError: the prefix does not parse, is out of range for
                the width, or a forward rule lacks a target.
        """
        return self.backend.make_rule(rid, prefix, priority, source,
                                      target, action)

    def insert(self, rule: Rule) -> Union[UpdateResult, OpRecord]:
        """Insert ``rule``; returns the :class:`UpdateResult` (or, inside
        a batch, the per-op :class:`OpRecord` — the aggregated result
        lands on the transaction)."""
        return self._apply_one("+", rule.rid, self.backend.insert, rule)

    def remove(self, rid: int) -> Union[UpdateResult, OpRecord]:
        """Remove the rule with id ``rid``."""
        return self._apply_one("-", rid, self.backend.remove, rid)

    def apply(self, op: Op) -> Union[UpdateResult, OpRecord]:
        """Apply one dataset :class:`~repro.datasets.format.Op`."""
        if op.is_insert:
            return self.insert(op.rule)
        return self.remove(op.rid)

    def batch(self) -> BatchTransaction:
        """``with session.batch() as txn:`` — aggregate ops into one
        delta-graph-like result, checked once at commit.

        Operations inside the block still run one at a time through the
        backend; only the checking is aggregated.  For bulk throughput
        use :meth:`apply_batch`, which also batches the backend work.
        """
        return BatchTransaction(self)

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()) -> UpdateResult:
        """Bulk update through the backend's batched engine.

        Removals run first, then insertions (the
        :meth:`repro.core.deltanet.DeltaNet.apply` order), the backend
        amortizes its per-op costs across the batch, and the watched
        properties are checked once against the aggregated outcome — one
        :class:`UpdateResult` for the whole batch.  Per-op latencies in
        ``result.ops`` are the batch time split evenly, keeping
        per-operation statistics comparable with the single-op path.

        Works on every backend: those without a native batched path fall
        back to looping single ops inside the backend adapter.
        """
        if self._batch is not None:
            raise RuntimeError("apply_batch cannot run inside session.batch()")
        inserts = list(rules_to_insert)
        removals = list(rids_to_remove)
        start = _clock()
        batch_call = getattr(self.backend, "apply_batch", None)
        if batch_call is not None:
            batch: BackendBatch = batch_call(inserts, removals)
            updates, delta = batch.updates, batch.delta
        else:
            # Duck-typed backend instance without the batch capability:
            # still validate the whole batch up front (when the backend
            # exposes its rule table) so a bad op cannot leave it
            # half-applied, then loop the single-op path.
            rules_view = getattr(self.backend, "rules", None)
            if rules_view is not None:
                from repro.core.rules import validate_batch_ops

                validate_batch_ops(inserts, removals, rules_view(),
                                   self.width)
            updates = [self.backend.remove(rid) for rid in removals]
            updates += [self.backend.insert(rule) for rule in inserts]
            delta = self._merge_deltas(updates)
        applied = _clock()
        per_op = (applied - start) / len(updates) if updates else 0.0
        ops = [OpRecord("+" if update.inserted else "-", update.rid, per_op)
               for update in updates]
        return self._commit(updates, ops, delta, applied)

    # -- the unified Query API ---------------------------------------------------

    def query(self, query: Query) -> QueryResult:
        """Answer a typed query (:class:`~repro.query.FlowsOn`,
        :class:`~repro.query.Reachable`, :class:`~repro.query.LinkDown`,
        :class:`~repro.query.Loops`) with one uniform
        :class:`~repro.query.QueryResult` envelope.

        Delta-net backends evaluate goal-directed — restricted to the
        atom set and link subgraph the query can touch — and fill the
        atom-currency fields (``atoms``, ``subgraph``); every backend
        fills ``spans``/``violations``.  ``result.seconds`` reports the
        evaluation wall-clock.
        """
        start = _clock()
        run = getattr(self.backend, "run_query", None)
        if run is not None:
            result = run(query)
        else:
            # Duck-typed backend instance without the planner hook.
            from repro.query.planner import evaluate_generic

            result = evaluate_generic(self.backend, query)
        result.seconds = _clock() - start
        return result

    # -- speculation -------------------------------------------------------------

    def speculate(self) -> "SpeculativeSession":
        """Fork a copy-on-write what-if child of this session.

        The child answers updates/queries against a private fork of the
        backend state (CoW on the Delta-net backends — no clone) plus
        clones of the watched properties, and buffers its operations;
        ``child.commit()`` replays them here, ``child.discard()`` drops
        everything.  Fork ``k`` children to evaluate ``k`` candidate
        changes concurrently against the same base state.  A child is
        only coherent while this session stays unchanged — once it
        advances, the child raises :class:`~repro.core.speculative.
        StaleSpeculationError`.
        """
        return SpeculativeSession(self)

    # -- queries the typed Query API does not cover ----------------------------

    def find_blackholes(self) -> Dict[object, Spans]:
        """Return, per node, the header intervals it silently drops."""
        return self.backend.find_blackholes()

    def links(self) -> List[Link]:
        """Return every link referenced by at least one installed rule."""
        return self.backend.links()

    # -- internals --------------------------------------------------------------

    def _apply_one(self, kind: str, rid: int, action, arg):
        start = _clock()
        update: BackendUpdate = action(arg)
        applied = _clock()
        record = OpRecord(kind, rid, applied - start)
        batch = self._batch
        if batch is not None:
            batch.updates.append(update)
            batch.ops.append(record)
            return record
        return self._commit([update], [record], update.delta, applied)

    def _begin_batch(self, txn: BatchTransaction) -> None:
        if self._batch is not None:
            raise RuntimeError("batches do not nest")
        self._batch = txn

    def _end_batch(self, txn: BatchTransaction, failed: bool) -> None:
        self._batch = None
        # Even when the batch body raised, the operations applied before
        # the error have changed the data plane — they must still be
        # checked, or their violations would be lost for good (every
        # later incremental check inspects only its own delta).
        txn.result = self._commit(txn.updates, txn.ops,
                                  self._merge_deltas(txn.updates), _clock())

    @staticmethod
    def _merge_deltas(updates: List[BackendUpdate]) -> Optional[DeltaGraph]:
        if len(updates) == 1:
            # A lone update's delta-graph is the commit's: hand it
            # through instead of re-recording it edge by edge.
            return updates[0].delta
        return _merge_update_deltas(updates)

    def _commit(self, updates: List[BackendUpdate], ops: List[OpRecord],
                delta: Optional[DeltaGraph], applied: float) -> UpdateResult:
        """Check ``updates`` once and wrap up their result; ``applied``
        is the clock reading taken as the last of them returned, where
        the time spent checking starts to count."""
        self.sequence += len(ops)
        backend = self.backend
        result = UpdateResult(backend.name, ops, delta)
        if self._watched and updates:
            commit = Commit(updates, delta)
            seen_by = self._seen
            for prop, key, clears in self._watched:
                seen = seen_by[key]
                current: Set[Tuple[object, ...]] = set()
                for violation in prop.check(backend, commit):
                    current.add(violation.signature)
                    if violation.signature in seen:
                        continue
                    seen.add(violation.signature)
                    result.violations.append(violation)
                    self._violation_log.append(violation)
                if clears:
                    # State-based properties re-arm once satisfied: a
                    # violation that disappeared may fire again later.
                    seen_by[key] = current
            result.check_seconds = _clock() - applied
        return result

    def __repr__(self) -> str:
        return (f"VerificationSession(backend={self.backend_name!r}, "
                f"rules={self.num_rules}, "
                f"properties={[p.name for p in self.properties]})")


class SpeculativeSession(VerificationSession):
    """A copy-on-write what-if child of a live session.

    Forked by :meth:`VerificationSession.speculate`.  The child holds a
    speculative fork of the parent's backend (CoW on the Delta-net
    backends, a snapshot clone elsewhere) plus clones of the watched
    properties — including their dedup state, so a violation the parent
    already delivered is not re-alerted speculatively.  Every update the
    child applies is also buffered as a dataset
    :class:`~repro.datasets.format.Op`; :meth:`commit` replays the
    buffer on the parent (producing the parent's own
    :class:`UpdateResult` stream), :meth:`discard` drops it.

    The child is only coherent while the parent stays at the sequence
    recorded at fork time; any parent advance makes every subsequent
    child update or query raise :class:`~repro.core.speculative.
    StaleSpeculationError` — including a sibling's ``commit()``, so of
    ``k`` concurrent candidates the first commit wins and the rest must
    re-speculate.
    """

    def __init__(self, parent: VerificationSession) -> None:
        import copy

        from repro.api.properties import (
            property_from_spec, property_spec, property_state,
        )

        self.backend = parent.backend.speculate()
        self.parent = parent
        self._watched = []
        self._seen = {}
        self._violation_log = []
        self._batch = None
        self.sequence = parent.sequence
        self._spec_base_sequence = parent.sequence
        self._spec_buffer: List[Op] = []
        self._spec_closed = False
        for prop in parent.properties:
            clone = property_from_spec(prop.name, property_spec(prop))
            if clone is None:
                # Not a registered/spec-carrying property: a deep copy
                # still isolates its mutable check state from the parent.
                clone = copy.deepcopy(prop)
            else:
                state = property_state(prop)
                load = getattr(clone, "load_state_dict", None)
                if state is not None and callable(load):
                    load(state)
            self.watch(clone)
            self._seen[id(clone)] = set(parent._seen.get(id(prop), ()))

    # -- freshness ---------------------------------------------------------------

    def assert_fresh(self) -> None:
        """Raise unless this child still reflects the parent's state."""
        if self._spec_closed:
            raise StaleSpeculationError(
                "speculation was already committed or discarded")
        if self.parent.sequence != self._spec_base_sequence:
            raise StaleSpeculationError(
                "parent session advanced since this speculation was "
                f"forked ({self.parent.sequence - self._spec_base_sequence} "
                "op(s) behind); discard and re-speculate")

    # -- buffered updates --------------------------------------------------------

    def insert(self, rule: Rule):
        """Insert ``rule`` into the speculative state and buffer it for
        :meth:`commit`; checked like a normal insert, invisible to the
        parent.  Raises :class:`StaleSpeculationError` if the parent
        advanced since the fork."""
        self.assert_fresh()
        result = super().insert(rule)
        self._spec_buffer.append(Op.insert(rule))
        return result

    def remove(self, rid: int):
        """Remove rule ``rid`` from the speculative state and buffer the
        removal for :meth:`commit`; invisible to the parent.  Raises
        :class:`StaleSpeculationError` if the parent advanced since the
        fork."""
        self.assert_fresh()
        result = super().remove(rid)
        self._spec_buffer.append(Op.remove(rid))
        return result

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()) -> UpdateResult:
        """Apply a batch to the speculative state (removals first, then
        insertions, as on the parent session) and buffer the ops in that
        replay order for :meth:`commit`.  Raises
        :class:`StaleSpeculationError` if the parent advanced since the
        fork."""
        self.assert_fresh()
        inserts = list(rules_to_insert)
        removals = list(rids_to_remove)
        result = super().apply_batch(inserts, removals)
        # Buffer in the order the batch semantics applied them
        # (removals first), so a sequential replay reproduces the
        # child-observed state exactly.
        self._spec_buffer.extend(Op.remove(rid) for rid in removals)
        self._spec_buffer.extend(Op.insert(rule) for rule in inserts)
        return result

    # -- checked queries ---------------------------------------------------------

    def query(self, query: Query) -> QueryResult:
        """Evaluate a typed query against the speculative state (base
        rules plus buffered changes).  Raises
        :class:`StaleSpeculationError` if the parent advanced since the
        fork."""
        self.assert_fresh()
        return super().query(query)

    def find_blackholes(self) -> Dict[object, Spans]:
        """Find black holes in the speculative state; raises
        :class:`StaleSpeculationError` if the parent advanced since the
        fork."""
        self.assert_fresh()
        return super().find_blackholes()

    def links(self) -> List[Link]:
        """The links present in the speculative state; raises
        :class:`StaleSpeculationError` if the parent advanced since the
        fork."""
        self.assert_fresh()
        return super().links()

    # -- resolution --------------------------------------------------------------

    def buffered_ops(self) -> List[Op]:
        """The child's applied operations, in replay order (a copy)."""
        return list(self._spec_buffer)

    def commit(self) -> List[UpdateResult]:
        """Replay the buffered ops on the parent; retires this child.

        Returns the parent's per-op results (with the parent's own
        property checking and violation dedup).  Raises
        :class:`~repro.core.speculative.StaleSpeculationError` — before
        touching the parent — if the parent advanced since the fork.
        """
        self.assert_fresh()
        ops = self.buffered_ops()
        try:
            return [self.parent.apply(op) for op in ops]
        finally:
            self.discard()

    def discard(self) -> None:
        """Drop the speculative state; idempotent."""
        if self._spec_closed:
            return
        self._spec_closed = True
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def close(self) -> None:
        """Alias for :meth:`discard` — closing a speculative session
        drops its state without touching the parent."""
        self.discard()

    def save(self, target) -> None:
        """Refused: speculative state is never durable.  Always raises
        :class:`RuntimeError`; :meth:`commit` or :meth:`discard` instead."""
        raise RuntimeError("speculative sessions are ephemeral; "
                           "commit() or discard() them instead of saving")

    def __repr__(self) -> str:
        return (f"SpeculativeSession(backend={self.backend_name!r}, "
                f"rules={self.num_rules}, "
                f"buffered={len(self._spec_buffer)}, "
                f"closed={self._spec_closed})")
