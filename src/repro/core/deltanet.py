"""The Delta-net verifier: Algorithms 1 and 2 of the paper (§3.2).

Delta-net incrementally maintains a single edge-labelled graph that
represents the flow of *all* packets in the entire network:

* ``label[link]`` — the atoms (packet classes) that flow along ``link``,
  i.e. the link of the highest-priority rule owning each atom, stored
  run-length compressed (:class:`~repro.structures.atomruns.AtomRuns`)
  inside the :class:`~repro.core.findex.ForwardingIndex` next to its
  digest: what a link carries,
* ``owner[atom][source]`` — a priority-ordered BST of the rules installed
  on ``source`` whose interval contains ``atom`` (persistent treaps, so an
  atom split copies them in O(1)); its highest-priority rule is where
  the atom goes next.  Every property checker reads only this, through
  :meth:`DeltaNet.next_hop` (one hop) and :meth:`DeltaNet.atom_links`
  (an atom's links), one atom at a time,
* the atom table ``M`` (:class:`repro.core.atoms.AtomTable`).

Each :meth:`DeltaNet.insert_rule` / :meth:`DeltaNet.remove_rule` call
returns the :class:`repro.core.delta_graph.DeltaGraph` of label changes it
caused, on which incremental property checks (loops, black holes, ...)
run.  Per Theorem 1 the amortized cost of ``R`` updates is
``O(R * K * log M)`` with ``K`` atoms and at most ``M`` overlapping rules
per switch.  :meth:`DeltaNet.apply_batch` applies many updates as one
aggregated delta-graph, amortizing the per-op costs across the batch
(see ``docs/performance.md``).

The optional ``gc=True`` mode implements the paper's §3.2.2 remark:
boundaries no longer used by any rule are removed and their atom ids are
recycled (merged into the predecessor atom, which by construction has
identical ownership).
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union,
)

from repro.core.atoms import AtomTable
from repro.core.delta_graph import DeltaGraph
from repro.core.findex import ForwardingIndex
from repro.core.prefix import prefix_to_interval
from repro.core.rules import Action, Link, Rule, validate_batch_ops
from repro.structures import ptreap
from repro.structures.atomruns import AtomRuns

OwnerMap = Dict[object, ptreap.Root]  # source node -> persistent treap root

_EMPTY_LABEL: FrozenSet[int] = frozenset()


class DeltaNet:
    """Real-time data-plane verifier over IP-prefix forwarding rules."""

    def __init__(self, width: int = 32, gc: bool = False) -> None:
        self.width = width
        self.gc = gc
        self.atoms = AtomTable(width=width)
        #: The forwarding index owns the labels; ``self.label`` aliases
        #: its ``by_link`` dict so every reader of the label table sees
        #: the index's one state.
        self.findex = ForwardingIndex()
        self.label: Dict[Link, AtomRuns] = self.findex.by_link
        self.rules: Dict[int, Rule] = {}
        self._owner: List[Optional[OwnerMap]] = [{}]  # slot per atom id; alpha_0 exists
        self.nodes: Set[object] = set()
        #: Count of committed mutations (insert/remove/batch).  Speculative
        #: children record it at fork time and refuse to run once the
        #: parent has moved on (see :mod:`repro.core.speculative`).
        self.mutations = 0

    # -- public queries --------------------------------------------------------

    @property
    def num_rules(self) -> int:
        return len(self.rules)

    @property
    def num_atoms(self) -> int:
        return self.atoms.num_atoms

    def links(self) -> Iterator[Link]:
        """Links that currently carry at least one atom."""
        return (link for link, atoms in self.label.items() if atoms)

    def label_of(self, link: Union[Link, Tuple[object, object]]) -> FrozenSet[int]:
        """Atoms flowing along ``link``, as an immutable snapshot (§3.3).

        The internal label buckets are live mutable
        :class:`~repro.structures.atomruns.AtomRuns`; handing them out
        directly would let callers silently corrupt verifier state, so
        this returns a frozen copy (O(|label|)).  Hot internal paths read
        ``self.label`` directly.
        """
        if not isinstance(link, Link):
            link = Link(*link)
        bucket = self.label.get(link)
        return frozenset(bucket) if bucket else _EMPTY_LABEL

    def owner_map(self, atom: int) -> OwnerMap:
        """``source -> rule-BST root`` for ``atom`` (diagnostics/tests)."""
        owners = self._owner[atom]
        if owners is None:
            raise KeyError(f"atom {atom} is dead")
        return owners

    def _peek_owners(self, atom: int) -> Optional[OwnerMap]:
        """``owner[atom]`` for reading only (``None``: dead or unknown
        atom).  Speculative children answer without materialising the
        slot in their copy-on-write overlay."""
        owner = self._owner
        return owner[atom] if 0 <= atom < len(owner) else None

    def owner_rule(self, atom: int, source: object) -> Optional[Rule]:
        """Highest-priority rule owning ``atom`` at ``source``, if any."""
        owners = self._peek_owners(atom)
        root = owners.get(source) if owners else None
        return ptreap.max_node(root).value if root is not None else None

    def next_hop(self, node: object, atom: int) -> Optional[object]:
        """Where an ``atom``-packet at ``node`` goes next: the target of
        its highest-priority owner's link (:data:`DROP` for a drop rule),
        ``None`` when no rule at ``node`` owns the atom or it is dead.

        THE chase primitive of every path-following check: it reads the
        owner structure Algorithms 1/2 maintain — a slot, a dict probe
        and the treap's right spine, O(log M) — instead of searching the
        node's labelled out-links for the one that carries the atom.
        """
        owners = self._peek_owners(atom)
        root = owners.get(node) if owners else None
        if root is None:
            return None
        while root.right is not None:
            root = root.right
        return root.value.link.target

    def atom_links(self, atom: int) -> List[Link]:
        """The links that carry ``atom``: one per source owning it, the
        link of that source's highest-priority rule (``[]`` when the atom
        is dead or unknown).

        The per-atom inverse of ``label``, read off the owner structure
        as :meth:`next_hop` reads it — O(|owner[atom]| · log M), however
        many links the network has.
        """
        owners = self._peek_owners(atom)
        if not owners:
            return []
        links = []
        for root in owners.values():
            while root.right is not None:
                root = root.right
            links.append(root.value.link)
        return links

    def atoms_overlapping(self, lo: int, hi: int) -> List[int]:
        """All atoms whose interval intersects ``[lo : hi)``."""
        return self.atoms.overlapping(lo, hi)

    def flows_on(self, link: Union[Link, Tuple[object, object]]) -> List[Tuple[int, int]]:
        """The packet space carried by ``link`` as canonical intervals."""
        from repro.core.atomset import atoms_to_interval_set

        if not isinstance(link, Link):
            link = Link(*link)
        # Read the live bucket directly: the snapshot copy label_of makes
        # for external callers would be allocated only to be iterated
        # once here and discarded.
        return atoms_to_interval_set(self.label.get(link, ()), self.atoms)

    # -- rule construction helpers ---------------------------------------------

    def make_rule(self, rid: int, prefix: str, priority: int, source: object,
                  target: object = None, action: Action = Action.FORWARD) -> Rule:
        """Build a rule from CIDR text; drop rules omit ``target``."""
        lo, hi = prefix_to_interval(prefix, self.width)
        if action is Action.DROP:
            return Rule.drop(rid, lo, hi, priority, source)
        if target is None:
            raise ValueError("forward rules need a target")
        return Rule.forward(rid, lo, hi, priority, source, target)

    # -- Algorithm 1: INSERT_RULE ------------------------------------------------

    def insert_rule(self, rule: Rule) -> DeltaGraph:
        """Insert ``rule``; return the delta-graph of label changes."""
        if rule.rid in self.rules:
            raise ValueError(f"duplicate rule id {rule.rid}")
        if not self.atoms.min <= rule.lo < rule.hi <= self.atoms.max:
            # Validate before touching any structure so a rejected insert
            # leaves no trace.
            raise ValueError(
                f"rule {rule.rid} interval [{rule.lo}:{rule.hi}) outside "
                f"the {self.width}-bit header space")
        self.mutations += 1
        self.rules[rule.rid] = rule
        self.nodes.add(rule.source)
        if rule.target is not None:
            # Rules built without a concrete next hop (e.g. a raw
            # Link(source, None)) must not pollute the node set.
            self.nodes.add(rule.target)
        delta_graph = DeltaGraph()

        # CREATE_ATOMS+ (line 2): |delta| <= 2 new atoms.
        delta = self.atoms.create_atoms(rule.lo, rule.hi)
        delta_graph.splits.extend(delta)
        if self.gc:
            self.atoms.ref_bounds(rule.lo, rule.hi)

        # Atom splits (lines 3-9): the new atom inherits the old atom's
        # owners (O(1) shared persistent roots) and joins every label the
        # old atom is flowing on.
        self._apply_splits(delta)

        # Ownership (lines 10-23): for every atom of the rule's interval,
        # compare against the current highest-priority owner at source(r).
        self._insert_ownership(rule, delta_graph)
        return delta_graph

    def _apply_splits(self, delta: List[Tuple[int, int]]) -> None:
        """Split bookkeeping: copy owner maps, extend labels (lines 3-9)."""
        owner = self._owner
        pt_max = ptreap.max_node
        label_add = self.findex.add
        for old_atom, new_atom in delta:
            old_owners = owner[old_atom]
            self._set_owner_slot(new_atom, dict(old_owners))
            for root in old_owners.values():
                label_add(pt_max(root).value.link, new_atom)

    def _insert_ownership(self, rule: Rule, delta_graph: DeltaGraph) -> None:
        """The per-atom ownership sweep of Algorithm 1 (lines 10-23)."""
        source = rule.source
        key = rule.sort_key
        rlink = rule.link
        # The sweep runs once per atom of the rule's interval — hoist
        # every repeated attribute/function lookup out of the loop and
        # hash the treap key once instead of once per atom.
        prio = ptreap.heap_prio(key)
        node_cls = ptreap.PNode
        pt_insert = ptreap.insert
        pt_max = ptreap.max_node
        owner = self._owner
        label_add = self.findex.add
        label_discard = self.findex.discard
        record_add = delta_graph.record_add
        record_remove = delta_graph.record_remove
        for atom in self.atoms.atoms_in(rule.lo, rule.hi):
            owners = owner[atom]
            root = owners.get(source)
            if root is None:
                # Fast path: no competing rule at this source — the new
                # rule owns the atom outright and its BST is a single node.
                label_add(rlink, atom)
                record_add(rlink, atom)
                owners[source] = node_cls(key, rule, prio, None, None)
                continue
            current = pt_max(root).value
            if current.sort_key < key and current.link != rlink:
                label_add(rlink, atom)
                record_add(rlink, atom)
                label_discard(current.link, atom)
                record_remove(current.link, atom)
            owners[source] = pt_insert(root, key, rule, prio)

    # -- Algorithm 2: REMOVE_RULE -------------------------------------------------

    def remove_rule(self, rule_or_rid: Union[Rule, int]) -> DeltaGraph:
        """Remove a rule; return the delta-graph of label changes."""
        rid = rule_or_rid.rid if isinstance(rule_or_rid, Rule) else rule_or_rid
        rule = self.rules.pop(rid, None)
        if rule is None:
            raise KeyError(f"unknown rule id {rid}")
        self.mutations += 1
        delta_graph = DeltaGraph()
        self._remove_ownership(rule, delta_graph)
        return delta_graph

    def _remove_ownership(self, rule: Rule, delta_graph: DeltaGraph) -> None:
        """The per-atom sweep of Algorithm 2, recording into ``delta_graph``."""
        source = rule.source
        key = rule.sort_key
        rid = rule.rid
        rlink = rule.link
        pt_remove = ptreap.remove
        pt_max = ptreap.max_node
        owner = self._owner
        label_add = self.findex.add
        label_discard = self.findex.discard
        record_add = delta_graph.record_add
        record_remove = delta_graph.record_remove
        for atom in self.atoms.atoms_in(rule.lo, rule.hi):
            owners = owner[atom]
            root = owners[source]
            previous_owner = pt_max(root).value
            root = pt_remove(root, key)
            if root is None:
                del owners[source]
            else:
                owners[source] = root
            if previous_owner.rid == rid:
                # The removed rule owned this atom; ownership transfers to
                # the next highest-priority rule, if any (lines 6-12).
                successor = pt_max(root).value if root is not None else None
                if successor is None or successor.link != rlink:
                    label_discard(rlink, atom)
                    record_remove(rlink, atom)
                    if successor is not None:
                        label_add(successor.link, atom)
                        record_add(successor.link, atom)

        if self.gc:
            for bound in self.atoms.unref_bounds(rule.lo, rule.hi):
                delta_graph.collected.append(self._collect_atom(bound))

    # -- batched updates ---------------------------------------------------------

    def apply(self, rules_to_insert: Iterable[Rule] = (),
              rids_to_remove: Iterable[int] = ()) -> DeltaGraph:
        """Apply a batch sequentially, returning one aggregated delta-graph.

        Reference implementation: loops the single-op algorithms and
        merges their delta-graphs.  :meth:`apply_batch` is the fast path
        with identical final state; this stays as the oracle the
        equivalence tests compare against.
        """
        aggregate = DeltaGraph()
        for rid in rids_to_remove:
            aggregate.merge(self.remove_rule(rid))
        for rule in rules_to_insert:
            aggregate.merge(self.insert_rule(rule))
        return aggregate

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()) -> DeltaGraph:
        """Batched Algorithms 1+2: removals first, then all insertions.

        Produces exactly the final state of :meth:`apply` — with
        ``gc=False`` down to identical atom ids; with ``gc=True`` the
        semantics (boundaries, flows, verdicts) still match but recycled
        ids may differ, because the batch skips the collect-then-recreate
        churn of a boundary shared by a removed and an inserted rule —
        while amortizing the per-op costs across the batch:

        * all boundary splits are pre-created in one deduplicated pass
          over the batch's intervals (:meth:`AtomTable.create_atoms_many`),
          so a boundary shared by many rules is probed once,
        * one delta-graph is recorded directly (no per-op graphs to
          allocate and re-merge), so an insert later shadowed within the
          same batch cancels to no edge at all.

        The whole batch is validated up front; a rejected batch leaves no
        trace.  A rule id removed by the batch may be re-inserted by it
        (removals run first); the aggregated delta-graph reflects the net
        flow changes, matching the paper's remark that "multiple rule
        updates may be aggregated into a delta-graph".
        """
        inserts = list(rules_to_insert)
        removals = list(rids_to_remove)
        validate_batch_ops(inserts, removals, self.rules, self.width)
        if inserts or removals:
            self.mutations += 1

        delta_graph = DeltaGraph()

        # Phase 1 — pre-create every boundary split of the batch, before
        # anything is recorded.  All subsequent add/remove records are
        # then at the batch's *final* atom granularity, which keeps the
        # aggregated delta-graph exact (post = pre + added - removed per
        # link) without consumers having to chase intra-batch splits.
        # With gc=False the allocation order is untouched (removals never
        # create boundaries), so atom ids still match sequential apply();
        # with gc=True, referencing the insert bounds first also spares
        # the pointless collect-then-recreate churn of a boundary shared
        # by a removed and an inserted rule.
        delta = self.atoms.create_atoms_many(
            (rule.lo, rule.hi) for rule in inserts)
        delta_graph.splits.extend(delta)
        self._apply_splits(delta)
        if self.gc:
            ref_bounds = self.atoms.ref_bounds
            for rule in inserts:
                ref_bounds(rule.lo, rule.hi)

        # Phase 2 — removals, in batch order (Algorithm 2 per rule).
        for rid in removals:
            self._remove_ownership(self.rules.pop(rid), delta_graph)

        # Phase 3 — insertions, in batch order (Algorithm 1 per rule).
        for rule in inserts:
            self.rules[rule.rid] = rule
            self.nodes.add(rule.source)
            if rule.target is not None:
                self.nodes.add(rule.target)
            self._insert_ownership(rule, delta_graph)
        return delta_graph

    # -- internals ----------------------------------------------------------------

    def _set_owner_slot(self, atom: int, owners: OwnerMap) -> None:
        while len(self._owner) <= atom:
            self._owner.append(None)
        self._owner[atom] = owners

    def _collect_atom(self, bound: int) -> int:
        """Garbage-collect the atom starting at ``bound`` (§3.2.2 remark).

        No rule starts or ends at ``bound`` any more, so the atom starting
        there has exactly the same owners as its predecessor; it can be
        erased from every label it appears on and its id recycled.
        Returns the collected atom id.
        """
        dead_atom, _survivor = self.atoms.collect(bound)
        owners = self._owner[dead_atom]
        for source, root in owners.items():
            highest = ptreap.max_node(root).value
            self.findex.discard(highest.link, dead_atom)
        self._owner[dead_atom] = None
        return dead_atom

    # -- integrity (see repro.integrity) --------------------------------------------

    def state_digest(self):
        """The live incremental digest of the verifier's mirror state.

        An order-independent fingerprint over every ``(link, atom)``
        label entry and every ``(boundary, atom)`` map entry — equal
        across any two instances holding the same state, however it was
        reached (cold replay, batch replay, snapshot restore).  Returns
        ``None`` when digests are disabled (``DELTANET_DIGESTS=0``).
        """
        from repro.integrity.digest import XORSUM_SCHEME, format_digest

        label = self.findex.digest
        bounds = self.atoms.digest
        if label is None or bounds is None:
            return None
        return format_digest(
            XORSUM_SCHEME, [label.as_tuple(), bounds.as_tuple()])

    def recompute_state_digest(self) -> str:
        """:meth:`state_digest` rebuilt from scratch by full iteration —
        the scrubber's reference value, available even when incremental
        digests are disabled."""
        from repro.integrity.digest import XORSUM_SCHEME, format_digest

        return format_digest(XORSUM_SCHEME, [
            self.findex.recompute_digest().as_tuple(),
            self.atoms.recompute_digest().as_tuple(),
        ])

    # -- persistence (see repro.persist) -------------------------------------------

    def state_dict(self) -> dict:
        """Full verifier state as deterministic plain data.

        The owner treaps are *not* serialized: their heap priorities are
        deterministic functions of the rule keys (:func:`repro.
        structures.ptreap.heap_prio`), which makes each treap's shape a
        canonical function of its key set — so :meth:`from_state`
        rebuilds them exactly from the rule store.  What is stored is
        the compact ground truth: atom table, rules, run-length labels
        and GC refcounts, as packed int columns over one node table
        (:mod:`repro.persist.columns`).
        """
        from repro.persist.columns import NodeTable, pack_labels, pack_rules

        # Nodes sorted by repr, labels by node index: byte-stable saves.
        table = NodeTable(sorted(self.nodes, key=repr))
        return {
            "width": self.width,
            "gc": self.gc,
            "atoms": self.atoms.state_dict(),
            "rules": pack_rules([self.rules[rid] for rid in sorted(self.rules)],
                                table),
            "labels": pack_labels(self.label, table),
            "nodes": table.nodes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DeltaNet":
        """Rebuild a verifier; the warm-start path.

        Cost: one treap insert per (rule, atom-in-interval) pair — the
        ownership sweep of Algorithm 1 without the label churn, the
        delta-graphs, or the per-update property checks a cold replay
        pays.  The resulting owner structure is *identical* to the
        original's (canonical treaps), so every later update and check
        behaves exactly as if the process had never restarted.
        """
        from repro.persist.columns import unpack_labels, unpack_rules

        net = cls(width=state["width"], gc=state["gc"])
        net.atoms = AtomTable.from_state(state["atoms"])
        net._owner = [None] * max(1, net.atoms.num_ids_allocated)
        for atom in net.atoms.live_atoms():
            net._owner[atom] = {}
        nodes = list(state["nodes"])
        rules = unpack_rules(state["rules"], nodes)
        for link, runs in unpack_labels(state["labels"], nodes):
            net.findex.set_label(link, AtomRuns.from_runs(runs))
        net.nodes = {node for node in nodes if node is not None}
        heap_prio = ptreap.heap_prio
        node_cls = ptreap.PNode
        pt_insert = ptreap.insert
        atoms_in = net.atoms.atoms_in
        owner = net._owner
        for rule in rules:
            net.rules[rule.rid] = rule
            key = rule.sort_key
            prio = heap_prio(key)
            source = rule.source
            for atom in atoms_in(rule.lo, rule.hi):
                owners = owner[atom]
                root = owners.get(source)
                if root is None:
                    owners[source] = node_cls(key, rule, prio, None, None)
                else:
                    owners[source] = pt_insert(root, key, rule, prio)
        return net

    # -- invariant checking (used by the test suite's oracles) --------------------

    def check_invariants(self) -> None:
        """Assert the §3.2 data-structure invariants; O(R*K), tests only."""
        assert None not in self.nodes, "None leaked into the node set"
        self.atoms.check_blocks()
        for atom, (lo, hi) in self.atoms.intervals():
            owners = self._owner[atom]
            assert owners is not None, f"live atom {atom} has no owner slot"
            for source, root in owners.items():
                assert root is not None
                for _key, rule in ptreap.iter_items(root):
                    assert rule.source == source
                    assert rule.lo <= lo and hi <= rule.hi, (
                        f"rule {rule} in owner[{atom}][{source}] does not "
                        f"contain atom [{lo}:{hi})")
        # Every labelled atom is owned by the highest-priority rule with
        # that link, and vice versa.
        expected: Dict[Link, Set[int]] = {}
        for atom, _interval in self.atoms.intervals():
            for source, root in self._owner[atom].items():
                highest = ptreap.max_node(root).value
                expected.setdefault(highest.link, set()).add(atom)
        actual = {link: set(atoms) for link, atoms in self.label.items() if atoms}
        assert actual == expected, "label map out of sync with owner structure"
        self.findex.check_consistency()
        live = self.state_digest()
        assert live is None or live == self.recompute_state_digest(), (
            "incremental state digest diverged from recomputation")

    def __repr__(self) -> str:
        return (f"DeltaNet(rules={self.num_rules}, atoms={self.num_atoms}, "
                f"links={sum(1 for _ in self.links())}, gc={self.gc})")
