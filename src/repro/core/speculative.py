"""Copy-on-write speculative Delta-net children (ROADMAP item 4).

:meth:`SpeculativeDeltaNet.from_parent` forks a what-if child in
O(boundaries + links + nodes + rules) *pointer* copies — no owner-treap
rebuild and no label duplication — so k candidate rule changes can be
evaluated concurrently against shared state and then committed (by
replaying the child's buffered ops on the parent) or discarded outright:

* the persistent per-``(atom, source)`` owner treaps
  (:mod:`repro.structures.ptreap`) are shared with the parent as-is —
  path copying makes their roots immutable, so sharing is free; only
  the per-atom ``source -> root`` dicts (which the sweeps mutate in
  place) are copied, lazily, the first time a sweep of the child touches
  an atom — path chases (``DeltaNet.next_hop``) peek and copy nothing,
* edge labels (:class:`~repro.structures.atomruns.AtomRuns`) are shared
  until the child's first write to that label; the write copies the
  runs (O(runs)) into the child's own ``by_link`` dict,
* the boundary map's block lists are copied — O(boundaries), far below
  the one treap insert per (rule, atom) pair a clone via
  ``DeltaNet.from_state`` pays.

A child is only coherent while its parent stays unchanged (the shared
labels would otherwise drift silently), so the parent's ``mutations``
counter is recorded at fork time and every child update re-checks it,
raising :class:`StaleSpeculationError` on divergence.  Children never
maintain the label digest (their state is ephemeral by definition); the
boundary digest rides along because the atom-table copy is generic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.deltanet import DeltaNet, OwnerMap
from repro.core.findex import ForwardingIndex
from repro.core.rules import Link
from repro.structures.atomruns import AtomRuns

_MISS = object()


class StaleSpeculationError(RuntimeError):
    """The speculation's parent changed underneath it (or a worker
    holding its state restarted); the child's answers can no longer be
    trusted and it must be discarded."""


class _CowOwners:
    """List-like copy-on-write view of the parent's per-atom owner slots.

    The ownership sweeps read a slot (``owner[atom]``) and then mutate
    the returned ``source -> treap-root`` dict in place, so the first
    read of a slot copies the parent's dict into a private overlay; the
    persistent treap roots *inside* the dict stay shared.  Slots for
    atoms the child itself creates live only in the overlay.
    """

    __slots__ = ("_parent", "_own", "_len")

    def __init__(self, parent_slots: List[Optional[OwnerMap]]) -> None:
        self._parent = parent_slots
        self._own: Dict[int, Optional[OwnerMap]] = {}
        self._len = len(parent_slots)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, atom: int) -> Optional[OwnerMap]:
        owners = self._own.get(atom, _MISS)
        if owners is not _MISS:
            return owners
        if not 0 <= atom < self._len:
            raise IndexError(f"owner slot {atom} out of range")
        # Every slot beyond the parent's length was appended by the
        # child and therefore already sits in the overlay.
        base = self._parent[atom]
        owners = dict(base) if base is not None else None
        self._own[atom] = owners
        return owners

    def peek(self, atom: int) -> Optional[OwnerMap]:
        """The slot for reading only: the overlay's dict if the child
        already touched the atom, else the parent's own — never a copy,
        so chasing a path leaves the overlay as it found it."""
        owners = self._own.get(atom, _MISS)
        if owners is not _MISS:
            return owners
        return self._parent[atom] if 0 <= atom < self._len else None

    def __setitem__(self, atom: int, owners: Optional[OwnerMap]) -> None:
        if not 0 <= atom < self._len:
            raise IndexError(f"owner slot {atom} out of range")
        self._own[atom] = owners

    def append(self, owners: Optional[OwnerMap]) -> None:
        self._own[self._len] = owners
        self._len += 1


class SpeculativeForwardingIndex(ForwardingIndex):
    """A forwarding index sharing the parent's label runs until written.

    The ``by_link`` dict is a private shallow copy from the start —
    O(links) pointers — while the :class:`AtomRuns` values stay shared.
    The first mutation of a label copies its runs.  No label digest is
    maintained (``digest`` is ``None``).
    """

    __slots__ = ("_owned",)

    @classmethod
    def from_parent(cls, parent: ForwardingIndex) -> "SpeculativeForwardingIndex":
        index = cls.__new__(cls)
        index.by_link = dict(parent.by_link)
        index.digest = None
        index._owned: Set[Link] = set()
        return index

    def _own_runs(self, link: Link, runs: AtomRuns) -> AtomRuns:
        mine = self.by_link[link] = runs.copy()
        self._owned.add(link)
        return mine

    def add(self, link: Link, atom: int) -> None:
        runs = self.by_link.get(link)
        if runs is None:
            runs = self.by_link[link] = AtomRuns()
            self._owned.add(link)
        elif link not in self._owned:
            if atom in runs:
                return
            runs = self._own_runs(link, runs)
        runs.add(atom)

    def discard(self, link: Link, atom: int) -> None:
        runs = self.by_link.get(link)
        if runs is None:
            return
        if link not in self._owned:
            if atom not in runs:
                return
            runs = self._own_runs(link, runs)
        runs.discard(atom)
        if not runs:
            del self.by_link[link]
            self._owned.discard(link)


class SpeculativeDeltaNet(DeltaNet):
    """A Delta-net child forked copy-on-write from a live parent.

    Behaves exactly like a :class:`DeltaNet` holding the parent's state
    (all algorithm methods are inherited; only the storage is CoW), but
    every mutation first asserts the parent has not advanced since the
    fork.  ``state_digest`` reports ``None`` — speculative state is
    ephemeral and never persisted or scrubbed.
    """

    @classmethod
    def from_parent(cls, parent: DeltaNet) -> "SpeculativeDeltaNet":
        child = cls.__new__(cls)
        child.width = parent.width
        child.gc = parent.gc
        child.atoms = parent.atoms.copy()
        child.findex = SpeculativeForwardingIndex.from_parent(parent.findex)
        child.label = child.findex.by_link
        child.rules = dict(parent.rules)
        child._owner = _CowOwners(parent._owner)
        child.nodes = set(parent.nodes)
        child.mutations = 0
        child._parent = parent
        child._base_mutations = parent.mutations
        return child

    def assert_fresh(self) -> None:
        """Raise :class:`StaleSpeculationError` if the parent advanced."""
        if self._parent.mutations != self._base_mutations:
            raise StaleSpeculationError(
                "parent advanced since this speculation was forked "
                f"({self._parent.mutations - self._base_mutations} "
                "mutation(s) behind); discard and re-speculate")

    def _peek_owners(self, atom):
        return self._owner.peek(atom)

    def insert_rule(self, rule):
        self.assert_fresh()
        return super().insert_rule(rule)

    def remove_rule(self, rule_or_rid):
        self.assert_fresh()
        return super().remove_rule(rule_or_rid)

    def apply_batch(self, rules_to_insert=(), rids_to_remove=()):
        self.assert_fresh()
        return super().apply_batch(rules_to_insert, rids_to_remove)

    def state_digest(self):
        return None

    def __repr__(self) -> str:
        return (f"SpeculativeDeltaNet(rules={self.num_rules}, "
                f"atoms={self.num_atoms}, "
                f"behind={self._parent.mutations - self._base_mutations})")
