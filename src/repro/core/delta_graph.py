"""Delta-graphs: the incremental by-product of rule updates (paper §3.3).

A delta-graph records exactly which ``(link, atom)`` ownerships changed
while processing one (or an aggregated batch of) rule update(s).  It is
the compact structure on which per-update property checks run: a loop
check after inserting rule ``r`` only needs to chase the atoms whose
owner changed, from the switches whose out-edges changed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.core.rules import Link


class DeltaGraph:
    """Changed edge labels from one or more rule updates.

    ``added[link]`` / ``removed[link]`` are the atoms that started / ceased
    flowing along ``link``.  Aggregation over multiple updates cancels a
    remove that follows an add (and vice versa), matching the paper's note
    that "multiple rule updates may be aggregated into a delta-graph".
    """

    __slots__ = ("added", "removed", "splits", "collected")

    def __init__(self) -> None:
        self.added: Dict[Link, Set[int]] = {}
        self.removed: Dict[Link, Set[int]] = {}
        #: Atom splits performed by this update: ``(old_atom, new_atom)``.
        #: A split is not a flow change (the new atom inherits the old
        #: atom's links), but consumers that cache per-atom state — e.g.
        #: an incrementally maintained Algorithm 3 closure — need to know
        #: that a fresh atom id came into existence.
        self.splits: List[Tuple[int, int]] = []
        #: Atom ids garbage-collected by this update (GC mode only).
        self.collected: List[int] = []

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __bool__(self) -> bool:
        return not self.is_empty()

    # -- recording (called from Algorithms 1/2) -------------------------------

    def record_add(self, link: Link, atom: int) -> None:
        pending_removal = self.removed.get(link)
        if pending_removal and atom in pending_removal:
            pending_removal.discard(atom)
            if not pending_removal:
                del self.removed[link]
            return
        self.added.setdefault(link, set()).add(atom)

    def record_remove(self, link: Link, atom: int) -> None:
        pending_add = self.added.get(link)
        if pending_add and atom in pending_add:
            pending_add.discard(atom)
            if not pending_add:
                del self.added[link]
            return
        self.removed.setdefault(link, set()).add(atom)

    def merge(self, other: "DeltaGraph") -> None:
        """Aggregate another delta-graph into this one (in order).

        The records already held are first brought to ``other``'s atom
        granularity: a split's new atom inherits every label of the old
        one, so whatever is pending for the old atom is pending for the
        new one as well (otherwise an add recorded before the split
        cancels against a removal after it and the half that kept
        flowing is lost).  In GC mode the new atom's id may be a
        recycled one; records still held under it describe a collected
        atom and are dropped, so they cannot cancel against the new
        atom's.  Without GC the aggregate is exact; with it, ``removed``
        may lose such a dropped entry, which is why consumers that need
        every link that lost flow also read the per-op delta-graphs.
        """
        for old_atom, new_atom in other.splits:
            for buckets in (self.added, self.removed):
                for link in list(buckets):
                    atoms = buckets[link]
                    atoms.discard(new_atom)
                    if old_atom in atoms:
                        atoms.add(new_atom)
                    elif not atoms:
                        del buckets[link]
        for link, atoms in other.added.items():
            for atom in atoms:
                self.record_add(link, atom)
        for link, atoms in other.removed.items():
            for atom in atoms:
                self.record_remove(link, atom)
        self.splits.extend(other.splits)
        self.collected.extend(other.collected)

    # -- views used by the checkers -------------------------------------------

    def affected_atoms(self) -> Set[int]:
        """Atoms whose *ownership* changed (excludes pure splits/GC)."""
        atoms: Set[int] = set()
        for bucket in self.added.values():
            atoms |= bucket
        for bucket in self.removed.values():
            atoms |= bucket
        return atoms

    def touched_atoms(self) -> Set[int]:
        """Atoms whose per-atom cached state may be stale: ownership
        changes plus split-created plus garbage-collected ids."""
        atoms = self.affected_atoms()
        atoms.update(new for _old, new in self.splits)
        atoms.update(self.collected)
        return atoms

    def affected_links(self) -> Set[Link]:
        return set(self.added) | set(self.removed)

    def affected_sources(self) -> Set[object]:
        return {link.source for link in self.affected_links()}

    def changes(self) -> Iterator[Tuple[Link, int, int]]:
        """Yield ``(link, atom, +1 | -1)`` tuples."""
        for link, atoms in self.added.items():
            for atom in atoms:
                yield link, atom, +1
        for link, atoms in self.removed.items():
            for atom in atoms:
                yield link, atom, -1

    def __repr__(self) -> str:
        plus = sum(len(v) for v in self.added.values())
        minus = sum(len(v) for v in self.removed.values())
        return f"DeltaGraph(+{plus} atoms over {len(self.added)} links, -{minus} over {len(self.removed)})"
