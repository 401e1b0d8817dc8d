"""Naive two-field multi-range verification (paper §6, future work).

"Since a naive implementation of Delta-net is exponential in the number
of range-based packet header fields (as is Veriflow's), it would be
interesting to guide further developments into multi-range support in
higher dimensions using the 'overlapping degree' among rules."

This module *is* that naive implementation, for two range fields (e.g.
source and destination address).  It keeps one
:class:`~repro.core.atoms.AtomTable` per dimension and labels links with
sets of **atom pairs** ``(a0, a1)``.  The cross-product is exactly where
the exponential cost lives: a dimension-0 split must replicate state for
every dimension-1 atom paired with it.  :meth:`TwoFieldDeltaNet.
overlap_degree` exposes the paper's suggested metric for studying it.

Semantics are validated against a brute-force 2-D oracle in the tests;
the ablation benchmark measures pair-atom growth against the
single-field verifier's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.atoms import AtomTable
from repro.core.rules import Action, DROP, Link

Pair = Tuple[int, int]


class Rule2D:
    """A rule matching two half-closed ranges (one per field)."""

    __slots__ = ("rid", "ranges", "priority", "link", "action")

    def __init__(self, rid: int, range0: Tuple[int, int],
                 range1: Tuple[int, int], priority: int, link: Link,
                 action: Action = Action.FORWARD) -> None:
        for lo, hi in (range0, range1):
            if lo >= hi:
                raise ValueError(f"rule {rid}: empty range [{lo}:{hi})")
        self.rid = rid
        self.ranges = (range0, range1)
        self.priority = priority
        self.link = link if isinstance(link, Link) else Link(*link)
        self.action = action

    @property
    def source(self) -> object:
        return self.link.source

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (self.priority, self.rid)

    def matches(self, point0: int, point1: int) -> bool:
        (lo0, hi0), (lo1, hi1) = self.ranges
        return lo0 <= point0 < hi0 and lo1 <= point1 < hi1

    def __repr__(self) -> str:
        return (f"Rule2D(#{self.rid} {self.ranges[0]}x{self.ranges[1]} "
                f"prio={self.priority} {self.link})")


class TwoFieldDeltaNet:
    """Delta-net lifted to two range fields via pair atoms (naive)."""

    def __init__(self, widths: Tuple[int, int] = (16, 16)) -> None:
        self.widths = widths
        self.tables = (AtomTable(width=widths[0]),
                       AtomTable(width=widths[1]))
        self.label: Dict[Link, Set[Pair]] = {}
        self.rules: Dict[int, Rule2D] = {}
        # owner maps a pair atom + source to the rules covering it,
        # kept as plain dicts (the naive formulation; no persistence).
        self._owner: Dict[Pair, Dict[object, List[Rule2D]]] = {}

    @property
    def num_pair_atoms(self) -> int:
        """Live pair atoms with at least one owning rule."""
        return len(self._owner)

    @property
    def num_axis_atoms(self) -> Tuple[int, int]:
        return (self.tables[0].num_atoms, self.tables[1].num_atoms)

    def _pairs_of(self, rule: Rule2D) -> Iterator[Pair]:
        (lo0, hi0), (lo1, hi1) = rule.ranges
        atoms1 = self.tables[1].atoms_in(lo1, hi1)
        for a0 in self.tables[0].atoms_in(lo0, hi0):
            for a1 in atoms1:
                yield (a0, a1)

    # -- rule lifecycle ----------------------------------------------------------

    def insert_rule(self, rule: Rule2D) -> None:
        if rule.rid in self.rules:
            raise ValueError(f"duplicate rule id {rule.rid}")
        self.rules[rule.rid] = rule
        for dim in (0, 1):
            lo, hi = rule.ranges[dim]
            for old_atom, new_atom in self.tables[dim].create_atoms(lo, hi):
                self._split_dimension(dim, old_atom, new_atom)
        for pair in self._pairs_of(rule):
            owners = self._owner.setdefault(pair, {})
            bucket = owners.setdefault(rule.source, [])
            previous = max(bucket, key=lambda r: r.sort_key) if bucket else None
            if previous is None or previous.sort_key < rule.sort_key:
                if previous is not None and previous.link != rule.link:
                    self._label_discard(previous.link, pair)
                if previous is None or previous.link != rule.link:
                    self._label_add(rule.link, pair)
            bucket.append(rule)

    def remove_rule(self, rid: int) -> None:
        rule = self.rules.pop(rid, None)
        if rule is None:
            raise KeyError(f"unknown rule id {rid}")
        for pair in self._pairs_of(rule):
            owners = self._owner.get(pair, {})
            bucket = owners.get(rule.source, [])
            previous = max(bucket, key=lambda r: r.sort_key)
            bucket.remove(rule)
            if previous.rid == rid:
                successor = (max(bucket, key=lambda r: r.sort_key)
                             if bucket else None)
                if successor is None or successor.link != rule.link:
                    self._label_discard(rule.link, pair)
                    if successor is not None:
                        self._label_add(successor.link, pair)
            if not bucket:
                del owners[rule.source]
                if not owners:
                    self._owner.pop(pair, None)

    def _split_dimension(self, dim: int, old_atom: int, new_atom: int) -> None:
        """Replicate pair state — the naive exponential step.

        Every pair containing ``old_atom`` on axis ``dim`` spawns the
        corresponding pair with ``new_atom``, copying owners and labels.
        """
        spawned: List[Tuple[Pair, Pair]] = []
        for pair in list(self._owner):
            if pair[dim] != old_atom:
                continue
            twin = ((new_atom, pair[1]) if dim == 0 else (pair[0], new_atom))
            spawned.append((pair, twin))
        for pair, twin in spawned:
            self._owner[twin] = {source: list(bucket) for source, bucket
                                 in self._owner[pair].items()}
            for owners in (self._owner[pair],):
                for source, bucket in owners.items():
                    best = max(bucket, key=lambda r: r.sort_key)
                    self._label_add(best.link, twin)

    def _label_add(self, link: Link, pair: Pair) -> None:
        self.label.setdefault(link, set()).add(pair)

    def _label_discard(self, link: Link, pair: Pair) -> None:
        bucket = self.label.get(link)
        if bucket is not None:
            bucket.discard(pair)
            if not bucket:
                del self.label[link]

    # -- queries -------------------------------------------------------------------

    def flows_on(self, link) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """Carried packet space as a list of (range0, range1) boxes."""
        if not isinstance(link, Link):
            link = Link(*link)
        boxes = []
        for a0, a1 in sorted(self.label.get(link, ())):
            boxes.append((self.tables[0].atom_interval(a0),
                          self.tables[1].atom_interval(a1)))
        return boxes

    def owner_rule_at(self, source: object, point0: int,
                      point1: int) -> Optional[Rule2D]:
        pair = (self.tables[0].atom_at(point0), self.tables[1].atom_at(point1))
        bucket = self._owner.get(pair, {}).get(source)
        if not bucket:
            return None
        return max(bucket, key=lambda r: r.sort_key)

    def overlap_degree(self) -> float:
        """The paper's suggested metric: mean #rules covering a pair atom.

        High overlap degree is what makes the naive cross-product blow
        up; the §6 research direction is to exploit low degrees.
        """
        if not self._owner:
            return 0.0
        total = sum(len(bucket) for owners in self._owner.values()
                    for bucket in owners.values())
        return total / len(self._owner)

    def __repr__(self) -> str:
        return (f"TwoFieldDeltaNet(rules={len(self.rules)}, "
                f"axis_atoms={self.num_axis_atoms}, "
                f"pair_atoms={self.num_pair_atoms})")
