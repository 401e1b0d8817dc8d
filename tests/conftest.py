"""Shared test fixtures and oracles.

The central oracle is :class:`BruteForceDataPlane`: a deliberately naive
model of the data plane that recomputes everything from scratch — the
ground truth against which Delta-net's incrementally maintained state,
Veriflow-RI's per-EC graphs, and the atomic-predicates verifier are all
cross-checked.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.core.rules import DROP, Link, Rule


class BruteForceDataPlane:
    """Ground-truth data plane: plain rule list, full recomputation."""

    def __init__(self, width: int = 8) -> None:
        self.width = width
        self.rules: Dict[int, Rule] = {}

    def insert(self, rule: Rule) -> None:
        assert rule.rid not in self.rules
        self.rules[rule.rid] = rule

    def remove(self, rid: int) -> None:
        del self.rules[rid]

    def boundaries(self) -> List[int]:
        points = {0, 1 << self.width}
        for rule in self.rules.values():
            points.add(rule.lo)
            points.add(rule.hi)
        return sorted(points)

    def segments(self) -> List[Tuple[int, int]]:
        """The finest partition induced by all rule boundaries."""
        bounds = self.boundaries()
        return list(zip(bounds, bounds[1:]))

    def owner_at(self, source: object, point: int) -> Optional[Rule]:
        """Highest-priority rule matching ``point`` at ``source``."""
        best: Optional[Rule] = None
        for rule in self.rules.values():
            if rule.source == source and rule.matches(point):
                if best is None or rule.sort_key > best.sort_key:
                    best = rule
        return best

    def sources(self) -> Set[object]:
        return {rule.source for rule in self.rules.values()}

    def expected_labels(self) -> Dict[Link, List[Tuple[int, int]]]:
        """``link -> canonical interval list`` of packets flowing on it."""
        from repro.core.intervals import normalize

        raw: Dict[Link, List[Tuple[int, int]]] = {}
        for lo, hi in self.segments():
            for source in self.sources():
                owner = self.owner_at(source, lo)
                if owner is not None:
                    raw.setdefault(owner.link, []).append((lo, hi))
        return {link: normalize(spans) for link, spans in raw.items()}

    def next_hop(self, source: object, point: int) -> Optional[object]:
        owner = self.owner_at(source, point)
        return owner.target if owner else None

    def has_loop(self, point: int) -> bool:
        """Does any switch start a forwarding loop for ``point``?"""
        for start in self.sources():
            seen: Set[object] = set()
            node: Optional[object] = start
            while node is not None and node != DROP:
                if node in seen:
                    return True
                seen.add(node)
                node = self.next_hop(node, point)
        return False

    def loop_points(self) -> List[int]:
        """One representative point of every looping segment."""
        return [lo for lo, _hi in self.segments() if self.has_loop(lo)]


def random_rules(rng: random.Random, count: int, width: int = 8,
                 switches: int = 4, drop_fraction: float = 0.1,
                 rid_start: int = 0) -> List[Rule]:
    """Random overlapping prefix rules over a small switch set.

    Priorities are globally unique so the paper's distinct-priority
    assumption holds for any overlap pattern.
    """
    space = 1 << width
    priorities = rng.sample(range(count * 10), count)
    rules: List[Rule] = []
    for index in range(count):
        plen = rng.randint(0, width)
        span = 1 << (width - plen)
        lo = rng.randrange(space) & ~(span - 1)
        source = f"s{rng.randrange(switches)}"
        if rng.random() < drop_fraction:
            rule = Rule.drop(rid_start + index, lo, lo + span,
                             priorities[index], source)
        else:
            target = f"s{rng.randrange(switches)}"
            while target == source:
                target = f"s{rng.randrange(switches)}"
            rule = Rule.forward(rid_start + index, lo, lo + span,
                                priorities[index], source, target)
        rules.append(rule)
    return rules


def label_scan_next_hop(net, node: object, atom: int) -> Optional[object]:
    """The next hop of ``atom`` at ``node`` read off the label table
    alone: the reference ``DeltaNet.next_hop`` (which reads the owner
    structure instead) is checked against."""
    targets = [link.target for link, atoms in net.label.items()
               if link.source == node and atom in atoms]
    assert len(targets) <= 1, f"atom {atom} leaves {node} on {targets}"
    return targets[0] if targets else None


def label_mask_impact(net, link: Link):
    """The what-if answer read off the label table alone:
    ``(affected_atoms, affected_subgraph, loops)``.

    The failed label's bitmask is ANDed with one bitmask per labelled
    link, and the loops come from the label-only sweep restricted to that
    subgraph, in the (atom, cycle) order the owner-directed
    ``link_failure_impact`` (which reads ``owner[atom]`` instead) is
    checked against."""
    from repro.checkers.sweep import sweep_find_forwarding_loops
    from repro.core.atomset import bitmask_to_atoms, label_bitmask

    affected = net.label.get(link)
    if not affected:
        return set(), {}, []
    affected_mask = label_bitmask(affected)
    subgraph = {}
    for other, atoms in net.label.items():
        shared = label_bitmask(atoms) & affected_mask if atoms else 0
        if shared:
            subgraph[other] = bitmask_to_atoms(shared)
    loops = sweep_find_forwarding_loops(net, atoms=affected, links=subgraph)
    return set(affected), subgraph, loops


def deltanet_label_intervals(net) -> Dict[Link, List[Tuple[int, int]]]:
    """Delta-net's labels, lowered to canonical interval lists."""
    from repro.core.atomset import atoms_to_interval_set

    return {link: atoms_to_interval_set(atoms, net.atoms)
            for link, atoms in net.label.items() if atoms}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
