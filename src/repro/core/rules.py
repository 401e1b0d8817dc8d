"""Forwarding rules, links, and actions.

A rule (paper §3.2) carries:

* ``interval`` — the half-closed interval of its IP-prefix match,
* ``priority`` — rules in the same table with overlapping prefixes have
  pair-wise distinct priorities; longest-prefix matching is simulated by
  using the prefix length as the priority (as SDN-IP does, §4.2.2),
* ``link`` — a directed edge of the edge-labelled graph; ``source(r)`` is
  the node the link leaves from.  A *drop* rule's link points at the
  distinguished :data:`DROP` sink so dropped traffic is still represented
  in the graph (and trivially excluded from loop/reachability traversals).
"""

from __future__ import annotations

import enum
from typing import (
    Container, Iterable, Iterator, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.core.prefix import format_prefix, interval_plen, is_prefix_interval

#: Distinguished graph sink for dropped packets.
DROP = "__drop__"


def canonical_rotation(nodes: Iterable[object]) -> Tuple[object, ...]:
    """Rotate a cycle of graph nodes to a canonical start, for dedup.

    The pivot orders by ``(repr, id)``: ``repr`` alone is ambiguous when
    two distinct nodes share a repr, and an ambiguous pivot would
    canonicalize two rotations of the same cycle differently.  The
    ``id`` tiebreak makes the pivot unique per node object, so equality
    of canonical cycles is exact within a process.  Shared by
    ``Loop.canonical`` (checker layer) and ``canonical_cycle`` (session
    layer) so the two dedup schemes cannot drift.
    """
    ordered = list(nodes)
    pivot = min(range(len(ordered)),
                key=lambda i: (repr(ordered[i]), id(ordered[i])))
    return tuple(ordered[pivot:] + ordered[:pivot])


def cycle_links(cycle: Sequence[object]) -> Iterator[Tuple[object, object]]:
    """The directed ``(node, successor)`` links of a node cycle,
    including the one that closes it."""
    return zip(cycle, cycle[1:] + cycle[:1])


def validate_batch_ops(inserts: Iterable["Rule"], removals: Iterable[int],
                       known_rids: Container[int], width: int) -> Set[int]:
    """Up-front validation shared by every batched update entry point.

    Checks, before any state changes: each removal id is known (in
    ``known_rids``) and not removed twice; each insert id is unique
    within the batch and not already installed (unless the same batch
    removes it first — removals run first in batch order); each insert
    interval fits the ``width``-bit header space.  Returns the removal
    id set.  Used by ``DeltaNet.apply_batch``, ``ShardRouter.
    route_batch`` and ``BackendAdapter.apply_batch`` so a rejected batch
    fails identically everywhere and leaves no trace.
    """
    removal_set: Set[int] = set()
    for rid in removals:
        if rid in removal_set:
            raise KeyError(f"duplicate removal of rule id {rid}")
        if rid not in known_rids:
            raise KeyError(f"unknown rule id {rid}")
        removal_set.add(rid)
    space = 1 << width
    insert_rids: Set[int] = set()
    for rule in inserts:
        if rule.rid in insert_rids or (
                rule.rid in known_rids and rule.rid not in removal_set):
            raise ValueError(f"duplicate rule id {rule.rid}")
        insert_rids.add(rule.rid)
        if not 0 <= rule.lo < rule.hi <= space:
            raise ValueError(
                f"rule {rule.rid} interval [{rule.lo}:{rule.hi}) outside "
                f"the {width}-bit header space")
    return removal_set


class Action(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"


class Link(NamedTuple):
    """A directed edge ``source -> target`` in the edge-labelled graph."""

    source: object
    target: object

    def __repr__(self) -> str:
        return f"{self.source}->{self.target}"


class Rule:
    """An IP-prefix forwarding rule.

    ``rid`` is a unique integer identifier used for removal and for
    tie-breaking rules with equal priority in the owner BSTs.
    """

    __slots__ = ("rid", "lo", "hi", "priority", "link", "action")

    def __init__(self, rid: int, lo: int, hi: int, priority: int,
                 link: Link, action: Action = Action.FORWARD) -> None:
        if lo >= hi:
            raise ValueError(f"rule {rid}: empty interval [{lo}:{hi})")
        if priority < 0:
            raise ValueError(f"rule {rid}: negative priority {priority}")
        self.rid = rid
        self.lo = lo
        self.hi = hi
        self.priority = priority
        self.link = link if isinstance(link, Link) else Link(*link)
        self.action = action

    @classmethod
    def forward(cls, rid: int, lo: int, hi: int, priority: int,
                source: object, target: object) -> "Rule":
        return cls(rid, lo, hi, priority, Link(source, target), Action.FORWARD)

    @classmethod
    def drop(cls, rid: int, lo: int, hi: int, priority: int, source: object) -> "Rule":
        return cls(rid, lo, hi, priority, Link(source, DROP), Action.DROP)

    @property
    def source(self) -> object:
        """The switch (graph node) this rule is installed on."""
        return self.link.source

    @property
    def target(self) -> object:
        return self.link.target

    @property
    def interval(self) -> Tuple[int, int]:
        return self.lo, self.hi

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Total order inside an owner BST: priority, then rule id."""
        return self.priority, self.rid

    def matches(self, point: int) -> bool:
        return self.lo <= point < self.hi

    def overlaps(self, other: "Rule") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def prefix_text(self, width: int = 32) -> Optional[str]:
        """CIDR form of the match, or None if not a single prefix."""
        if not is_prefix_interval(self.lo, self.hi):
            return None
        return format_prefix(self.lo, interval_plen(self.lo, self.hi, width), width)

    def to_state(self) -> Tuple:
        """Plain-data form for snapshots/journals (see ``repro.persist``)."""
        return (self.rid, self.lo, self.hi, self.priority,
                self.source, self.target, self.action.value)

    @classmethod
    def from_state(cls, state: Tuple) -> "Rule":
        rid, lo, hi, priority, source, target, action = state
        if action == Action.DROP.value:
            return cls.drop(rid, lo, hi, priority, source)
        return cls.forward(rid, lo, hi, priority, source, target)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rule) and self.rid == other.rid

    def __hash__(self) -> int:
        return hash(self.rid)

    def __repr__(self) -> str:
        kind = "drop" if self.action is Action.DROP else "fwd"
        return (f"Rule(#{self.rid} [{self.lo}:{self.hi}) prio={self.priority} "
                f"{kind} {self.link})")
