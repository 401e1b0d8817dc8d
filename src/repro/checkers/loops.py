"""Forwarding-loop detection (paper §4.1, §4.3.1).

For a fixed atom the forwarding behaviour is a *functional* graph: each
switch has at most one out-edge carrying the atom (the link of the
highest-priority owning rule).  A loop is therefore found by pointer
chasing with a visited set — the paper's "iterative depth-first graph
traversal".

Every hop is :meth:`DeltaNet.next_hop <repro.core.deltanet.DeltaNet.
next_hop>`: ``owner[atom][node]``'s highest-priority rule names the next
node directly, so a check costs O(affected · path · log M) whatever the
node's out-degree — no out-link is searched and nothing is rebuilt or
cached per check.  (The label-derived chase survives as
:mod:`repro.checkers.sweep`, the oracle that keeps this one honest
without trusting the owner structure.)

Two entry points:

* :meth:`LoopChecker.check_update` — incremental: after a rule update,
  only atoms whose ownership changed can participate in a *new* loop, and
  any new loop must traverse one of the newly added ``(link, atom)``
  labels; we chase from exactly those.
* :func:`find_forwarding_loops` — sweep over every live atom, or over a
  given atom set (a what-if query's affected atoms), chasing each atom
  from the sources owning it; the loops come back sorted by atom, then
  cycle, so a sweep's order is fixed by the state alone.

:func:`cycle_alive` answers the converse question for a loop already
found — does any atom still flow around it — by intersecting the label
runs of its links.
"""

from __future__ import annotations

from typing import (
    Callable, Iterable, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

from repro.core.delta_graph import DeltaGraph
from repro.core.deltanet import DeltaNet
from repro.core.findex import ForwardingIndex
from repro.core.rules import DROP, canonical_rotation, cycle_links
from repro.structures.atomruns import AtomRuns


class Loop(NamedTuple):
    """A forwarding loop: ``atom`` cycles through ``cycle`` (node list)."""

    atom: int
    cycle: Tuple[object, ...]

    def canonical(self) -> "Loop":
        """Rotate the cycle to its canonical start, for dedup (see
        :func:`repro.core.rules.canonical_rotation` for the pivot
        rule)."""
        return Loop(self.atom, canonical_rotation(self.cycle))


def _chase(next_hop: Callable[[object, int], Optional[object]],
           start: object, atom: int, done: Set[object]) -> Optional[Loop]:
    """Follow the functional graph of ``atom`` from ``start``.

    ``done`` holds the nodes earlier chases of this atom classified (and
    gains this chase's): a path that joins one leads only to a loop
    already found, so it stops there and reports nothing.
    """
    path: List[object] = []
    node: Optional[object] = start
    while node is not None and node != DROP and node not in done:
        done.add(node)
        path.append(node)
        node = next_hop(node, atom)
    if node in path:
        return Loop(atom, canonical_rotation(path[path.index(node):]))
    return None


def distinct_cycles(loops: Iterable[Loop]) -> List[Tuple[object, ...]]:
    """The cycles of ``loops`` in first-seen order, one cycle found for
    several atoms folded.  Loop cycles are canonical rotations already,
    so equality is enough."""
    return list(dict.fromkeys(loop.cycle for loop in loops))


def cycle_alive(findex: ForwardingIndex, cycle: Sequence[object]) -> bool:
    """Does any atom still flow along every link of ``cycle``?

    Liveness of an already-reported loop, decided in atom space: the
    live label runs of the cycle's links are intersected one link at a
    time — a few O(runs) merges — stopping at the first unlabelled link
    or empty intersection.  No interval is materialized.
    """
    by_link = findex.by_link
    flow: Optional[AtomRuns] = None
    for link in cycle_links(cycle):
        # by_link is keyed by Link, a NamedTuple: the plain pair hashes
        # and compares equal, so no Link is built per lookup.
        runs = by_link.get(link)
        if runs is None:
            return False
        flow = runs if flow is None else flow.intersection(runs)
        if not flow:
            return False
    return True


class LoopChecker:
    """Incremental loop checking bound to one :class:`DeltaNet` instance."""

    def __init__(self, deltanet: DeltaNet) -> None:
        self.deltanet = deltanet

    def check_update(self, delta_graph: DeltaGraph) -> List[Loop]:
        """Loops introduced by the update described by ``delta_graph``.

        A new loop must contain at least one newly-added ``(link, atom)``
        pair, so chasing from each added link's source suffices: the cost
        is proportional to the delta — never to the edge set.
        """
        next_hop = self.deltanet.next_hop
        loops: List[Loop] = []
        seen: Set[Loop] = set()
        for link, atoms in delta_graph.added.items():
            for atom in atoms:
                loop = _chase(next_hop, link.source, atom, set())
                if loop is not None and loop not in seen:
                    seen.add(loop)
                    loops.append(loop)
        return loops


def find_forwarding_loops(deltanet: DeltaNet,
                          atoms: Optional[Iterable[int]] = None) -> List[Loop]:
    """Exhaustive loop sweep.

    By default every live atom is covered; ``atoms`` restricts the
    search (e.g. to a what-if query's affected atoms).  Each atom's
    chases start from the sources that own it
    (:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.
    atom_links>`), so the cost is the atoms' owners and paths, never the
    label table; the loops come back ordered by atom, then cycle — an
    order the state alone fixes, however it was reached.
    """
    if atoms is None:
        atoms = [atom for atom, _interval in deltanet.atoms.intervals()]
    next_hop = deltanet.next_hop
    atom_links = deltanet.atom_links
    loops: List[Loop] = []
    seen: Set[Loop] = set()
    for atom in atoms:
        # Every node is chased through at most once per atom.
        done: Set[object] = set()
        for link in atom_links(atom):
            loop = _chase(next_hop, link.source, atom, done)
            if loop is not None and loop not in seen:
                seen.add(loop)
                loops.append(loop)
    loops.sort(key=lambda loop: (loop.atom, repr(loop.cycle)))
    return loops
