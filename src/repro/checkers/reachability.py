"""Reachability queries over the edge-labelled graph (design goal 1, §2.2).

"Find *all* packets that can reach node B from node A" — answered one
atom at a time (§3.3): for a fixed atom each node forwards along at most
one link, so the atom's path from A is a walk of
:meth:`DeltaNet.next_hop <repro.core.deltanet.DeltaNet.next_hop>` reads
of ``owner[atom]``.  :func:`reachable_atoms` runs that one walk per live
atom, stopping at B, a drop, a node owning no rule for the atom, or the
first repeated node — O(live atoms · path · log M), with no label read
and no per-query mask.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

from repro.core.deltanet import DeltaNet
from repro.core.rules import DROP


def _walk(deltanet: DeltaNet, src: object, atom: int) -> Iterator[object]:
    """Yield the nodes an ``atom``-packet injected at ``src`` traverses,
    lazily, so a caller stops the walk where its question is answered."""
    seen: Set[object] = set()
    next_hop = deltanet.next_hop
    node: Optional[object] = src
    while node is not None and node != DROP and node not in seen:
        seen.add(node)
        yield node
        node = next_hop(node, atom)


def reachable_atoms(deltanet: DeltaNet, src: object, dst: object) -> Set[int]:
    """Atoms (packet classes) that can flow from ``src`` to ``dst``.

    A packet injected at ``src`` follows, at each hop, the link of the
    highest-priority rule owning its atom; an atom is reported when its
    walk from ``src`` meets ``dst`` (every live atom when they are the
    same node).
    """
    return {atom for atom, _interval in deltanet.atoms.intervals()
            if dst in _walk(deltanet, src, atom)}


def reachable_nodes(deltanet: DeltaNet, src: object, atom: int) -> List[object]:
    """Every node an ``atom``-packet injected at ``src`` traverses."""
    return list(_walk(deltanet, src, atom))


def find_path(deltanet: DeltaNet, src: object, dst: object,
              atom: int) -> Optional[List[object]]:
    """The (unique) forwarding path of ``atom`` from ``src`` to ``dst``."""
    trail = reachable_nodes(deltanet, src, atom)
    if dst in trail:
        return trail[:trail.index(dst) + 1]
    return None
