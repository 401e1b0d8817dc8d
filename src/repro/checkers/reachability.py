"""Reachability queries over the edge-labelled graph (design goal 1, §2.2).

"Find *all* packets that can reach node B from node A" — answered in one
graph propagation rather than one SAT call per witness.  Atom sets are
propagated as int bitmasks; a node's reached-mask only ever grows, so the
worklist algorithm terminates in O(E * K / wordsize) bit operations even
in cyclic graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.atomset import atoms_to_bitmask, bitmask_to_atoms, label_bitmask
from repro.core.deltanet import DeltaNet
from repro.core.rules import DROP, Link


def _masks_and_adjacency(deltanet: DeltaNet) -> Tuple[Dict[Link, int], Dict[object, List[Link]]]:
    """Per-link bitmasks + per-source adjacency, off the live index.

    The adjacency grouping is the forwarding index's ``by_source`` view
    — already maintained, never rebuilt here — and each label converts
    to a mask in O(runs) rather than one shift per atom.
    """
    masks: Dict[Link, int] = {}
    adjacency: Dict[object, List[Link]] = {}
    for source, out_links in deltanet.findex.by_source.items():
        links = [link for link, runs in out_links.items() if runs]
        if links:
            adjacency[source] = links
            for link in links:
                masks[link] = label_bitmask(out_links[link])
    return masks, adjacency


def reachable_atoms(deltanet: DeltaNet, src: object, dst: object) -> Set[int]:
    """Atoms (packet classes) that can flow from ``src`` to ``dst``.

    A packet injected at ``src`` follows, at each hop, the unique link
    whose label contains its atom; this propagates the full atom universe
    from ``src`` and reports what arrives at ``dst``.

    Goal-directed: label masks are materialized lazily, only for the
    links the propagation frontier actually crosses, so a query touching
    a small corner of a large network pays for that corner — not one
    ``label_bitmask`` per link in the network.
    """
    by_source = deltanet.findex.by_source
    full = (1 << deltanet.atoms.num_ids_allocated) - 1
    masks: Dict[Link, int] = {}
    reached: Dict[object, int] = {src: full}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        mask = reached[node]
        out_links = by_source.get(node)
        if not out_links:
            continue
        for link, runs in out_links.items():
            if link.target == DROP or not runs:
                continue
            link_mask = masks.get(link)
            if link_mask is None:
                link_mask = masks[link] = label_bitmask(runs)
            passed = mask & link_mask
            if not passed:
                continue
            previous = reached.get(link.target, 0)
            fresh = passed & ~previous
            if fresh:
                reached[link.target] = previous | fresh
                queue.append(link.target)
    arrived = reached.get(dst, 0)
    if dst == src:
        # Only the seed mask can carry identifiers no label vouches for;
        # labels hold live atoms exclusively (GC erases retired ids), so
        # anything that crossed a link is already live.
        live = atoms_to_bitmask(a for a, _ in deltanet.atoms.intervals())
        arrived &= live
    return bitmask_to_atoms(arrived)


def reachable_nodes(deltanet: DeltaNet, src: object, atom: int) -> List[object]:
    """Every node an ``atom``-packet injected at ``src`` traverses."""
    out: List[object] = []
    seen: Set[object] = set()
    next_hop = deltanet.next_hop
    node: Optional[object] = src
    while node is not None and node != DROP and node not in seen:
        seen.add(node)
        out.append(node)
        node = next_hop(node, atom)
    return out


def find_path(deltanet: DeltaNet, src: object, dst: object,
              atom: int) -> Optional[List[object]]:
    """The (unique) forwarding path of ``atom`` from ``src`` to ``dst``."""
    trail = reachable_nodes(deltanet, src, atom)
    if dst in trail:
        return trail[:trail.index(dst) + 1]
    return None
