"""Sweep-based reference checkers: the pre-index implementations.

Before the :class:`~repro.core.findex.ForwardingIndex` existed, every
check rebuilt its own view of the edge-labelled graph from the label
table — a ``source -> out-links`` map per loop check, a mask/adjacency
pair per reachability query — and chased next hops by scanning a node's
links with per-atom membership tests.  That is O(E) *per check* before
any chasing happens, which is exactly what made checking slower than
updating.

These implementations are kept, verbatim in shape, for two jobs:

* **oracle** — the property-based equivalence suites
  (``tests/checkers/test_index_equivalence.py``,
  ``tests/checkers/test_owner_chase.py``) assert the owner-reading
  checkers return identical results on randomized rule traces,
* **baseline** — the ``check_latency`` benchmark in
  ``benchmarks/perf_gate.py`` measures the index's speedup against them
  (the ``sweep`` variant; see ``BENCH_check_latency.json``).

They intentionally take only the public label table (any mapping of
``link -> atom container``), never the index.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.checkers.loops import Loop
from repro.core.atomset import atoms_to_bitmask, bitmask_to_atoms
from repro.core.delta_graph import DeltaGraph
from repro.core.deltanet import DeltaNet
from repro.core.rules import DROP, Link


def sweep_out_link_index(deltanet: DeltaNet) -> Dict[object, List[Link]]:
    """The per-check ``source -> out-links`` rebuild (O(E) every call)."""
    index: Dict[object, List[Link]] = {}
    for link in deltanet.label:
        index.setdefault(link.source, []).append(link)
    return index


def _sweep_next_hop(deltanet: DeltaNet, out_index: Dict[object, List[Link]],
                    node: object, atom: int) -> Optional[object]:
    for link in out_index.get(node, ()):
        bucket = deltanet.label.get(link)
        if bucket and atom in bucket:
            return link.target
    return None


def _sweep_chase(deltanet: DeltaNet, out_index: Dict[object, List[Link]],
                 start: object, atom: int) -> Optional[Loop]:
    path: List[object] = []
    seen_at: Dict[object, int] = {}
    node: Optional[object] = start
    while node is not None and node != DROP:
        if node in seen_at:
            return Loop(atom, tuple(path[seen_at[node]:])).canonical()
        seen_at[node] = len(path)
        path.append(node)
        node = _sweep_next_hop(deltanet, out_index, node, atom)
    return None


def sweep_check_update(deltanet: DeltaNet,
                       delta_graph: DeltaGraph) -> List[Loop]:
    """The seed's ``LoopChecker.check_update``: rebuild, then chase."""
    if not delta_graph.added:
        return []
    out_index = sweep_out_link_index(deltanet)
    loops: List[Loop] = []
    seen: Set[Loop] = set()
    for link, atoms in delta_graph.added.items():
        for atom in atoms:
            loop = _sweep_chase(deltanet, out_index, link.source, atom)
            if loop is not None and loop not in seen:
                seen.add(loop)
                loops.append(loop)
    return loops


def sweep_find_forwarding_loops(deltanet: DeltaNet,
                                atoms: Optional[Iterable[int]] = None,
                                links: Optional[Iterable[Link]] = None
                                ) -> List[Loop]:
    """The seed's exhaustive loop sweep, its loops sorted by atom, then
    cycle (the order :func:`~repro.checkers.loops.find_forwarding_loops`
    delivers)."""
    out_index = sweep_out_link_index(deltanet)
    atom_filter = set(atoms) if atoms is not None else None
    link_iter = list(links) if links is not None else list(deltanet.label)
    loops: List[Loop] = []
    seen: Set[Loop] = set()
    starts: Dict[int, Set[object]] = {}
    for link in link_iter:
        bucket = deltanet.label.get(link)
        if not bucket:
            continue
        for atom in bucket:
            if atom_filter is not None and atom not in atom_filter:
                continue
            starts.setdefault(atom, set()).add(link.source)
    for atom, sources in starts.items():
        done: Set[object] = set()
        for source in sources:
            if source in done:
                continue
            loop = _sweep_chase(deltanet, out_index, source, atom)
            node: Optional[object] = source
            steps = 0
            limit = len(sources) + len(out_index) + 2
            while (node is not None and node != DROP and node not in done
                   and steps < limit):
                done.add(node)
                node = _sweep_next_hop(deltanet, out_index, node, atom)
                steps += 1
            if loop is not None and loop not in seen:
                seen.add(loop)
                loops.append(loop)
    loops.sort(key=lambda loop: (loop.atom, repr(loop.cycle)))
    return loops


def sweep_find_blackholes(deltanet: DeltaNet,
                          expected_sinks: Iterable[object] = ()
                          ) -> Dict[object, Set[int]]:
    """The seed's black-hole detector: per-atom set accumulation."""
    sinks = set(expected_sinks)
    incoming: Dict[object, Set[int]] = {}
    outgoing: Dict[object, Set[int]] = {}
    for link, atoms in deltanet.label.items():
        if not atoms:
            continue
        if link.target != DROP:
            incoming.setdefault(link.target, set()).update(atoms)
        outgoing.setdefault(link.source, set()).update(atoms)
    holes: Dict[object, Set[int]] = {}
    for node, arrived in incoming.items():
        if node in sinks:
            continue
        lost = arrived - outgoing.get(node, set())
        if lost:
            holes[node] = lost
    return holes


def _sweep_masks_and_adjacency(deltanet: DeltaNet
                               ) -> Tuple[Dict[Link, int],
                                          Dict[object, List[Link]]]:
    masks: Dict[Link, int] = {}
    adjacency: Dict[object, List[Link]] = {}
    for link, atoms in deltanet.label.items():
        if not atoms:
            continue
        masks[link] = atoms_to_bitmask(atoms)
        adjacency.setdefault(link.source, []).append(link)
    return masks, adjacency


def sweep_reachable_atoms(deltanet: DeltaNet, src: object,
                          dst: object) -> Set[int]:
    """The seed's reachability propagation (per-atom mask packing)."""
    masks, adjacency = _sweep_masks_and_adjacency(deltanet)
    full = (1 << deltanet.atoms.num_ids_allocated) - 1
    reached: Dict[object, int] = {src: full}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        mask = reached[node]
        for link in adjacency.get(node, ()):
            if link.target == DROP:
                continue
            passed = mask & masks[link]
            if not passed:
                continue
            previous = reached.get(link.target, 0)
            fresh = passed & ~previous
            if fresh:
                reached[link.target] = previous | fresh
                queue.append(link.target)
    arrived = reached.get(dst, 0)
    live = atoms_to_bitmask(a for a, _ in deltanet.atoms.intervals())
    return bitmask_to_atoms(arrived & live)


def sweep_check_waypoint(deltanet: DeltaNet, src: object, dst: object,
                         waypoint: object) -> Set[int]:
    """The seed's waypoint check: reachability with the waypoint cut."""
    if waypoint in (src, dst):
        raise ValueError("waypoint must differ from the endpoints")
    masks, adjacency = _sweep_masks_and_adjacency(deltanet)
    full = (1 << deltanet.atoms.num_ids_allocated) - 1
    reached: Dict[object, int] = {src: full}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        mask = reached[node]
        for link in adjacency.get(node, ()):
            if link.target in (DROP, waypoint):
                continue
            passed = mask & masks[link]
            fresh = passed & ~reached.get(link.target, 0)
            if fresh:
                reached[link.target] = reached.get(link.target, 0) | fresh
                queue.append(link.target)
    live = atoms_to_bitmask(a for a, _ in deltanet.atoms.intervals())
    return bitmask_to_atoms(reached.get(dst, 0) & live)


def sweep_check_isolation(deltanet: DeltaNet,
                          slice_a: Iterable[Tuple[int, int]],
                          slice_b: Iterable[Tuple[int, int]]
                          ) -> Dict[Link, Set[int]]:
    """The seed's isolation check: per-atom mask packing per link."""
    def slice_mask(prefixes: Iterable[Tuple[int, int]]) -> int:
        mask = 0
        for lo, hi in prefixes:
            for atom in deltanet.atoms_overlapping(lo, hi):
                mask |= 1 << atom
        return mask

    mask_a = slice_mask(slice_a)
    mask_b = slice_mask(slice_b)
    offenders: Dict[Link, Set[int]] = {}
    for link, atoms in deltanet.label.items():
        if not atoms:
            continue
        link_mask = atoms_to_bitmask(atoms)
        shared = link_mask & mask_a, link_mask & mask_b
        if shared[0] and shared[1]:
            offenders[link] = bitmask_to_atoms(shared[0] | shared[1])
    return offenders
