"""The four registry backends wrapping this repo's native verifiers.

Each adapter translates between the uniform :class:`~repro.api.registry.
BackendAdapter` surface (rules in, canonical interval spans out) and one
native verifier:

==============  ==========================================  ==============
registry name   native class                                update cost
==============  ==========================================  ==============
``deltanet``    :class:`repro.core.deltanet.DeltaNet`       incremental
``veriflow``    :class:`repro.veriflow.verifier.VeriflowRI` per-update ECs
``apv``         :class:`repro.apv.verifier.APVerifier`      full recompute
``netplumber``  :class:`repro.netplumber.plumbing.NetPlumber`  pipe maintenance
==============  ==========================================  ==============

The native instance stays reachable as ``backend.native`` — an explicit
escape hatch for paper-specific analyses (Algorithm 3 closures, atom
introspection) that the uniform protocol deliberately does not cover.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.api.registry import (
    BackendAdapter, BackendBatch, BackendUpdate, Cycle, Spans,
    canonical_cycle, register_backend,
)
from repro.checkers.blackholes import find_blackholes
from repro.checkers.loops import (
    LoopChecker, cycle_alive, distinct_cycles, find_forwarding_loops,
)
from repro.core.atomset import atoms_to_interval_set
from repro.core.intervals import normalize
from repro.core.rules import DROP, Link, Rule, cycle_links


def _as_link(link: Union[Link, Tuple[object, object]]) -> Link:
    return link if isinstance(link, Link) else Link(*link)


def _label_loops(label: Dict[Link, Set[int]]) -> List[Cycle]:
    """Loop sweep over any ``link -> class-id set`` edge labelling.

    For a fixed class id the labelling is a functional graph (one
    out-edge per node), so pointer chasing with a visited set finds every
    cycle.  Used by backends whose native state is an edge-labelled graph
    but is not a :class:`DeltaNet` (the atomic-predicates verifier).
    """
    out: Dict[object, List[Link]] = {}
    classes: Set[int] = set()
    for link, ids in label.items():
        if not ids:
            continue
        out.setdefault(link.source, []).append(link)
        classes.update(ids)
    loops: Dict[Cycle, None] = {}
    for cid in classes:
        for start in out:
            seen_at: Dict[object, int] = {}
            path: List[object] = []
            node: Optional[object] = start
            while node is not None and node != DROP:
                if node in seen_at:
                    loops.setdefault(canonical_cycle(path[seen_at[node]:]))
                    break
                seen_at[node] = len(path)
                path.append(node)
                node = next(
                    (link.target for link in out.get(node, ())
                     if cid in label.get(link, ())), None)
    return list(loops)


@register_backend("deltanet")
class DeltaNetBackend(BackendAdapter):
    """Delta-net: incremental atoms + edge-labelled graph (the paper's verifier)."""

    def __init__(self, width: int = 32, gc: bool = False) -> None:
        super().__init__(width=width)
        from repro.core.deltanet import DeltaNet

        self._adopt(DeltaNet(width=width, gc=gc))

    def _adopt(self, native) -> None:
        """Bind the adapter (and its one loop checker) to ``native``."""
        self.native = native
        self._checker = LoopChecker(native)
        #: ``cycle -> an atom found going round it``: a hint that lets
        #: :meth:`cycle_alive` answer with one chase.  Never trusted —
        #: a stale or recycled atom only sends it to the intersection.
        self._witness: Dict[Cycle, int] = {}

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        delta = self.native.insert_rule(rule)
        return BackendUpdate(rule.rid, True, rule, delta=delta)

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        delta = self.native.remove_rule(rule.rid)
        return BackendUpdate(rule.rid, False, rule, delta=delta)

    def _do_apply_batch(self, inserts, removals, removal_rules) -> BackendBatch:
        delta = self.native.apply_batch(inserts, removals)
        updates = [BackendUpdate(rule.rid, False, rule)
                   for rule in removal_rules]
        updates += [BackendUpdate(rule.rid, True, rule) for rule in inserts]
        return BackendBatch(updates=updates, delta=delta)

    def links(self) -> List[Link]:
        return list(self.native.links())

    def flows_on(self, link) -> Spans:
        return self.native.flows_on(_as_link(link))

    def reachable(self, src: object, dst: object) -> Spans:
        from repro.checkers.reachability import reachable_atoms

        atoms = reachable_atoms(self.native, src, dst)
        return atoms_to_interval_set(atoms, self.native.atoms)

    def find_loops(self) -> List[Cycle]:
        return distinct_cycles(find_forwarding_loops(self.native))

    def find_blackholes(self) -> Dict[object, Spans]:
        """:func:`~repro.checkers.blackholes.find_blackholes` lowered to
        canonical spans per node, the nodes in ``repr`` order — an order
        the state alone fixes."""
        found = find_blackholes(self.native)
        return {node: atoms_to_interval_set(found[node], self.native.atoms)
                for node in sorted(found, key=repr)}

    def run_query(self, query):
        from repro.query.planner import evaluate_deltanet

        return evaluate_deltanet(self.native, query, backend=self.name)

    def speculate(self) -> "DeltaNetBackend":
        """Copy-on-write what-if child: O(boundaries + links) fork."""
        from repro.core.speculative import SpeculativeDeltaNet

        child = DeltaNetBackend.__new__(DeltaNetBackend)
        BackendAdapter.__init__(child, width=self.width)
        child._adopt(SpeculativeDeltaNet.from_parent(self.native))
        child._rules = dict(self._rules)
        return child

    def loops_for_commit(self, updates, delta) -> List[Cycle]:
        if delta is None:
            return super().loops_for_commit(updates, delta)
        if delta.is_empty():
            # No label changed — no new loop can exist; skip even the
            # (cheap) incremental chase.
            return []
        # One entry per distinct cycle, in first-seen order.
        found = {loop.cycle: loop.atom
                 for loop in self._checker.check_update(delta)}
        self._witness.update(found)
        return list(found)

    def cycle_alive(self, cycle: Cycle) -> bool:
        """Atom-space liveness: the atom the loop was found for still
        going round it proves the cycle alive in ``len(cycle)`` hops;
        otherwise intersect the live label runs."""
        atom = self._witness.get(cycle)
        if atom is not None:
            next_hop = self.native.next_hop
            if all(next_hop(source, atom) == target
                   for source, target in cycle_links(cycle)):
                return True
        alive = cycle_alive(self.native.findex, cycle)
        if not alive:
            self._witness.pop(cycle, None)
        return alive

    def check_invariants(self) -> None:
        self.native.check_invariants()

    def state_digest(self):
        return self.native.state_digest()

    def snapshot_state(self):
        return {"kind": "deltanet", "options": {"gc": self.native.gc},
                "native": self.native.state_dict()}

    def restore_state(self, state) -> None:
        if state.get("kind") != "deltanet":
            super().restore_state(state)
            return
        if self._rules:
            raise ValueError("restore_state requires a fresh backend")
        from repro.core.deltanet import DeltaNet

        self._adopt(DeltaNet.from_state(state["native"]))
        self._rules = dict(self.native.rules)

    def stats(self):
        out = super().stats()
        out.update(atoms=self.native.num_atoms,
                   links=sum(1 for _ in self.native.links()))
        return out


@register_backend("veriflow")
class VeriflowBackend(BackendAdapter):
    """Veriflow-RI: per-update equivalence classes and forwarding graphs."""

    def __init__(self, width: int = 32, check_loops: bool = True) -> None:
        super().__init__(width=width)
        from repro.veriflow.verifier import VeriflowRI

        self.native = VeriflowRI(width=width)
        self._check_loops = check_loops

    def _snapshot_options(self):
        return {"check_loops": self._check_loops}

    def _wrap(self, result, rule: Rule, inserted: bool) -> BackendUpdate:
        loops = None
        if self._check_loops:
            seen: Dict[Cycle, None] = {}
            for _interval, cycle in result.loops:
                seen.setdefault(canonical_cycle(cycle))
            loops = list(seen)
        return BackendUpdate(rule.rid, inserted, rule, loops=loops)

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        result = self.native.insert_rule(rule, check_loops=self._check_loops)
        return self._wrap(result, rule, True)

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        result = self.native.remove_rule(rule.rid, check_loops=self._check_loops)
        return self._wrap(result, rule, False)

    # -- EC machinery shared by the queries -----------------------------------

    def _boundaries(self) -> List[int]:
        bounds = {0, 1 << self.width}
        for rule in self._rules.values():
            bounds.add(rule.lo)
            bounds.add(rule.hi)
        return sorted(bounds)

    def _chase(self, edges: Dict[object, object], src: object,
               dst: object) -> bool:
        """Does the EC's (functional) forwarding graph carry src -> dst?"""
        if src == dst:
            return True
        seen: Set[object] = {src}
        node: Optional[object] = edges.get(src)
        while node is not None and node != DROP:
            if node == dst:
                return True
            if node in seen:
                return False
            seen.add(node)
            node = edges.get(node)
        return False

    def links(self) -> List[Link]:
        return list(self.native.rules_by_link)

    def flows_on(self, link) -> Spans:
        """Recompute, per rule on the link, the ECs that actually use it."""
        from repro.veriflow.ecs import equivalence_classes

        link = _as_link(link)
        spans: List[Tuple[int, int]] = []
        seen_ecs: Set[Tuple[int, int]] = set()
        for rid in self.native.rules_by_link.get(link, ()):
            rule = self.native.rules[rid]
            overlapping = self.native.trie.overlapping_interval(rule.lo, rule.hi)
            for ec in equivalence_classes(overlapping, rule.lo, rule.hi):
                if ec in seen_ecs:
                    continue
                seen_ecs.add(ec)
                graph = self.native._forwarding_graph(ec)
                if graph.edges.get(link.source) == link.target:
                    spans.append(ec)
        return normalize(spans)

    def reachable(self, src: object, dst: object) -> Spans:
        """One forwarding graph per global EC, chased from ``src``."""
        spans: List[Tuple[int, int]] = []
        bounds = self._boundaries()
        for lo, hi in zip(bounds, bounds[1:]):
            graph = self.native._forwarding_graph((lo, hi))
            if self._chase(graph.edges, src, dst):
                spans.append((lo, hi))
        return normalize(spans)

    def what_if_link_down(self, link) -> Spans:
        """Veriflow's expensive native what-if path (Table 4's comparison)."""
        graphs = self.native.whatif_link_failure(_as_link(link))
        return normalize(graph.interval for graph in graphs)

    def find_loops(self) -> List[Cycle]:
        seen: Dict[Cycle, None] = {}
        bounds = self._boundaries()
        for lo, hi in zip(bounds, bounds[1:]):
            graph = self.native._forwarding_graph((lo, hi))
            # All cycles, not just the first: one EC graph can hold
            # several node-disjoint loops at once.
            for loop in graph.find_loops():
                seen.setdefault(canonical_cycle(loop))
        return list(seen)

    def stats(self):
        out = super().stats()
        out.update(switches=len(self.native.switches))
        return out


@register_backend("apv")
class APVBackend(BackendAdapter):
    """Atomic-predicates verifier: full partition recompute on every update."""

    def __init__(self, width: int = 32) -> None:
        super().__init__(width=width)
        from repro.apv.verifier import APVerifier

        self.native = APVerifier([], width=width)

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        self.native.insert_rule(rule)
        return BackendUpdate(rule.rid, True, rule)

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        self.native.remove_rule(rule.rid)
        return BackendUpdate(rule.rid, False, rule)

    def links(self) -> List[Link]:
        return [link for link, ids in self.native.label.items() if ids]

    def flows_on(self, link) -> Spans:
        indices = self.native.label.get(_as_link(link), set())
        return self.native.predicate_of(indices).spans

    def reachable(self, src: object, dst: object) -> Spans:
        return self.native.reachable(src, dst).spans

    def find_loops(self) -> List[Cycle]:
        return _label_loops(self.native.label)

    def stats(self):
        out = super().stats()
        out.update(atomic_predicates=self.native.num_atomic_predicates)
        return out


@register_backend("netplumber")
class NetPlumberBackend(BackendAdapter):
    """NetPlumber: rules-as-nodes plumbing graph with overlap pipes."""

    def __init__(self, width: int = 32) -> None:
        super().__init__(width=width)
        from repro.netplumber.plumbing import NetPlumber

        self.native = NetPlumber(width=width)

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        self.native.insert_rule(rule)
        return BackendUpdate(rule.rid, True, rule)

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        self.native.remove_rule(rule.rid)
        return BackendUpdate(rule.rid, False, rule)

    def links(self) -> List[Link]:
        seen: Dict[Link, None] = {}
        for rule in self.native.rules.values():
            if self.native.effective_match(rule.rid):
                seen.setdefault(rule.link)
        return list(seen)

    def flows_on(self, link) -> Spans:
        """A link carries the union of its rules' unshadowed matches."""
        from repro.core.intervals import IntervalSet

        link = _as_link(link)
        flows = IntervalSet()
        for rule in self.native.rules.values():
            if rule.link == link:
                flows = flows | self.native.effective_match(rule.rid)
        return flows.spans

    def reachable(self, src: object, dst: object) -> Spans:
        return self.native.reachable(src, dst).spans

    def _cycle_flow(self, rid_cycle: List[int]):
        """Packet space surviving one full turn of a plumbing cycle.

        ``NetPlumber.find_loops`` is already exact (its flow-propagating
        DFS only reports cycles a packet survives end-to-end); this
        re-intersection is a cheap independent guard so a future native
        regression surfaces as a dropped infeasible cycle here rather
        than as a false loop alert.
        """
        from repro.core.intervals import IntervalSet

        flow = self.native.effective_match(rid_cycle[0])
        for index, rid in enumerate(rid_cycle):
            succ = rid_cycle[(index + 1) % len(rid_cycle)]
            pipe = self.native.pipes_out[rid].get(succ)
            if pipe is None:
                return IntervalSet()
            flow = flow & pipe.carries & self.native.effective_match(succ)
        return flow

    def find_loops(self) -> List[Cycle]:
        seen: Dict[Cycle, None] = {}
        for rid_cycle in self.native.find_loops():
            if not self._cycle_flow(rid_cycle):
                continue
            seen.setdefault(canonical_cycle(
                self.native.rules[rid].source for rid in rid_cycle))
        return list(seen)

    def stats(self):
        out = super().stats()
        out.update(pipes=self.native.num_pipes)
        return out
