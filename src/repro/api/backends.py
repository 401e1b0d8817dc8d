"""The five registry backends wrapping this repo's native verifiers.

Each adapter translates between the uniform :class:`~repro.api.registry.
BackendAdapter` surface (rules in, canonical interval spans out) and one
native verifier:

==============  ==========================================  ==============
registry name   native class                                update cost
==============  ==========================================  ==============
``deltanet``    :class:`repro.core.deltanet.DeltaNet`       incremental
``sharded``     :class:`repro.libra.sharding.ShardedDeltaNet`  incremental, per shard
``veriflow``    :class:`repro.veriflow.verifier.VeriflowRI` per-update ECs
``apv``         :class:`repro.apv.verifier.APVerifier`      full recompute
``netplumber``  :class:`repro.netplumber.plumbing.NetPlumber`  pipe maintenance
==============  ==========================================  ==============

The native instance stays reachable as ``backend.native`` — an explicit
escape hatch for paper-specific analyses (Algorithm 3 closures, atom
introspection) that the uniform protocol deliberately does not cover.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.api.registry import (
    BackendAdapter, BackendBatch, BackendUpdate, Cycle, Spans,
    canonical_cycle, register_backend,
)
from repro.checkers.blackholes import find_blackholes
from repro.checkers.loops import (
    LoopChecker, cycle_alive, distinct_cycles, find_forwarding_loops,
)
from repro.core.atomset import atoms_to_interval_set
from repro.core.delta_graph import DeltaGraph
from repro.core.intervals import normalize
from repro.core.rules import DROP, Link, Rule, cycle_links


def _as_link(link: Union[Link, Tuple[object, object]]) -> Link:
    return link if isinstance(link, Link) else Link(*link)


def _batch_updates_with_loops(inserts: List[Rule], removal_rules: List[Rule],
                              loops: Optional[List[Cycle]]
                              ) -> List[BackendUpdate]:
    """Per-op updates for a natively checked batch.

    The batch's loops are one aggregate observation; they ride on the
    first update (``loops_for_commit`` unions over the batch, so the
    placement is immaterial) while the rest carry empty lists to signal
    "natively checked, nothing new".  ``loops=None`` means the native
    check was *skipped* — every update then carries ``None`` so the
    session's sweep fallback still fires for watched properties.
    """
    checked = loops is not None
    updates = [BackendUpdate(rule.rid, False, rule,
                             loops=[] if checked else None)
               for rule in removal_rules]
    updates += [BackendUpdate(rule.rid, True, rule,
                              loops=[] if checked else None)
                for rule in inserts]
    if updates and loops is not None:
        updates[0].loops = list(loops)
    return updates


def _blackhole_spans(nets) -> Dict[object, Spans]:
    """:func:`~repro.checkers.blackholes.find_blackholes` over each net
    (one, or the disjoint header-space slices of the shards), lowered to
    canonical spans per node, the nodes in ``repr`` order — an order the
    state alone fixes."""
    spans: Dict[object, List[Tuple[int, int]]] = {}
    for net in nets:
        for node, atoms in find_blackholes(net).items():
            spans.setdefault(node, []).extend(
                atoms_to_interval_set(atoms, net.atoms))
    return {node: normalize(spans[node]) for node in sorted(spans, key=repr)}


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

    #: Queries are pure in-process traversals: safe for the
    #: serving layer to run from concurrent reader threads.
    concurrent_read_safe = True

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
        return _blackhole_spans([self.native])

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


@register_backend("sharded")
class ShardedBackend(BackendAdapter):
    """Libra-style sharded Delta-net: disjoint header-space slices, fan-out queries."""

    #: Queries are pure in-process traversals: safe for the
    #: serving layer to run from concurrent reader threads.
    concurrent_read_safe = True

    def __init__(self, width: int = 32, shards: int = 4, gc: bool = False,
                 check_loops: bool = True) -> None:
        super().__init__(width=width)
        from repro.libra.sharding import ShardedDeltaNet, even_shards

        self.native = ShardedDeltaNet(even_shards(shards, width),
                                      width=width, gc=gc)
        self._check_loops = check_loops

    def _shard_loops(self, deltas: Dict[int, DeltaGraph]) -> Optional[List[Cycle]]:
        """Per-shard incremental check (the native per-shard checkers,
        each chasing its shard's forwarding index) — ``None`` (not
        ``[]``) when checking is off, so the session's sweep fallback
        still fires."""
        if not self._check_loops:
            return None
        return distinct_cycles(self.native.check_update(deltas))

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        deltas = self.native.apply_insert(rule)
        return BackendUpdate(rule.rid, True, rule,
                             loops=self._shard_loops(deltas))

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        deltas = self.native.apply_remove(rule.rid)
        return BackendUpdate(rule.rid, False, rule,
                             loops=self._shard_loops(deltas))

    def _do_apply_batch(self, inserts, removals, removal_rules) -> BackendBatch:
        deltas = self.native.apply_batch(inserts, removals)
        loops = self._shard_loops(deltas)
        updates = _batch_updates_with_loops(inserts, removal_rules, loops)
        return BackendBatch(updates=updates)

    def links(self) -> List[Link]:
        seen: Dict[Link, None] = {}
        for net in self.native.nets:
            for link in net.links():
                seen.setdefault(link)
        return list(seen)

    def flows_on(self, link) -> Spans:
        return self.native.flows_on(_as_link(link))

    def reachable(self, src: object, dst: object) -> Spans:
        from repro.checkers.reachability import reachable_atoms

        spans: List[Tuple[int, int]] = []
        for net in self.native.nets:
            atoms = reachable_atoms(net, src, dst)
            spans.extend(atoms_to_interval_set(atoms, net.atoms))
        return normalize(spans)

    def find_loops(self) -> List[Cycle]:
        return distinct_cycles(self.native.find_loops())

    def find_blackholes(self) -> Dict[object, Spans]:
        return _blackhole_spans(self.native.nets)

    def cycle_alive(self, cycle: Cycle) -> bool:
        """Atom-space liveness: alive in any shard (the slices
        partition the header space, so a packet loops in exactly one)."""
        return any(cycle_alive(net.findex, cycle)
                   for net in self.native.nets)

    def run_query(self, query):
        from repro.query.planner import evaluate_sharded

        return evaluate_sharded(self.native, query, backend=self.name)

    def speculate(self) -> "ShardedBackend":
        """Copy-on-write fork: every shard forks per-shard CoW children."""
        child = ShardedBackend.__new__(ShardedBackend)
        BackendAdapter.__init__(child, width=self.width)
        child.native = self.native.speculate()
        child._check_loops = self._check_loops
        child._rules = dict(self._rules)
        return child

    def state_digest(self):
        return self.native.state_digest()

    def check_invariants(self) -> None:
        for net in self.native.nets:
            net.check_invariants()

    def snapshot_state(self):
        from repro.persist.columns import pack_rules

        return {
            "kind": "sharded",
            "options": {"shards": self.native.num_shards,
                        "gc": self.native.nets[0].gc,
                        "check_loops": self._check_loops},
            "native": self.native.state_dict(),
            "rules": pack_rules(list(self._rules.values())),
        }

    def restore_state(self, state) -> None:
        if state.get("kind") != "sharded":
            super().restore_state(state)
            return
        if self._rules:
            raise ValueError("restore_state requires a fresh backend")
        from repro.libra.sharding import ShardedDeltaNet
        from repro.persist.columns import unpack_rules

        self.native = ShardedDeltaNet.from_state(state["native"])
        self._rules = {rule.rid: rule for rule in unpack_rules(state["rules"])}

    def stats(self):
        out = super().stats()
        out.update(shards=self.native.num_shards,
                   total_atoms=self.native.total_atoms,
                   shard_sizes=self.native.shard_sizes())
        return out


@register_backend("parallel")
class ParallelShardedBackend(BackendAdapter):
    """Process-parallel Libra sharding: one worker process per shard."""

    def __init__(self, width: int = 32, shards: int = 4, gc: bool = False,
                 check_loops: bool = True,
                 start_method: Optional[str] = None,
                 force_inline: bool = False,
                 deadline: Optional[float] = 60.0,
                 max_restarts: int = 3,
                 restart_backoff: float = 0.05,
                 reseed_every: int = 256,
                 log=None) -> None:
        super().__init__(width=width)
        from repro.libra.parallel import ParallelShardedDeltaNet
        from repro.libra.sharding import even_shards

        self.native = ParallelShardedDeltaNet(
            even_shards(shards, width), width=width, gc=gc,
            start_method=start_method, force_inline=force_inline,
            deadline=deadline, max_restarts=max_restarts,
            restart_backoff=restart_backoff, reseed_every=reseed_every,
            log=log)
        self._check_loops = check_loops

    def close(self) -> None:
        self.native.close()

    @staticmethod
    def _canonical(cycles) -> List[Cycle]:
        seen: Dict[Cycle, None] = {}
        for cycle in cycles:
            seen.setdefault(canonical_cycle(cycle))
        return list(seen)

    def _do_insert(self, rule: Rule) -> BackendUpdate:
        # With checking off, report loops=None (not []): [] would read as
        # "checked, clean" and suppress the session's sweep fallback.
        loops = self.native.insert_rule(rule, check=self._check_loops)
        return BackendUpdate(
            rule.rid, True, rule,
            loops=self._canonical(loops) if self._check_loops else None)

    def _do_remove(self, rule: Rule) -> BackendUpdate:
        loops = self.native.remove_rule(rule.rid, check=self._check_loops)
        return BackendUpdate(
            rule.rid, False, rule,
            loops=self._canonical(loops) if self._check_loops else None)

    def _do_apply_batch(self, inserts, removals, removal_rules) -> BackendBatch:
        loops = self.native.apply_batch(inserts, removals,
                                        check=self._check_loops)
        updates = _batch_updates_with_loops(
            inserts, removal_rules,
            self._canonical(loops) if self._check_loops else None)
        return BackendBatch(updates=updates)

    def links(self) -> List[Link]:
        return self.native.links()

    def flows_on(self, link) -> Spans:
        return self.native.flows_on(_as_link(link))

    def reachable(self, src: object, dst: object) -> Spans:
        return self.native.reachable(src, dst)

    def find_loops(self) -> List[Cycle]:
        return self._canonical(self.native.find_loops())

    def find_blackholes(self) -> Dict[object, Spans]:
        return self.native.find_blackholes()

    def speculate(self) -> "ParallelShardedBackend":
        """Fleet-wide fork: each worker holds a per-shard CoW child.

        The child routes updates/queries through the parent's worker
        pool under a speculation id; a worker restart loses that
        worker's speculative state, surfacing as
        :class:`~repro.core.speculative.StaleSpeculationError` on the
        child's next touch.  ``close()`` on the child discards the
        speculation — the shared pool stays up.
        """
        child = ParallelShardedBackend.__new__(ParallelShardedBackend)
        BackendAdapter.__init__(child, width=self.width)
        child.native = self.native.speculate()
        child._check_loops = self._check_loops
        child._rules = dict(self._rules)
        return child

    def check_invariants(self) -> None:
        self.native.check_invariants()

    def snapshot_state(self):
        from repro.persist.columns import pack_rules

        return {
            "kind": "parallel",
            "options": {"shards": self.native.num_shards,
                        "check_loops": self._check_loops},
            "native": self.native.state_dict(),
            "rules": pack_rules(list(self._rules.values())),
        }

    def restore_state(self, state) -> None:
        """Restore by fanning each shard's state out to its live worker.

        The adapter's constructor already spawned the worker pool (or
        its inline fallback); when the saved slice geometry matches, the
        states are shipped straight into those workers — concurrently,
        like any other fan-out.  A geometry mismatch rebuilds the pool.
        """
        if state.get("kind") != "parallel":
            super().restore_state(state)
            return
        if self._rules:
            raise ValueError("restore_state requires a fresh backend")
        from repro.libra.parallel import ParallelShardedDeltaNet
        from repro.persist.columns import unpack_rules

        native_state = state["native"]
        slices = [tuple(pair) for pair in native_state["slices"]]
        if slices == list(self.native.slices):
            self.native._restore_router(native_state)
            # The supervised restore path also installs the states as
            # the shards' recovery seeds.
            self.native._seed_shards(list(native_state["nets"]))
        else:
            force_inline = not self.native.parallel
            old = self.native
            self.native = ParallelShardedDeltaNet.from_state(
                native_state, force_inline=force_inline,
                deadline=old.deadline, max_restarts=old.max_restarts,
                restart_backoff=old.restart_backoff,
                reseed_every=old.reseed_every, log=old._log)
            old.close()
        self._rules = {rule.rid: rule for rule in unpack_rules(state["rules"])}

    def stats(self):
        out = super().stats()
        out.update(shards=self.native.num_shards,
                   parallel=self.native.parallel,
                   degraded=self.native.degraded,
                   degraded_shards=list(self.native.degraded_shards),
                   restarts=self.native.restarts,
                   shard_sizes=self.native.shard_sizes())
        return out

    def health(self):
        """Cheap liveness/degradation view — parent-side state only.

        Unlike :meth:`stats` this never touches the worker pipes, so
        the daemon's ``health`` verb can answer while an update holds
        the session lock (or while a worker is wedged).
        """
        native = self.native
        workers_alive = sum(
            1 for endpoint in native._workers
            if getattr(endpoint, "process", None) is not None
            and endpoint.process.is_alive())
        return {
            "parallel": native.parallel,
            "degraded": native.degraded,
            "degraded_shards": list(native.degraded_shards),
            "restarts": native.restarts,
            "workers_alive": workers_alive,
            "shards": native.num_shards,
            "events": len(native.events),
            "audits": native.audits,
            "audit_mismatches": native.audit_mismatches,
            "audit_repairs": native.audit_repairs,
            "audit_escalations": native.audit_escalations,
        }

    def state_digest(self):
        return self.native.state_digest()


@register_backend("veriflow")
class VeriflowBackend(BackendAdapter):
    """Veriflow-RI: per-update equivalence classes and forwarding graphs."""

    #: Queries are pure in-process traversals: safe for the
    #: serving layer to run from concurrent reader threads.
    concurrent_read_safe = True

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

    #: Queries are pure in-process traversals: safe for the
    #: serving layer to run from concurrent reader threads.
    concurrent_read_safe = True

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

    #: Queries are pure in-process traversals: safe for the
    #: serving layer to run from concurrent reader threads.
    concurrent_read_safe = True

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
