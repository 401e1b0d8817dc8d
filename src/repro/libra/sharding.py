"""Disjoint header-space shards, each owning an independent Delta-net.

A shard owns a half-closed slice ``[lo : hi)`` of the destination
space.  A rule whose prefix intersects several shards is *split*: each
shard receives the clipped sub-rule (same switch/priority/action), so
per-shard semantics are exact on the shard's slice.  Queries either
target one shard (a point or subnet query) or fan out and merge.

The map step of Libra's MapReduce is the per-shard rule routing; the
reduce step is the merge in :meth:`ShardedDeltaNet.find_loops` /
:meth:`flows_on`.  Shapes to note: total atoms across shards can exceed
a monolithic Delta-net's count by at most 2x(shards-1) (clipping adds
boundaries), while the largest single structure shrinks by ~1/shards —
the property that made Libra scale out.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from repro.checkers.loops import Loop, LoopChecker, find_forwarding_loops
from repro.core.delta_graph import DeltaGraph
from repro.core.deltanet import DeltaNet
from repro.core.intervals import normalize
from repro.core.rules import Action, Rule, validate_batch_ops


def even_shards(count: int, width: int = 32) -> List[Tuple[int, int]]:
    """Split ``[0, 2^width)`` into ``count`` equal half-closed slices."""
    if count < 1:
        raise ValueError("need at least one shard")
    space = 1 << width
    if count > space:
        raise ValueError("more shards than addresses")
    bounds = [space * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def validate_slices(slices: List[Tuple[int, int]], width: int) -> None:
    """Check that ``slices`` tile ``[0, 2^width)`` contiguously."""
    space = 1 << width
    cursor = 0
    for lo, hi in slices:
        if lo != cursor or hi <= lo:
            raise ValueError(
                f"shards must tile [0, 2^{width}) contiguously; "
                f"got slice [{lo}:{hi}) at cursor {cursor}")
        cursor = hi
    if cursor != space:
        raise ValueError("shards do not cover the full space")


def clip_rule(rule: Rule, rid: int, lo: int, hi: int) -> Rule:
    """``rule`` restricted to ``[lo : hi)``, re-identified as ``rid``."""
    clip_lo, clip_hi = max(rule.lo, lo), min(rule.hi, hi)
    if rule.action is Action.DROP:
        return Rule.drop(rid, clip_lo, clip_hi, rule.priority, rule.source)
    return Rule.forward(rid, clip_lo, clip_hi, rule.priority,
                        rule.source, rule.target)


class ShardRouter:
    """The map step's shared machinery: slice geometry, rule clipping,
    and the ``rid -> (shard, clipped rid)`` placement bookkeeping.

    Base class of both the serial :class:`ShardedDeltaNet` and the
    process-parallel :class:`~repro.libra.parallel.
    ParallelShardedDeltaNet`, so routing/validation semantics cannot
    diverge between the two.
    """

    def __init__(self, shards: Optional[Iterable[Tuple[int, int]]],
                 width: int) -> None:
        self.width = width
        self.slices: List[Tuple[int, int]] = (
            list(shards) if shards is not None else even_shards(4, width))
        validate_slices(self.slices, width)
        self._starts = [lo for lo, _hi in self.slices]
        #: rid -> list of (shard index, clipped rid)
        self._placement: Dict[int, List[Tuple[int, int]]] = {}
        self._next_clipped = 0

    @property
    def num_shards(self) -> int:
        return len(self.slices)

    @property
    def num_rules(self) -> int:
        return len(self._placement)

    def shard_of_point(self, point: int) -> int:
        index = bisect.bisect_right(self._starts, point) - 1
        if index < 0 or not (self.slices[index][0] <= point < self.slices[index][1]):
            raise ValueError(f"point {point} outside the header space")
        return index

    def shards_of_interval(self, lo: int, hi: int) -> List[int]:
        first = self.shard_of_point(lo)
        last = self.shard_of_point(hi - 1)
        return list(range(first, last + 1))

    def route_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()
                    ) -> List[Tuple[List[Rule], List[int]]]:
        """The map step alone: validate and clip a batch per shard.

        Returns one ``(clipped inserts, clipped removal rids)`` pair per
        shard, committing the placement bookkeeping.  The whole batch is
        validated before any state changes, so a rejected batch leaves
        no trace.  Callers then apply each shard's sub-batch —
        sequentially here, concurrently in the parallel subclass.
        """
        inserts = list(rules_to_insert)
        removals = list(rids_to_remove)
        validate_batch_ops(inserts, removals, self._placement, self.width)
        per_shard: List[Tuple[List[Rule], List[int]]] = [
            ([], []) for _ in self.slices]
        for rid in removals:
            for index, clipped_rid in self._placement.pop(rid):
                per_shard[index][1].append(clipped_rid)
        for rule in inserts:
            placement: List[Tuple[int, int]] = []
            for index in self.shards_of_interval(rule.lo, rule.hi):
                slice_lo, slice_hi = self.slices[index]
                clipped_rid = self._next_clipped
                self._next_clipped += 1
                per_shard[index][0].append(
                    clip_rule(rule, clipped_rid, slice_lo, slice_hi))
                placement.append((index, clipped_rid))
            self._placement[rule.rid] = placement
        return per_shard

    # -- persistence (see repro.persist) ----------------------------------------

    def router_state(self) -> dict:
        """The map step's bookkeeping as deterministic plain data."""
        return {
            "width": self.width,
            "slices": [list(pair) for pair in self.slices],
            "next_clipped": self._next_clipped,
            "placement": [(rid, [list(pair) for pair in placement])
                          for rid, placement in
                          sorted(self._placement.items())],
        }

    def _restore_router(self, state: dict) -> None:
        self._next_clipped = state["next_clipped"]
        self._placement = {
            rid: [tuple(pair) for pair in placement]
            for rid, placement in state["placement"]}


class ShardedDeltaNet(ShardRouter):
    """Independent Delta-net instances over disjoint header-space slices."""

    def __init__(self, shards: Iterable[Tuple[int, int]] = None,
                 width: int = 32, gc: bool = False) -> None:
        super().__init__(shards, width)
        self.nets: List[DeltaNet] = [DeltaNet(width=width, gc=gc)
                                     for _ in self.slices]
        #: One incremental loop checker per shard, bound to that shard's
        #: persistent forwarding index — checks stay local to the shards
        #: an update touched and never rebuild any per-check structure.
        self.checkers: List[LoopChecker] = [LoopChecker(net)
                                            for net in self.nets]

    @property
    def total_atoms(self) -> int:
        return sum(net.num_atoms for net in self.nets)

    # -- rule lifecycle (the "map" step) -------------------------------------------

    def insert_rule(self, rule: Rule) -> List[int]:
        """Clip the rule into its shards; returns the shard indices."""
        return sorted(self.apply_insert(rule))

    def remove_rule(self, rid: int) -> List[int]:
        return sorted(self.apply_remove(rid))

    def apply_insert(self, rule: Rule) -> Dict[int, DeltaGraph]:
        """Insert ``rule``; return each touched shard's delta-graph.

        Atom identifiers in the per-shard delta-graphs are local to that
        shard's Delta-net, so the deltas are returned per shard rather
        than merged (the map step keeps shards fully independent).
        """
        per_shard = self.route_batch([rule])
        return {index: self.nets[index].insert_rule(shard_inserts[0])
                for index, (shard_inserts, _) in enumerate(per_shard)
                if shard_inserts}

    def apply_remove(self, rid: int) -> Dict[int, DeltaGraph]:
        """Remove a rule; return each touched shard's delta-graph."""
        per_shard = self.route_batch((), [rid])
        return {index: self.nets[index].remove_rule(shard_removals[0])
                for index, (_, shard_removals) in enumerate(per_shard)
                if shard_removals}

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = ()
                    ) -> Dict[int, DeltaGraph]:
        """Batched map step: route the batch, then one
        :meth:`DeltaNet.apply_batch` per touched shard.  Returns each
        touched shard's aggregated delta-graph."""
        per_shard = self.route_batch(rules_to_insert, rids_to_remove)
        deltas: Dict[int, DeltaGraph] = {}
        for index, (shard_inserts, shard_removals) in enumerate(per_shard):
            if shard_inserts or shard_removals:
                deltas[index] = self.nets[index].apply_batch(
                    shard_inserts, shard_removals)
        return deltas

    def check_update(self, deltas: Dict[int, DeltaGraph]) -> List[Loop]:
        """Incremental per-shard loop check over ``apply_*`` deltas.

        Each touched shard's checker chases its own forwarding index;
        shards with an empty delta (no label changed) are skipped
        outright.  Atom ids in the returned loops are shard-local, but
        cycles (node tuples) are globally meaningful.
        """
        loops: List[Loop] = []
        for index, delta in deltas.items():
            if delta:
                loops.extend(self.checkers[index].check_update(delta))
        return loops

    # -- queries (the "reduce" step) --------------------------------------------------

    def flows_on(self, link) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for net in self.nets:
            spans.extend(net.flows_on(link))
        return normalize(spans)

    def find_loops(self) -> List[Loop]:
        loops: List[Loop] = []
        for net in self.nets:
            loops.extend(find_forwarding_loops(net))
        return loops

    def owner_link_at(self, source: object, point: int):
        """The link a ``point``-packet takes at ``source``, if any."""
        net = self.nets[self.shard_of_point(point)]
        atom = net.atoms.atom_at(point)
        rule = net.owner_rule(atom, source)
        return rule.link if rule else None

    def shard_sizes(self) -> List[Tuple[int, int]]:
        """(rules, atoms) per shard — the load-balance view."""
        return [(net.num_rules, net.num_atoms) for net in self.nets]

    def state_digest(self):
        """Componentwise combination of the per-shard digests — equal to
        the digest an unsharded net over the same state would report per
        component set (see :mod:`repro.integrity.digest`)."""
        from repro.integrity.digest import combine_digests

        return combine_digests(net.state_digest() for net in self.nets)

    # -- persistence (see repro.persist) ----------------------------------------

    def state_dict(self) -> dict:
        """Router bookkeeping plus one Delta-net state per shard."""
        state = self.router_state()
        state["nets"] = [net.state_dict() for net in self.nets]
        return state

    @classmethod
    def from_state(cls, state: dict) -> "ShardedDeltaNet":
        """Rebuild all shards; per-shard warm start, shared router."""
        slices = [tuple(pair) for pair in state["slices"]]
        gc = bool(state["nets"]) and state["nets"][0]["gc"]
        sharded = cls(slices, width=state["width"], gc=gc)
        sharded._restore_router(state)
        sharded.nets = [DeltaNet.from_state(net_state)
                        for net_state in state["nets"]]
        sharded.checkers = [LoopChecker(net) for net in sharded.nets]
        return sharded

    # -- speculation (see repro.core.speculative) --------------------------------

    def speculate(self) -> "SpeculativeShardedDeltaNet":
        """Fork a copy-on-write what-if child sharing this net's state."""
        return SpeculativeShardedDeltaNet.from_parent(self)

    def __repr__(self) -> str:
        return (f"ShardedDeltaNet(shards={self.num_shards}, "
                f"rules={self.num_rules}, total_atoms={self.total_atoms})")


class SpeculativeShardedDeltaNet(ShardedDeltaNet):
    """A sharded net whose shards are copy-on-write speculative children.

    Router bookkeeping is copied shallowly — placement lists are popped
    and created whole, never mutated in place, so sharing the list
    objects with the parent is safe — and each shard forks via
    :meth:`repro.core.speculative.SpeculativeDeltaNet.from_parent`.
    Staleness is enforced per shard: once the parent applies any update,
    the child's next mutation raises
    :class:`~repro.core.speculative.StaleSpeculationError`.
    """

    @classmethod
    def from_parent(cls, parent: ShardedDeltaNet) -> "SpeculativeShardedDeltaNet":
        from repro.core.speculative import SpeculativeDeltaNet

        child = cls.__new__(cls)
        child.width = parent.width
        child.slices = list(parent.slices)
        child._starts = list(parent._starts)
        child._placement = dict(parent._placement)
        child._next_clipped = parent._next_clipped
        child.nets = [SpeculativeDeltaNet.from_parent(net)
                      for net in parent.nets]
        child.checkers = [LoopChecker(net) for net in child.nets]
        return child

    def state_digest(self):
        """Speculative state is ephemeral: no digest is maintained."""
        return None

    def __repr__(self) -> str:
        return (f"SpeculativeShardedDeltaNet(shards={self.num_shards}, "
                f"rules={self.num_rules}, total_atoms={self.total_atoms})")
