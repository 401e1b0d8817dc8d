"""Ablation A4 — Libra-style sharding over Delta-net (§5 future work).

Shards the header space into disjoint slices, each with an independent
Delta-net (:class:`LibraShards`, a model local to this ablation: the
paper leaves partitioning to future work, so the product has no sharded
backend).  Shape targets:

  * semantics preserved: per-link flows equal the monolithic verifier's,
  * the largest shard's atom count shrinks as shards are added (the
    scale-out property Libra exploited),
  * total atoms overhead from clipping stays small.
"""

from bisect import bisect_right

import pytest

from repro.analysis.tables import render_table
from repro.core.deltanet import DeltaNet
from repro.core.intervals import normalize
from repro.core.rules import Action, Rule

from benchmarks.common import dataset, print_report

_NAME = "Berkeley"
_SHARD_COUNTS = (1, 2, 4, 8)
_CACHE = {}


def even_shards(count, width=32):
    """Split ``[0, 2^width)`` into ``count`` equal half-closed slices."""
    space = 1 << width
    bounds = [space * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def clip_rule(rule, rid, lo, hi):
    """``rule`` restricted to ``[lo : hi)``, re-identified as ``rid``."""
    clip_lo, clip_hi = max(rule.lo, lo), min(rule.hi, hi)
    if rule.action is Action.DROP:
        return Rule.drop(rid, clip_lo, clip_hi, rule.priority, rule.source)
    return Rule.forward(rid, clip_lo, clip_hi, rule.priority,
                        rule.source, rule.target)


class LibraShards:
    """Libra's map step, insert-only: one Delta-net per disjoint slice of
    the header space; a rule goes, clipped, to every slice it meets."""

    def __init__(self, slices, width=32):
        self.slices = list(slices)
        self._starts = [lo for lo, _hi in self.slices]
        self.nets = [DeltaNet(width=width) for _ in self.slices]
        self.num_rules = 0
        self._next_clipped = 0

    def insert_rule(self, rule):
        first = bisect_right(self._starts, rule.lo) - 1
        last = bisect_right(self._starts, rule.hi - 1) - 1
        for index in range(first, last + 1):
            lo, hi = self.slices[index]
            self.nets[index].insert_rule(
                clip_rule(rule, self._next_clipped, lo, hi))
            self._next_clipped += 1
        self.num_rules += 1

    def flows_on(self, link):
        return normalize(span for net in self.nets
                         for span in net.flows_on(link))

    @property
    def total_atoms(self):
        return sum(net.num_atoms for net in self.nets)

    def shard_sizes(self):
        """(rules, atoms) per shard — the load-balance view."""
        return [(net.num_rules, net.num_atoms) for net in self.nets]


def _build(n_shards):
    key = n_shards
    if key not in _CACHE:
        sharded = LibraShards(even_shards(n_shards, 32), width=32)
        for op in dataset(_NAME).ops:
            if op.is_insert:
                sharded.insert_rule(op.rule)
        _CACHE[key] = sharded
    return _CACHE[key]


def _monolithic():
    if "mono" not in _CACHE:
        net = DeltaNet()
        for op in dataset(_NAME).ops:
            if op.is_insert:
                net.insert_rule(op.rule)
        _CACHE["mono"] = net
    return _CACHE["mono"]


def test_ablation_libra_report():
    mono = _monolithic()
    rows = [("monolithic", 1, mono.num_atoms, mono.num_atoms)]
    for n_shards in _SHARD_COUNTS:
        sharded = _build(n_shards)
        sizes = sharded.shard_sizes()
        rows.append((f"{n_shards} shards", n_shards, sharded.total_atoms,
                     max(atoms for _rules, atoms in sizes)))
    print_report(render_table(
        ("Configuration", "Shards", "Total atoms", "Largest shard atoms"),
        rows, title=f"Ablation — Libra sharding on {_NAME}"))
    assert rows


@pytest.mark.parametrize("n_shards", _SHARD_COUNTS)
def test_semantics_preserved(n_shards):
    mono = _monolithic()
    sharded = _build(n_shards)
    from tests.conftest import deltanet_label_intervals

    mono_labels = deltanet_label_intervals(mono)
    for link, spans in mono_labels.items():
        assert sharded.flows_on(link) == spans


def test_largest_shard_shrinks():
    sizes = [max(atoms for _r, atoms in _build(n).shard_sizes())
             for n in _SHARD_COUNTS]
    assert sizes[-1] < sizes[0], f"sharding should spread atoms: {sizes}"


def test_clipping_overhead_bounded():
    """Clipping adds at most 2 boundaries per (rule, shard crossing)."""
    mono = _monolithic()
    for n_shards in _SHARD_COUNTS:
        sharded = _build(n_shards)
        overhead = sharded.total_atoms - mono.num_atoms
        assert overhead <= 2 * n_shards * max(1, mono.num_atoms)


def test_benchmark_sharded_build(benchmark):
    ops = [op for op in dataset(_NAME).ops if op.is_insert]

    def build():
        sharded = LibraShards(even_shards(4, 32), width=32)
        for op in ops:
            sharded.insert_rule(op.rule)
        return sharded

    sharded = benchmark.pedantic(build, rounds=1, iterations=1)
    assert sharded.num_rules == len(ops)
