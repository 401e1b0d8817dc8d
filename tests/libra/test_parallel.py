"""ParallelShardedDeltaNet: process workers must be invisible semantically.

Every verdict — flows, loops, blackholes, reachability — must be
bit-identical (in the canonical interval/cycle currency) to a monolithic
sequential Delta-net over the same rule history.  Most cases run in the
inline fallback mode for speed; a representative subset exercises real
worker processes end to end.
"""

import random

import pytest

from repro.checkers.blackholes import find_blackholes
from repro.checkers.loops import find_forwarding_loops
from repro.checkers.reachability import reachable_atoms
from repro.core.atomset import atoms_to_interval_set
from repro.core.deltanet import DeltaNet
from repro.core.rules import Rule
from repro.libra.parallel import ParallelShardedDeltaNet
from repro.libra.sharding import even_shards

from tests.conftest import deltanet_label_intervals, random_rules


def mono_flows(net):
    return {link: spans for link, spans in
            deltanet_label_intervals(net).items() if spans}


def drive(par, mono, seed, count=35):
    """Apply the same randomized batch schedule to both verifiers."""
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=8, switches=4, drop_fraction=0.1)
    live, index = [], 0
    while index < len(rules):
        chunk = rules[index:index + rng.randint(1, 5)]
        index += len(chunk)
        removals = []
        while live and rng.random() < 0.3:
            removals.append(live.pop(rng.randrange(len(live))).rid)
        live.extend(chunk)
        par.apply_batch(chunk, removals)
        mono.apply(chunk, removals)


class TestParallelEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_flows_match_monolithic(self, seed, n_shards):
        mono = DeltaNet(width=8)
        with ParallelShardedDeltaNet(even_shards(n_shards, 8), width=8,
                                     force_inline=True) as par:
            drive(par, mono, seed)
            assert par.dump_flows() == mono_flows(mono)
            par.check_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_loop_and_blackhole_verdicts_match(self, seed):
        mono = DeltaNet(width=8)
        with ParallelShardedDeltaNet(even_shards(4, 8), width=8,
                                     force_inline=True) as par:
            drive(par, mono, seed)
            assert ({frozenset(c) for c in par.find_loops()} ==
                    {frozenset(l.cycle) for l in find_forwarding_loops(mono)})
            expected_holes = {
                node: atoms_to_interval_set(atoms, mono.atoms)
                for node, atoms in find_blackholes(mono).items()}
            assert par.find_blackholes() == expected_holes

    @pytest.mark.parametrize("seed", range(3))
    def test_reachability_matches_monolithic(self, seed):
        mono = DeltaNet(width=8)
        with ParallelShardedDeltaNet(even_shards(2, 8), width=8,
                                     force_inline=True) as par:
            drive(par, mono, seed, count=25)
            for src in ("s0", "s1"):
                for dst in ("s2", "s3"):
                    expected = atoms_to_interval_set(
                        reachable_atoms(mono, src, dst), mono.atoms)
                    assert par.reachable(src, dst) == expected, (src, dst)

    def test_real_worker_processes(self):
        """End-to-end with actual OS processes (the default mode)."""
        mono = DeltaNet(width=8)
        with ParallelShardedDeltaNet(even_shards(4, 8), width=8) as par:
            drive(par, mono, seed=99)
            assert par.dump_flows() == mono_flows(mono)
            assert ({frozenset(c) for c in par.find_loops()} ==
                    {frozenset(l.cycle) for l in find_forwarding_loops(mono)})
            par.check_invariants()

    def test_spanning_rule_loop_detected_once(self):
        with ParallelShardedDeltaNet(even_shards(4, 8), width=8,
                                     force_inline=True) as par:
            rules = [Rule.forward(rid, 96, 160, 1, src, dst)  # spans 2 shards
                     for rid, (src, dst) in enumerate(
                         (("a", "b"), ("b", "c"), ("c", "a")))]
            loops = par.apply_batch(rules)
            assert len(loops) == 1
            assert frozenset(loops[0]) == {"a", "b", "c"}


class TestParallelLifecycle:
    def test_close_is_idempotent_and_workers_exit(self):
        par = ParallelShardedDeltaNet(even_shards(2, 8), width=8)
        was_parallel = par.parallel
        par.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
        par.close()
        par.close()
        if was_parallel:
            for endpoint in par._workers:
                assert not endpoint.process.is_alive()

    def test_errors_propagate_and_workers_survive(self):
        with ParallelShardedDeltaNet(even_shards(2, 8), width=8) as par:
            par.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
            with pytest.raises(ValueError):
                par.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
            with pytest.raises(KeyError):
                par.remove_rule(42)
            # the workers are still serving after the error
            par.insert_rule(Rule.forward(1, 16, 32, 1, "a", "c"))
            assert par.num_rules == 2
            assert par.flows_on(("a", "c")) == [(16, 32)]

    def test_worker_error_mid_fanout_does_not_skew_later_replies(self):
        """A failing worker must not leave other workers' replies queued
        in their pipes — the next command would read stale data."""
        with ParallelShardedDeltaNet(even_shards(4, 8), width=8) as par:
            # The spanning rule is clipped to rids 0..3, one per shard.
            par.insert_rule(Rule.forward(0, 0, 256, 1, "a", "b"))
            # Broadcast a removal of clipped rid 0: it exists only in
            # shard 0's Delta-net, so shards 1-3 raise KeyError.
            with pytest.raises(KeyError):
                par._broadcast("apply_batch", ([], [0], False))
            # Every reply was drained, so queries still pair up with
            # their own answers (a stale pipe would return loop lists
            # or the wrong shard's spans here).
            assert par.flows_on(("a", "b")) == [(64, 256)]
            assert [rules for rules, _atoms in par.shard_sizes()] == \
                [0, 1, 1, 1]

    def test_rejected_batch_leaves_shards_untouched(self):
        with ParallelShardedDeltaNet(even_shards(2, 8), width=8,
                                     force_inline=True) as par:
            par.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
            with pytest.raises(ValueError):
                par.apply_batch([Rule.forward(1, 16, 32, 1, "a", "c"),
                                 Rule.forward(0, 0, 8, 2, "a", "b")])
            assert par.num_rules == 1
            assert par.flows_on(("a", "c")) == []

    def test_owner_link_at_and_shard_sizes(self):
        with ParallelShardedDeltaNet(even_shards(2, 8), width=8,
                                     force_inline=True) as par:
            par.insert_rule(Rule.forward(0, 0, 256, 1, "s1", "s2"))
            par.insert_rule(Rule.forward(1, 100, 140, 9, "s1", "s3"))
            assert par.owner_link_at("s1", 50).target == "s2"
            assert par.owner_link_at("s1", 120).target == "s3"
            assert par.owner_link_at("s9", 50) is None
            sizes = par.shard_sizes()
            assert len(sizes) == 2 and all(r >= 1 for r, _a in sizes)
            assert par.total_atoms == sum(a for _r, a in sizes)

    def test_failed_batch_poisons_updates_but_not_queries(self):
        """A batch that errors inside a worker leaves shards possibly
        part-applied; further updates must refuse (no phantom-duplicate
        retries), while read-only queries stay available."""
        with ParallelShardedDeltaNet(even_shards(2, 8), width=8,
                                     force_inline=True) as par:
            par.insert_rule(Rule.forward(0, 0, 256, 1, "a", "b"))
            # Desync one shard server behind the router's back so its
            # sub-batch fails while validation at the router passes.
            par._workers[0].server.net.remove_rule(
                par._placement[0][0][1])
            with pytest.raises(KeyError):
                par.apply_batch((), [0])
            with pytest.raises(RuntimeError):
                par.apply_batch([Rule.forward(7, 0, 64, 5, "a", "c")])
            with pytest.raises(RuntimeError):
                par.insert_rule(Rule.forward(8, 0, 64, 6, "a", "c"))
            # Inspection of the partial state still works: shard 1 did
            # apply its half of the failed removal — exactly the
            # part-applied inconsistency the poison flag guards.
            assert par.flows_on(("a", "b")) == []

    def test_bad_tiling_rejected(self):
        with pytest.raises(ValueError):
            ParallelShardedDeltaNet([(0, 8), (9, 16)], width=4,
                                    force_inline=True)
