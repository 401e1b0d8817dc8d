"""Tests for Libra-style header-space sharding over Delta-net."""

import random

import pytest

from repro.checkers.loops import distinct_cycles, find_forwarding_loops
from repro.core.deltanet import DeltaNet
from repro.core.rules import Rule
from repro.libra.sharding import ShardedDeltaNet, even_shards

from tests.conftest import deltanet_label_intervals, random_rules


class TestEvenShards:
    def test_tiles_the_space(self):
        shards = even_shards(4, width=8)
        assert shards == [(0, 64), (64, 128), (128, 192), (192, 256)]

    def test_single_shard(self):
        assert even_shards(1, width=4) == [(0, 16)]

    def test_uneven_division(self):
        shards = even_shards(3, width=4)
        assert shards[0][0] == 0 and shards[-1][1] == 16
        assert all(lo < hi for lo, hi in shards)

    def test_validation(self):
        with pytest.raises(ValueError):
            even_shards(0)
        with pytest.raises(ValueError):
            even_shards(32, width=4)


class TestShardedDeltaNet:
    def test_bad_tiling_rejected(self):
        with pytest.raises(ValueError):
            ShardedDeltaNet([(0, 8), (9, 16)], width=4)   # gap
        with pytest.raises(ValueError):
            ShardedDeltaNet([(0, 8)], width=4)             # short

    def test_rule_in_one_shard(self):
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        placed = sharded.insert_rule(Rule.forward(0, 0, 32, 1, "s1", "s2"))
        assert placed == [0]
        assert sharded.nets[0].num_rules == 1
        assert sharded.nets[1].num_rules == 0

    def test_rule_spanning_shards_is_clipped(self):
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        placed = sharded.insert_rule(Rule.forward(0, 32, 160, 1, "s1", "s2"))
        assert placed == [0, 1, 2]
        assert sharded.flows_on(("s1", "s2")) == [(32, 160)]

    def test_remove_spanning_rule(self):
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        sharded.insert_rule(Rule.forward(0, 32, 160, 1, "s1", "s2"))
        assert sharded.remove_rule(0) == [0, 1, 2]
        assert sharded.flows_on(("s1", "s2")) == []
        assert sharded.num_rules == 0

    def test_duplicate_and_unknown(self):
        sharded = ShardedDeltaNet(even_shards(2, 8), width=8)
        sharded.insert_rule(Rule.forward(0, 0, 8, 1, "s1", "s2"))
        with pytest.raises(ValueError):
            sharded.insert_rule(Rule.forward(0, 0, 8, 1, "s1", "s2"))
        with pytest.raises(KeyError):
            sharded.remove_rule(9)

    def test_shard_of_point(self):
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        assert sharded.shard_of_point(0) == 0
        assert sharded.shard_of_point(64) == 1
        assert sharded.shard_of_point(255) == 3
        with pytest.raises(ValueError):
            sharded.shard_of_point(256)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_matches_monolithic_deltanet(self, seed, n_shards):
        """Shape: sharding must not change any flow semantics."""
        rng = random.Random(seed * 11 + n_shards)
        rules = random_rules(rng, 35, width=8, switches=4, drop_fraction=0.1)
        sharded = ShardedDeltaNet(even_shards(n_shards, 8), width=8)
        mono = DeltaNet(width=8)
        live = []
        for rule in rules:
            if live and rng.random() < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                sharded.remove_rule(victim.rid)
                mono.remove_rule(victim.rid)
            sharded.insert_rule(rule)
            mono.insert_rule(rule)
            live.append(rule)
        mono_labels = deltanet_label_intervals(mono)
        for link in set(mono_labels) | set(
                l for net in sharded.nets for l in net.label):
            assert sharded.flows_on(link) == mono_labels.get(link, [])

    def test_loop_detection_matches_monolithic(self):
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        mono = DeltaNet(width=8)
        for rid, (src, dst) in enumerate((("a", "b"), ("b", "c"), ("c", "a"))):
            rule = Rule.forward(rid, 96, 160, 1, src, dst)  # spans 2 shards
            sharded.insert_rule(rule)
            mono.insert_rule(rule)
        sharded_loops = sharded.find_loops()
        mono_loops = find_forwarding_loops(mono)
        assert bool(sharded_loops) == bool(mono_loops) == True  # noqa: E712
        assert {frozenset(l.cycle) for l in sharded_loops} == \
            {frozenset(l.cycle) for l in mono_loops}

    def test_spanning_rule_loop_detected_once(self):
        """A ring spanning two shards loops in both; the per-shard
        checkers find it twice and the distinct cycles name it once."""
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        rules = [Rule.forward(rid, 96, 160, 1, src, dst)
                 for rid, (src, dst) in enumerate(
                     (("a", "b"), ("b", "c"), ("c", "a")))]
        deltas = sharded.apply_batch(rules)
        assert sorted(deltas) == [1, 2]
        loops = sharded.check_update(deltas)
        assert len(loops) == 2
        cycles = distinct_cycles(loops)
        assert len(cycles) == 1 and frozenset(cycles[0]) == {"a", "b", "c"}

    def test_rejected_batch_leaves_shards_untouched(self):
        sharded = ShardedDeltaNet(even_shards(2, 8), width=8)
        sharded.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
        before = sharded.state_dict()
        with pytest.raises(ValueError):
            sharded.apply_batch([Rule.forward(1, 16, 32, 1, "a", "c"),
                                 Rule.forward(0, 0, 8, 2, "a", "b")])
        assert sharded.num_rules == 1
        assert sharded.flows_on(("a", "c")) == []
        assert sharded.state_dict() == before

    def test_owner_link_at(self):
        sharded = ShardedDeltaNet(even_shards(2, 8), width=8)
        sharded.insert_rule(Rule.forward(0, 0, 256, 1, "s1", "s2"))
        sharded.insert_rule(Rule.forward(1, 100, 140, 9, "s1", "s3"))
        assert sharded.owner_link_at("s1", 50).target == "s2"
        assert sharded.owner_link_at("s1", 120).target == "s3"
        assert sharded.owner_link_at("s9", 50) is None

    def test_shard_sizes_balance(self):
        rng = random.Random(4)
        sharded = ShardedDeltaNet(even_shards(4, 8), width=8)
        for rule in random_rules(rng, 60, width=8, switches=4):
            sharded.insert_rule(rule)
        sizes = sharded.shard_sizes()
        assert len(sizes) == 4
        assert sum(r for r, _a in sizes) >= 60  # clipping can add copies
        assert sharded.total_atoms == sum(a for _r, a in sizes)
