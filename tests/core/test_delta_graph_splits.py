"""Tests for delta-graph split/GC bookkeeping (touched_atoms)."""

from repro.core.delta_graph import DeltaGraph
from repro.core.deltanet import DeltaNet
from repro.core.rules import Link, Rule


class TestSplitsRecorded:
    def test_insert_records_its_splits(self):
        net = DeltaNet(width=8)
        delta = net.insert_rule(Rule.forward(0, 10, 20, 1, "a", "b"))
        assert len(delta.splits) == 2  # bounds 10 and 20 both fresh
        olds = {old for old, _new in delta.splits}
        news = {new for _old, new in delta.splits}
        assert 0 in olds
        assert news <= set(a for a, _ in net.atoms.intervals())

    def test_reusing_bounds_records_no_splits(self):
        net = DeltaNet(width=8)
        net.insert_rule(Rule.forward(0, 10, 20, 1, "a", "b"))
        delta = net.insert_rule(Rule.forward(1, 10, 20, 2, "a", "c"))
        assert delta.splits == []

    def test_touched_includes_splits_even_when_no_flow_change(self):
        net = DeltaNet(width=8)
        net.insert_rule(Rule.forward(0, 0, 256, 9, "a", "b"))
        # Lower-priority rule: no label change, but it splits two atoms.
        delta = net.insert_rule(Rule.forward(1, 10, 20, 1, "a", "c"))
        assert delta.affected_atoms() == set()
        assert len(delta.touched_atoms()) == 2

    def test_gc_removal_records_collected(self):
        net = DeltaNet(width=8, gc=True)
        net.insert_rule(Rule.forward(0, 10, 20, 1, "a", "b"))
        delta = net.remove_rule(0)
        assert len(delta.collected) == 2
        assert set(delta.collected) <= delta.touched_atoms()

    def test_non_gc_removal_collects_nothing(self):
        net = DeltaNet(width=8, gc=False)
        net.insert_rule(Rule.forward(0, 10, 20, 1, "a", "b"))
        delta = net.remove_rule(0)
        assert delta.collected == []

    def test_merge_concatenates_bookkeeping(self):
        first, second = DeltaGraph(), DeltaGraph()
        first.splits.append((0, 1))
        second.splits.append((1, 2))
        second.collected.append(7)
        first.merge(second)
        assert first.splits == [(0, 1), (1, 2)]
        assert first.collected == [7]

    def test_merge_carries_pending_records_across_a_split(self):
        """An add recorded before a split still holds for the half the
        later removal did not take; a sequential merge must equal the
        batch's own final-granularity aggregate."""
        rules = [Rule.forward(0, 0, 128, 1, "a", "b"),
                 Rule.forward(1, 0, 64, 2, "a", "c")]
        merged = DeltaNet(width=8).apply(rules)
        batched = DeltaNet(width=8).apply_batch(rules)
        assert merged.added == batched.added
        assert merged.removed == batched.removed == {}
        assert len(merged.added[Link("a", "b")]) == 1

    def test_merge_drops_records_of_a_recycled_id(self):
        """GC mode: the removal recorded for a collected atom must not
        cancel the add of the unrelated atom that recycles its id."""
        net = DeltaNet(width=8, gc=True)
        net.insert_rule(Rule.forward(0, 0, 128, 1, "b", "a"))
        net.insert_rule(Rule.forward(1, 64, 128, 1, "a", "b"))
        removal = net.remove_rule(1)
        insertion = net.insert_rule(Rule.forward(2, 192, 256, 1, "a", "b"))
        recycled, = removal.removed[Link("a", "b")]
        assert insertion.added[Link("a", "b")] == {recycled}
        removal.merge(insertion)
        assert removal.added == {Link("a", "b"): {recycled}}

    def test_touched_is_superset_of_affected(self):
        delta = DeltaGraph()
        delta.record_add(Link("a", "b"), 3)
        delta.splits.append((0, 5))
        delta.collected.append(9)
        assert delta.affected_atoms() == {3}
        assert delta.touched_atoms() == {3, 5, 9}
