"""ForwardingIndex: the edge labels and their digest."""

import random

from repro.core.deltanet import DeltaNet
from repro.core.findex import ForwardingIndex
from repro.core.rules import DROP, Link, Rule

from tests.conftest import label_scan_next_hop, random_rules


class TestStandalone:
    def test_add_registers_the_label(self):
        index = ForwardingIndex()
        link = Link("a", "b")
        index.add(link, 3)
        index.add(link, 4)
        assert set(index.by_link[link]) == {3, 4}
        assert index.by_link[link].num_runs == 1
        index.check_consistency()

    def test_discard_drops_empty_entries(self):
        index = ForwardingIndex()
        link = Link("a", "b")
        index.add(link, 3)
        index.discard(link, 3)
        assert link not in index.by_link
        index.check_consistency()

    def test_discard_unknown_is_noop(self):
        index = ForwardingIndex()
        index.discard(Link("a", "b"), 7)
        index.check_consistency()

    def test_from_labels_and_stats(self):
        index = ForwardingIndex.from_labels([
            (Link("a", "b"), [0, 1, 2]),
            (Link("b", "c"), [5]),
        ])
        stats = index.label_stats()
        assert stats == {"links": 2, "label_atoms": 4, "label_runs": 2}

    def test_apply_delta_mirrors_deltanet(self):
        net = DeltaNet(width=8)
        mirror = ForwardingIndex()
        rng = random.Random(0xF17)
        live = []
        for new_rule in random_rules(rng, 40, width=8):
            mirror.apply_delta(net.insert_rule(new_rule))
            live.append(new_rule.rid)
            if rng.random() < 0.4:
                mirror.apply_delta(
                    net.remove_rule(live.pop(rng.randrange(len(live)))))
            assert {link: set(runs) for link, runs in mirror.by_link.items()} \
                == {link: set(runs) for link, runs in net.label.items()}
            mirror.check_consistency()


class TestInsideDeltaNet:
    def test_label_aliases_index(self):
        net = DeltaNet(width=8)
        assert net.label is net.findex.by_link
        net.insert_rule(Rule.forward(0, 0, 64, 1, "s1", "s2"))
        assert set(net.findex.by_link) == {Link("s1", "s2")}
        net.check_invariants()

    def test_index_follows_batched_updates(self):
        net = DeltaNet(width=8)
        rng = random.Random(0xB0B)
        rules = random_rules(rng, 30, width=8)
        net.apply_batch(rules[:20], ())
        net.apply_batch(rules[20:], [rule.rid for rule in rules[:10]])
        net.check_invariants()
        # The labels agree with a from-scratch rebuild, run for run.
        rebuilt = ForwardingIndex.from_labels(
            (link, list(atoms)) for link, atoms in net.label.items())
        assert {link: runs.runs() for link, runs in rebuilt.by_link.items()} \
            == {link: runs.runs() for link, runs in net.findex.by_link.items()}

    def test_next_hop_resolution(self):
        net = DeltaNet(width=8)
        net.insert_rule(Rule.forward(0, 0, 64, 1, "a", "b"))
        net.insert_rule(Rule.forward(1, 64, 128, 1, "a", "c"))
        net.insert_rule(Rule.drop(2, 128, 192, 1, "a"))
        at = net.atoms.atom_at
        assert net.next_hop("a", at(0)) == "b"
        assert net.next_hop("a", at(64)) == "c"
        assert net.next_hop("a", at(128)) == DROP
        assert net.next_hop("a", at(192)) is None
        assert net.next_hop("a", 99) is None
        assert net.next_hop("unknown", at(0)) is None

    def test_next_hop_reads_current_state(self):
        # No per-check cache stands between a chase and the owners: the
        # hop changes with the very next update.
        net = DeltaNet(width=8)
        net.insert_rule(Rule.forward(0, 0, 256, 1, "a", "b"))
        assert net.next_hop("a", 0) == "b"
        net.insert_rule(Rule.forward(1, 0, 256, 2, "a", "c"))
        assert net.next_hop("a", 0) == "c"
        net.remove_rule(1)
        assert net.next_hop("a", 0) == "b"
        net.remove_rule(0)
        assert net.next_hop("a", 0) is None

    def test_next_hop_matches_owner_rule(self):
        net = DeltaNet(width=8)
        rng = random.Random(0xCAFE)
        for new_rule in random_rules(rng, 50, width=8):
            net.insert_rule(new_rule)
        for atom, (lo, _hi) in net.atoms.intervals():
            for source in list(net.nodes):
                owner = net.owner_rule(atom, source)
                expected = owner.target if owner is not None else None
                assert net.next_hop(source, atom) == expected
                assert label_scan_next_hop(net, source, atom) == expected
