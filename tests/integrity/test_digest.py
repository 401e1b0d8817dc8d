"""Order-independent state digests: algebra, wiring, cross-checks."""

import random

import pytest

from repro.core.deltanet import DeltaNet
from repro.core.rules import Link, Rule
from repro.integrity import (
    combine_digests, digests_enabled, format_digest, parse_digest,
    rules_digest,
)
from repro.integrity.digest import (
    BoundaryDigest, DigestAccumulator, LabelDigest, mix64,
)

from tests.conftest import random_rules


class TestAccumulatorAlgebra:
    def test_include_is_order_independent(self):
        values = [mix64(n) for n in range(50)]
        forward, backward = DigestAccumulator(), DigestAccumulator()
        for value in values:
            forward.include(value)
        for value in reversed(values):
            backward.include(value)
        assert forward == backward

    def test_exclude_inverts_include(self):
        acc = DigestAccumulator()
        baseline = acc.as_tuple()
        for value in (mix64(n) for n in range(20)):
            acc.include(value)
        for value in (mix64(n) for n in range(20)):
            acc.exclude(value)
        assert acc.as_tuple() == baseline

    def test_multiset_not_set(self):
        # The same entry twice is distinguishable from once: the count
        # and sum components move even though xor cancels.
        once, twice = DigestAccumulator(), DigestAccumulator()
        once.include(mix64(7))
        twice.include(mix64(7))
        twice.include(mix64(7))
        assert once != twice


class TestLabelAndBoundaryDigests:
    def test_label_add_remove_roundtrip(self):
        digest = LabelDigest()
        empty = digest.as_tuple()
        link = Link("a", "b")
        for atom in (1, 5, 9):
            digest.add(link, atom)
        for atom in (9, 1, 5):
            digest.remove(link, atom)
        assert digest.as_tuple() == empty

    def test_add_runs_equals_individual_adds(self):
        link = Link("s1", "s2")
        runs_form, singles = LabelDigest(), LabelDigest()
        runs_form.add_runs(link, [(2, 5), (9, 11)])
        for atom in (2, 3, 4, 9, 10):
            singles.add(link, atom)
        assert runs_form.as_tuple() == singles.as_tuple()

    def test_same_atom_on_different_links_differs(self):
        one, other = LabelDigest(), LabelDigest()
        one.add(Link("a", "b"), 3)
        other.add(Link("b", "a"), 3)
        assert one.as_tuple() != other.as_tuple()

    def test_boundary_entries_are_position_sensitive(self):
        one, other = BoundaryDigest(), BoundaryDigest()
        one.add(10, 2)
        other.add(2, 10)
        assert one.as_tuple() != other.as_tuple()


class TestDigestStrings:
    def test_format_parse_roundtrip(self):
        text = format_digest("xorsum1", [(3, 0xDEAD, 0xBEEF), (1, 2, 3)])
        scheme, parts = parse_digest(text)
        assert scheme == "xorsum1"
        assert parts == [(3, 0xDEAD, 0xBEEF), (1, 2, 3)]

    @pytest.mark.parametrize("junk", [
        "", "xorsum1", "xorsum1:1.2", "xorsum1:x.y.z", "nocolonhere",
        "xorsum1:1.2.3.4",
    ])
    def test_parse_rejects_junk(self, junk):
        with pytest.raises(ValueError):
            parse_digest(junk)

    def test_combine_is_componentwise(self):
        a = format_digest("xorsum1", [(1, 0b1010, 5)])
        b = format_digest("xorsum1", [(2, 0b0110, 7)])
        combined = combine_digests([a, b])
        assert parse_digest(combined)[1] == [(3, 0b1100, 12)]

    def test_combine_propagates_none(self):
        a = format_digest("xorsum1", [(1, 2, 3)])
        assert combine_digests([a, None]) is None
        assert combine_digests([]) is None

    def test_combine_rejects_mixed_schemes(self):
        a = format_digest("xorsum1", [(1, 2, 3)])
        b = format_digest("rules1", [(1, 2, 3)])
        with pytest.raises(ValueError):
            combine_digests([a, b])

    def test_rules_digest_is_order_independent(self):
        rules = random_rules(random.Random(3), 12, width=8, switches=4)
        states = [rule.to_state() for rule in rules]
        assert rules_digest(states) == rules_digest(reversed(states))
        assert rules_digest(states) != rules_digest(states[1:])


class TestDeltaNetDigest:
    def test_digest_is_deterministic_across_builds(self):
        # Atom identities depend on creation order, so the digest is a
        # fingerprint of the *representation*: identical op sequences
        # must digest identically (that is what snapshot trailers and
        # worker audits compare), and with GC a fully retracted rule
        # returns the representation — and the digest — to its prior
        # value.
        rules = random_rules(random.Random(7), 20, width=8, switches=4)
        one, other = DeltaNet(width=8), DeltaNet(width=8)
        one.apply(rules, ())
        other.apply(rules, ())
        assert one.state_digest() == other.state_digest()

        collected = DeltaNet(width=8, gc=True)
        collected.apply(rules, ())
        before = collected.state_digest()
        extra = Rule.forward(999, 0, 64, 3, "x", "y")
        collected.apply([extra], ())
        assert collected.state_digest() != before
        collected.apply((), [999])
        assert collected.state_digest() == before

    def test_mutation_moves_the_digest(self):
        net = DeltaNet(width=8)
        rules = random_rules(random.Random(9), 10, width=8, switches=4)
        net.apply(rules, ())
        before = net.state_digest()
        net.apply((), [rules[0].rid])
        assert net.state_digest() != before

    def test_live_digest_matches_recomputation(self):
        net = DeltaNet(width=8)
        rng = random.Random(11)
        rules = random_rules(rng, 30, width=8, switches=5)
        alive = []
        for rule in rules:
            net.apply([rule], ())
            alive.append(rule.rid)
            if len(alive) > 5 and rng.random() < 0.3:
                net.apply((), [alive.pop(rng.randrange(len(alive)))])
        assert net.state_digest() == net.recompute_state_digest()

    def test_restore_preserves_the_digest(self):
        net = DeltaNet(width=8)
        net.apply(random_rules(random.Random(13), 15, width=8, switches=4),
                  ())
        clone = DeltaNet.from_state(net.state_dict())
        assert clone.state_digest() == net.state_digest()

    def test_disabled_digests_return_none(self, monkeypatch):
        monkeypatch.setenv("DELTANET_DIGESTS", "0")
        assert not digests_enabled()
        net = DeltaNet(width=8)
        net.apply(random_rules(random.Random(1), 5, width=8, switches=3),
                  ())
        assert net.state_digest() is None
        # Recomputation still works — it never depends on the live
        # accumulators, so audits can run even on digest-free nets.
        assert net.recompute_state_digest() is not None


class TestBackendDigests:
    def test_generic_backend_rules_digest(self):
        from repro.api.registry import create_backend

        backend = create_backend("deltanet", width=8)
        rules = random_rules(random.Random(5), 8, width=8, switches=4)
        for rule in rules:
            backend.insert(rule)
        # The generic adapter path digests the rule store; it must be
        # stable across calls and sensitive to membership.
        from repro.api.registry import BackendAdapter

        generic = BackendAdapter.state_digest(backend)
        assert generic == BackendAdapter.state_digest(backend)
        backend.remove(rules[0].rid)
        assert BackendAdapter.state_digest(backend) != generic

    def test_session_digest_survives_snapshot_roundtrip(self):
        import io

        from repro.api.properties import LoopProperty
        from repro.api.session import VerificationSession
        from repro.persist.snapshot import load_session, save_session

        session = VerificationSession("deltanet", width=8,
                                      properties=[LoopProperty()])
        for rule in random_rules(random.Random(2), 10, width=8, switches=4):
            session.insert(rule)
        buffer = io.BytesIO()
        save_session(session, buffer)
        buffer.seek(0)
        restored = load_session(buffer)
        assert restored.state_digest() == session.state_digest()
        restored.close()
        session.close()
