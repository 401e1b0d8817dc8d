"""VerificationSession: updates, batches, subscriptions, queries."""

import pytest

from repro.api import (
    BlackholeProperty, LoopProperty, ReachabilityProperty, UpdateResult,
    VerificationSession, available_backends,
)
from repro.core.rules import Action, Rule
from repro.query import FlowsOn, LinkDown, Loops, Reachable


def ring(width=8):
    return [
        Rule.forward(0, 0, 16, 1, "s1", "s2"),
        Rule.forward(1, 0, 16, 1, "s2", "s3"),
        Rule.forward(2, 0, 16, 1, "s3", "s1"),
    ]


class TestUpdates:
    def test_insert_returns_result_with_latency(self):
        session = VerificationSession("deltanet", width=8)
        result = session.insert(ring()[0])
        assert isinstance(result, UpdateResult)
        assert result.num_ops == 1
        assert result.ops[0].kind == "+" and result.ops[0].rid == 0
        assert result.latency > 0
        assert result.backend == "deltanet"

    def test_deltanet_result_carries_delta(self):
        session = VerificationSession("deltanet", width=8)
        result = session.insert(ring()[0])
        assert result.delta is not None and result.delta.added

    def test_remove(self):
        session = VerificationSession("deltanet", width=8)
        session.insert(ring()[0])
        result = session.remove(0)
        assert result.ops[0].kind == "-"
        assert session.num_rules == 0

    def test_apply_dataset_op(self):
        from repro.datasets.format import Op

        session = VerificationSession("deltanet", width=8)
        session.apply(Op.insert(ring()[0]))
        assert session.num_rules == 1
        session.apply(Op.remove(0))
        assert session.num_rules == 0

    def test_make_rule(self):
        session = VerificationSession("deltanet")
        rule = session.make_rule(7, "10.0.0.0/8", 5, "a", "b")
        assert rule.rid == 7 and rule.hi - rule.lo == 1 << 24
        drop = session.make_rule(8, "10.0.0.0/8", 9, "a", action=Action.DROP)
        assert drop.action is Action.DROP


class TestBatch:
    def test_batch_aggregates_one_result(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(LoopProperty())
        with session.batch() as txn:
            for rule in ring():
                record = session.insert(rule)
                assert not isinstance(record, UpdateResult)
        assert txn.result.num_ops == 3
        assert len(txn.result.ops) == 3
        assert all(op.seconds >= 0 for op in txn.result.ops)
        # The ring closes inside the batch: one loop violation delivered
        # on the aggregated result.
        assert [v.property_name for v in txn.result.violations] == ["loops"]

    def test_batch_equals_sequential_state(self):
        batched = VerificationSession("deltanet", width=8)
        sequential = VerificationSession("deltanet", width=8)
        rules = [Rule.forward(0, 0, 32, 1, "a", "b"),
                 Rule.forward(1, 16, 48, 2, "a", "c"),
                 Rule.forward(2, 0, 64, 1, "b", "c")]
        with batched.batch():
            for rule in rules:
                batched.insert(rule)
            batched.remove(1)
        seq_deltas = []
        for rule in rules:
            seq_deltas.append(sequential.insert(rule).delta)
        seq_deltas.append(sequential.remove(1).delta)
        for link in sequential.links():
            assert batched.query(FlowsOn(link)).spans \
                == sequential.query(FlowsOn(link)).spans
        assert batched.num_rules == sequential.num_rules
        # The merged delta-graph equals the in-order merge of the
        # per-op delta-graphs (adds cancelling removes).
        merged = seq_deltas[0]
        for delta in seq_deltas[1:]:
            merged.merge(delta)
        with batched.batch():
            pass  # empty batch is fine

    def test_batch_delta_merge_cancels(self):
        session = VerificationSession("deltanet", width=8)
        with session.batch() as txn:
            session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
            session.remove(0)
        assert txn.result.delta is not None
        assert txn.result.delta.is_empty()

    def test_single_op_delta_is_the_backends_and_batches_merge_a_copy(self):
        session = VerificationSession("deltanet", width=8)
        twin = VerificationSession("deltanet", width=8).backend
        first, *rest = ring()
        delta, expected = session.insert(first).delta, twin.insert(first).delta
        assert (delta.added, delta.removed, delta.splits) == (
            expected.added, expected.removed, expected.splits)
        with session.batch() as txn:
            for rule in rest:
                session.insert(rule)
        merged = txn.result.delta
        assert all(merged is not update.delta for update in txn.updates)
        assert merged.added == {**txn.updates[0].delta.added,
                                **txn.updates[1].delta.added}
        assert VerificationSession("veriflow", width=8).insert(
            first).delta is None

    def test_batches_do_not_nest(self):
        session = VerificationSession("deltanet", width=8)
        with session.batch():
            with pytest.raises(RuntimeError):
                with session.batch():
                    pass

    def test_failed_batch_propagates_and_resets(self):
        session = VerificationSession("deltanet", width=8)
        with pytest.raises(ValueError):
            with session.batch() as txn:
                session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
                session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))  # dup
        # The op applied before the error is still covered by the result.
        assert txn.result is not None and txn.result.num_ops == 1
        # The session is usable again (not stuck in batch mode).
        result = session.insert(Rule.forward(1, 0, 16, 1, "b", "c"))
        assert isinstance(result, UpdateResult)

    def test_failed_batch_still_delivers_violations(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(LoopProperty())
        with pytest.raises(KeyError):
            with session.batch() as txn:
                for rule in ring():
                    session.insert(rule)  # closes a loop...
                session.remove(99)        # ...then the batch fails
        assert [v.property_name for v in txn.result.violations] == ["loops"]
        assert session.violations() == txn.result.violations


class TestSubscriptions:
    def test_loop_property_fires_once(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(LoopProperty())
        violations = []
        for rule in ring():
            violations.extend(session.insert(rule).violations)
        assert len(violations) == 1
        assert violations[0].property_name == "loops"
        assert set(violations[0].data) == {"s1", "s2", "s3"}
        # Breaking and re-checking does not re-deliver (cumulative dedup).
        assert session.violations() == violations

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_reintroduced_loop_fires_again(self, backend):
        session = VerificationSession(backend, width=8)
        session.watch(LoopProperty())
        for rule in ring():
            session.insert(rule)
        assert len(session.violations()) == 1
        session.remove(2)                    # break the loop
        session.insert(ring()[2])            # ...and close it again
        assert len(session.violations()) == 2
        assert (session.violations()[0].signature
                == session.violations()[1].signature)

    def test_blackhole_property(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(BlackholeProperty())
        result = session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
        assert any(v.signature == ("blackhole", "b")
                   for v in result.violations)

    def test_expected_sinks_suppressed(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(BlackholeProperty(expected_sinks=["b"]))
        result = session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
        assert result.violations == []

    def test_reachability_property_clears_and_refires(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(ReachabilityProperty("a", "c"))
        # c not reachable yet: the very first update raises the alert.
        first = session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
        assert [v.property_name for v in first.violations] == ["reachability"]
        # Completing the path satisfies the property (and re-arms it).
        fixed = session.insert(Rule.forward(1, 0, 16, 1, "b", "c"))
        assert fixed.violations == []
        # Breaking the path again re-fires the same violation.
        broken = session.remove(1)
        assert [v.property_name for v in broken.violations] == ["reachability"]

    def test_unwatch(self):
        session = VerificationSession("deltanet", width=8)
        prop = session.watch(LoopProperty())
        session.unwatch(prop)
        for rule in ring():
            assert session.insert(rule).violations == []

    def test_properties_constructor_arg(self):
        session = VerificationSession("deltanet", width=8,
                                      properties=(LoopProperty(),))
        assert [p.name for p in session.properties] == ["loops"]

    def test_watch_rejects_non_property(self):
        session = VerificationSession("deltanet", width=8)
        with pytest.raises(TypeError):
            session.watch(object())

    def test_one_shot_check_has_no_dedup(self):
        session = VerificationSession("deltanet", width=8)
        for rule in ring():
            session.insert(rule)
        first = session.check(LoopProperty())
        second = session.check(LoopProperty())
        assert len(first) == len(second) == 1


class TestQueriesEveryBackend:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_uniform_query_surface(self, backend):
        session = VerificationSession(backend, width=8)
        for rule in ring()[:2]:
            session.insert(rule)
        assert session.query(FlowsOn(("s1", "s2"))).spans == [(0, 16)]
        assert session.query(Reachable("s1", "s3")).spans == [(0, 16)]
        assert session.query(LinkDown(("s1", "s2"))).spans == [(0, 16)]
        assert session.query(Loops()).violations == []
        assert ("s3" in session.find_blackholes())
        assert session.num_rules == 2
        assert session.stats()["rules"] == 2
        session.check_invariants()

    def test_backend_instance_accepted(self):
        from repro.api import create_backend

        backend = create_backend("deltanet", width=8)
        session = VerificationSession(backend)
        assert session.backend is backend
        with pytest.raises(ValueError):
            VerificationSession(backend, gc=True)

    def test_native_escape_hatch(self):
        from repro.core.deltanet import DeltaNet

        session = VerificationSession("deltanet", width=8)
        assert isinstance(session.native, DeltaNet)
