"""The batched update path through the unified API.

``BackendAdapter.apply_batch`` must land every backend in exactly the
state that per-op updates produce, ``VerificationSession.apply_batch``
must deliver the same property verdicts as per-op sessions (modulo
transient violations that an aggregated batch legitimately cancels), and
the batched replay path must agree with sequential replay end-state.
"""

import random

import pytest

from repro.api import (
    BackendBatch, LoopProperty, VerificationSession, available_backends,
    create_backend,
)
from repro.core.intervals import IntervalSet
from repro.core.rules import Rule
from repro.query import FlowsOn, Loops

from tests.conftest import random_rules


def backend_flow_state(backend):
    return {link: tuple(backend.flows_on(link))
            for link in backend.links() if backend.flows_on(link)}


def make_workload(seed, count=24):
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=8, switches=4, drop_fraction=0.1)
    removals = [rules[i].rid for i in
                rng.sample(range(count), count // 4)]
    return rules, removals


NATIVE_BATCH = ("deltanet",)
FALLBACK = ("veriflow", "apv", "netplumber")


class TestBackendApplyBatch:
    @pytest.mark.parametrize("name", sorted(available_backends()))
    def test_matches_per_op_state(self, name):
        rules, removals = make_workload(3, count=18)
        sequential = create_backend(name, width=8)
        batched = create_backend(name, width=8)
        for rule in rules:
            sequential.insert(rule)
        for rid in removals:
            sequential.remove(rid)
        batched.apply_batch(rules)          # one insert batch
        batched.apply_batch((), removals)   # one removal batch
        assert backend_flow_state(sequential) == backend_flow_state(batched)
        assert sequential.rules() == batched.rules()
        assert sorted(map(repr, sequential.find_loops())) == \
            sorted(map(repr, batched.find_loops()))
        sequential.close(), batched.close()

    @pytest.mark.parametrize("name", NATIVE_BATCH)
    def test_native_batch_capability(self, name):
        backend = create_backend(name, width=8)
        assert backend.supports_batch
        backend.close()

    @pytest.mark.parametrize("name", FALLBACK)
    def test_fallback_batch_capability(self, name):
        backend = create_backend(name, width=8)
        assert not backend.supports_batch
        batch = backend.apply_batch(
            [Rule.forward(0, 0, 64, 1, "a", "b")])
        assert isinstance(batch, BackendBatch)
        assert backend.num_rules == 1

    def test_veriflow_nocheck_reports_loops_none(self):
        """check_loops=False must report loops=None (sweep-fallback
        signal), and --no-check must actually reach the backend."""
        backend = create_backend("veriflow", width=8, check_loops=False)
        update = backend.insert(Rule.forward(0, 0, 64, 1, "a", "b"))
        assert update.loops is None
        from repro.replay.engine import SessionEngine

        engine = SessionEngine("veriflow", width=8, check_loops=False)
        assert engine.session.backend._check_loops is False

    def test_batch_validation_rejects_upfront(self):
        backend = create_backend("deltanet", width=8)
        backend.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
        with pytest.raises(ValueError):
            backend.apply_batch([Rule.forward(0, 0, 8, 2, "a", "c")])
        with pytest.raises(KeyError):
            backend.apply_batch((), [5])
        assert backend.num_rules == 1

    def test_remove_and_reinsert_same_rid_in_one_batch(self):
        backend = create_backend("deltanet", width=8)
        backend.insert(Rule.forward(3, 0, 32, 1, "a", "b"))
        batch = backend.apply_batch(
            [Rule.forward(3, 0, 32, 1, "a", "c")], [3])
        assert [(u.rid, u.inserted) for u in batch.updates] == \
            [(3, False), (3, True)]
        assert backend.rules()[3].target == "c"


class TestSessionApplyBatch:
    def test_loop_violation_delivered_once_per_batch(self):
        session = VerificationSession("deltanet", width=8,
                                      properties=(LoopProperty(),))
        rules = [Rule.forward(i, 0, 256, 1, f"s{i}", f"s{(i + 1) % 3}")
                 for i in range(3)]
        result = session.apply_batch(rules)
        assert result.num_ops == 3
        assert len(result.violations) == 1
        assert result.latency > 0
        # per-op records carry the amortized batch time
        assert all(op.seconds == result.ops[0].seconds for op in result.ops)

    def test_end_state_matches_per_op_session(self):
        rules, removals = make_workload(7)
        one_by_one = VerificationSession("deltanet", width=8,
                                         properties=(LoopProperty(),))
        batched = VerificationSession("deltanet", width=8,
                                      properties=(LoopProperty(),))
        for rule in rules:
            one_by_one.insert(rule)
        for rid in removals:
            one_by_one.remove(rid)
        batched.apply_batch(rules)
        batched.apply_batch((), removals)
        for link in one_by_one.links():
            assert batched.query(FlowsOn(link)).spans \
                == one_by_one.query(FlowsOn(link)).spans
        assert sorted(map(repr, batched.query(Loops()).violations)) == \
            sorted(map(repr, one_by_one.query(Loops()).violations))
        assert batched.find_blackholes() == one_by_one.find_blackholes()

    def test_merged_delta_reaches_the_result(self):
        session = VerificationSession("deltanet", width=8)
        result = session.apply_batch(
            [Rule.forward(0, 0, 64, 1, "a", "b"),
             Rule.forward(1, 0, 64, 9, "a", "b")])
        assert result.delta is not None
        spans = IntervalSet()
        for atoms in result.delta.added.values():
            spans |= IntervalSet(
                session.native.atoms.atom_interval(a) for a in atoms)
        assert spans.spans == [(0, 64)]

    def test_apply_batch_inside_batch_rejected(self):
        session = VerificationSession("deltanet", width=8)
        with session.batch():
            with pytest.raises(RuntimeError):
                session.apply_batch([Rule.forward(0, 0, 8, 1, "a", "b")])

    def test_duck_typed_backend_without_batch_capability(self):
        class Minimal:
            """Bare adapter surface, no apply_batch."""

            name = "minimal"
            width = 8

            def __init__(self):
                from repro.api.backends import DeltaNetBackend

                self._inner = DeltaNetBackend(width=8)

            def insert(self, rule):
                return self._inner.insert(rule)

            def remove(self, rid):
                return self._inner.remove(rid)

            def flows_on(self, link):
                return self._inner.flows_on(link)

            def links(self):
                return self._inner.links()

        session = VerificationSession(Minimal())
        result = session.apply_batch([Rule.forward(0, 0, 64, 1, "a", "b")])
        assert result.num_ops == 1
        assert session.query(FlowsOn(("a", "b"))).spans == [(0, 64)]

    def test_veriflow_nocheck_still_reports_loops_via_sweep(self):
        """With native checking off the backend must report loops=None,
        so a watched LoopProperty falls back to the full sweep instead of
        trusting an empty 'checked, clean' result."""
        with VerificationSession("veriflow", width=8, check_loops=False,
                                 properties=(LoopProperty(),)) as session:
            rules = [Rule.forward(i, 0, 256, 1, f"s{i}", f"s{(i + 1) % 3}")
                     for i in range(3)]
            result = session.apply_batch(rules)
            assert len(result.violations) == 1
            per_op = VerificationSession("veriflow", width=8,
                                         check_loops=False,
                                         properties=(LoopProperty(),))
            for rule in rules:
                per_op.insert(rule)
            assert len(per_op.violations()) == 1
            per_op.close()


class TestBatchedReplay:
    def test_batched_replay_matches_sequential_end_state(self):
        from repro.datasets.builders import build_dataset
        from repro.replay.engine import make_engine, replay

        ops = build_dataset("4Switch", scale=0.3).ops
        sequential = make_engine("deltanet")
        batched = make_engine("deltanet")
        r_seq = replay(ops, sequential)
        r_bat = replay(ops, batched, batch_size=64)
        assert r_bat.num_ops == r_seq.num_ops == len(ops)
        assert len(r_bat.times) == len(ops)
        for link in sequential.session.links():
            assert batched.session.query(FlowsOn(link)).spans == \
                sequential.session.query(FlowsOn(link)).spans
        assert batched.session.query(Loops()).violations \
            == sequential.session.query(Loops()).violations

    def test_iter_batches_splits_conflicts(self):
        from repro.datasets.format import Op
        from repro.replay.engine import iter_batches

        r = [Rule.forward(i, 0, 16, i + 1, "a", "b") for i in range(4)]
        stream = [Op.insert(r[0]), Op.insert(r[1]), Op.remove(1),
                  Op.insert(r[2]), Op.remove(0), Op.insert(r[3])]
        batches = list(iter_batches(stream, 100))
        # remove(1) follows insert(1) -> flush; remove(0) follows the
        # earlier batch's insert(0), fine; no further conflicts.
        assert [[op.kind + str(op.rid) for op in b] for b in batches] == \
            [["+0", "+1"], ["-1", "+2", "-0", "+3"]]
        for size in (1, 2, 3):
            chunks = list(iter_batches(stream, size))
            assert [op for chunk in chunks for op in chunk] == stream
            assert all(len(chunk) <= size for chunk in chunks)

    def test_batched_replay_equals_sequential_on_conflicting_stream(self):
        from repro.datasets.format import Op
        from repro.replay.engine import make_engine, replay

        rng = random.Random(11)
        rules = random_rules(rng, 30, width=8, switches=3)
        stream, live = [], []
        for rule in rules:
            stream.append(Op.insert(rule))
            live.append(rule.rid)
            if live and rng.random() < 0.5:
                stream.append(Op.remove(live.pop(rng.randrange(len(live)))))
        sequential = make_engine("deltanet")
        batched = make_engine("deltanet")
        replay(stream, sequential)
        replay(stream, batched, batch_size=7)
        for link in sequential.session.links():
            assert batched.session.query(FlowsOn(link)).spans == \
                sequential.session.query(FlowsOn(link)).spans
