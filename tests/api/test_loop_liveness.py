"""Delta-driven loop liveness: same alerts as re-checking everything.

``LoopProperty`` decides which reported cycles a commit may have broken
from the ``removed`` links of its delta-graphs and asks the backend's
``cycle_alive`` about those only.  The reference kept here is the rule
it replaced — after *every* commit, re-derive the liveness of *every*
reported cycle in interval space — and the suite holds the two to the
same delivered stream, op for op, over every way a session can commit:
``apply``, ``session.batch()`` (hand-merged deltas, recycled atom ids),
``apply_batch``, speculation, and a snapshot round trip.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LoopProperty, VerificationSession, Violation
from repro.api.registry import BackendAdapter
from repro.core.intervals import IntervalSet
from repro.core.rules import Rule
from repro.datasets.format import Op
from repro.persist.snapshot import dumps_session
from tests.conftest import random_rules

WIDTH = 8
NODES = ["a", "b", "c"]
BACKENDS = {
    "deltanet": ("deltanet", {}),
    "deltanet-gc": ("deltanet", {"gc": True}),
    "sharded": ("sharded", {"shards": 2}),
}


class ReferenceLoopProperty:
    """The replaced rule: unfiltered interval-space liveness.

    No ``spec()``, so speculation deep-copies it instead of rebuilding
    the production class registered under the same name.
    """

    name = "loops"
    clears = True

    def __init__(self):
        self._reported = {}

    def state_dict(self):
        return {"reported": list(self._reported.items())}

    def load_state_dict(self, state):
        self._reported = dict(state["reported"])

    @staticmethod
    def _alive(backend, cycle):
        flow = None
        for index, node in enumerate(cycle):
            spans = IntervalSet(backend.flows_on(
                (node, cycle[(index + 1) % len(cycle)])))
            flow = spans if flow is None else flow & spans
            if not flow:
                return False
        return True

    def check(self, backend, commit):
        for signature, cycle in list(self._reported.items()):
            if not self._alive(backend, cycle):
                del self._reported[signature]
        for cycle in backend.loops_for_commit(commit.updates, commit.delta):
            signature = ("loop", cycle)
            if signature not in self._reported:
                self._reported[signature] = cycle
                yield Violation(self.name, signature, "loop", data=cycle)


# -- traces --------------------------------------------------------------------
#
# Steps are descriptors interpreted against the live rule set, so a
# shrunk trace stays valid: ("+", plen, slot, prio, src, dst) inserts a
# prefix rule under the next rule id; ("-", k) removes the k-th live
# rule; ("narrow", k) removes it and re-inserts its lower half on the
# same link (the recycled-atom-id shape under gc=True).

_insert = st.tuples(st.just("+"), st.integers(0, 4), st.integers(0, 15),
                    st.integers(1, 4), st.sampled_from(NODES),
                    st.sampled_from(NODES))
_remove = st.tuples(st.just("-"), st.integers(0, 63))
_narrow = st.tuples(st.just("narrow"), st.integers(0, 63))
_change = st.one_of(_insert, _insert, _remove, _narrow)
_changes = st.lists(_change, min_size=1, max_size=5)
_step = st.one_of(
    st.tuples(st.just("apply"), _changes),
    st.tuples(st.just("apply"), _changes),
    st.tuples(st.just("batch"), _changes),
    st.tuples(st.just("apply_batch"), _changes),
    st.tuples(st.just("commit"), _changes),
    st.tuples(st.just("discard"), _changes),
    st.tuples(st.just("reload"), st.none()),
)


class Trace:
    """Turns descriptors into ops, tracking the live rules by id."""

    def __init__(self):
        self.live = {}
        self.next_rid = 0

    def fork(self):
        other = Trace()
        other.live = dict(self.live)
        other.next_rid = self.next_rid
        return other

    def _insert(self, lo, hi, prio, src, dst):
        rule = Rule.forward(self.next_rid, lo, hi, prio, src, dst)
        self.next_rid += 1
        self.live[rule.rid] = rule
        return Op.insert(rule)

    def ops(self, change):
        if change[0] == "+":
            _kind, plen, slot, prio, src, dst = change
            if src == dst:
                return []
            span = 1 << (WIDTH - plen)
            lo = (slot * span) % (1 << WIDTH)
            return [self._insert(lo, lo + span, prio, src, dst)]
        if not self.live:
            return []
        rid = sorted(self.live)[change[1] % len(self.live)]
        rule = self.live.pop(rid)
        ops = [Op.remove(rid)]
        if change[0] == "narrow" and rule.hi - rule.lo > 1:
            ops.append(self._insert(rule.lo, (rule.lo + rule.hi) // 2,
                                    rule.priority, rule.source, rule.target))
        return ops


def _signatures(result):
    return [violation.signature for violation in result.violations]


def _commit_step(session, kind, ops):
    """Run ``ops`` as one step of ``kind``; the delivered signatures."""
    if kind == "apply":
        return [_signatures(session.apply(op)) for op in ops]
    if kind == "batch":
        with session.batch() as txn:
            for op in ops:
                session.apply(op)
        return [_signatures(txn.result)]
    if kind == "apply_batch":
        # Batch order is removals first: a rule the step both inserts
        # and removes never enters the batch.
        inserted = {op.rid for op in ops if op.is_insert}
        removed = {op.rid for op in ops if not op.is_insert}
        inserts = [op.rule for op in ops
                   if op.is_insert and op.rid not in removed]
        removals = [op.rid for op in ops
                    if not op.is_insert and op.rid not in inserted]
        return [_signatures(session.apply_batch(inserts, removals))]
    child = session.speculate()
    delivered = [_signatures(child.apply(op)) for op in ops]
    if kind == "commit":
        delivered += [_signatures(result) for result in child.commit()]
    else:
        child.discard()
    return delivered


def _reload(session, properties=None):
    restored = VerificationSession.load(
        io.BytesIO(dumps_session(session)), properties=properties)
    session.close()
    return restored


def _derived_index(prop):
    index = {}
    for signature, cycle in prop._reported.items():
        for source, target in zip(cycle, cycle[1:] + cycle[:1]):
            index.setdefault(source, {}).setdefault(
                target, set()).add(signature)
    return index


@pytest.mark.parametrize("config", sorted(BACKENDS))
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=14))
def test_delivered_stream_matches_unfiltered_interval_liveness(config, steps):
    backend, options = BACKENDS[config]
    subject = VerificationSession(backend, width=WIDTH,
                                  properties=[LoopProperty()], **options)
    reference = VerificationSession(backend, width=WIDTH,
                                    properties=[ReferenceLoopProperty()],
                                    **options)
    trace = Trace()
    try:
        for kind, payload in steps:
            if kind == "reload":
                before = dumps_session(subject)
                subject = _reload(subject)
                assert dumps_session(subject) == before
                reference = _reload(reference, [ReferenceLoopProperty()])
            else:
                # A discarded speculation leaves the live rules alone.
                scope = trace.fork() if kind == "discard" else trace
                ops = [op for change in payload for op in scope.ops(change)]
                assert (_commit_step(subject, kind, ops)
                        == _commit_step(reference, kind, ops))
            prop, = subject.properties
            ref_prop, = reference.properties
            assert set(prop._reported) == set(ref_prop._reported) == {
                ("loop", cycle) for cycle in subject.backend.find_loops()}
            assert prop._on_link == _derived_index(prop)
    finally:
        subject.close()
        reference.close()


# -- the two units the rule rests on --------------------------------------------


def _looping_session(backend="deltanet", **options):
    session = VerificationSession(backend, width=WIDTH,
                                  properties=[LoopProperty()], **options)
    session.insert(Rule.forward(0, 0, 64, 2, "a", "b"))
    session.insert(Rule.forward(1, 0, 64, 2, "b", "a"))
    assert [v.signature for v in session.violations()] == [
        ("loop", ("a", "b"))]
    return session


def _count_liveness_calls(session, monkeypatch):
    calls = []
    native = session.backend.cycle_alive

    def counted(cycle):
        calls.append(cycle)
        return native(cycle)

    monkeypatch.setattr(session.backend, "cycle_alive", counted)
    return calls


def test_commit_removing_no_flow_from_the_cycle_evaluates_nothing(monkeypatch):
    session = _looping_session()
    calls = _count_liveness_calls(session, monkeypatch)
    # New flow on a cycle link, a split of the looping atom, a shadowed
    # rule on a cycle switch, flow moved between links off the cycle.
    session.insert(Rule.forward(2, 64, 128, 1, "a", "b"))
    session.insert(Rule.forward(3, 0, 32, 1, "a", "c"))
    session.insert(Rule.forward(4, 128, 192, 1, "c", "a"))
    session.insert(Rule.forward(5, 128, 192, 3, "c", "b"))
    session.remove(3)
    with session.batch():
        session.insert(Rule.forward(6, 192, 256, 1, "b", "c"))
        session.remove(2)       # a->b loses [64:128), not the loop's atoms
    assert calls == [("a", "b")]
    del calls[:]
    # Half the loop's flow leaves a->b: one evaluation, still alive.
    session.insert(Rule.forward(7, 0, 32, 5, "a", "c"))
    assert calls == [("a", "b")]
    assert ("loop", ("a", "b")) in session.properties[0]._reported
    # The rest leaves: evaluated, forgotten, and alerted again on return.
    session.insert(Rule.forward(8, 32, 64, 5, "a", "c"))
    assert not session.properties[0]._reported
    assert not session.properties[0]._on_link
    result = session.remove(8)
    assert [v.signature for v in result.violations] == [("loop", ("a", "b"))]


@pytest.mark.parametrize("gc", [False, True])
def test_batch_reports_the_loop_on_the_half_a_later_split_kept(gc):
    session = VerificationSession("deltanet", width=WIDTH, gc=gc,
                                  properties=[LoopProperty()])
    session.insert(Rule.forward(0, 0, 256, 1, "b", "a"))
    with session.batch() as txn:
        session.insert(Rule.forward(1, 0, 128, 1, "a", "b"))
        session.insert(Rule.forward(2, 0, 64, 2, "a", "c"))   # splits [0:128)
    assert _signatures(txn.result) == [("loop", ("a", "b"))]


def test_recycled_atom_id_cannot_hide_the_link_that_lost_flow():
    """gc=True: the batch removes a->b's rule (its atom is collected),
    then re-inserts a->b elsewhere under the recycled id — the merged
    aggregate shows no removal on a->b; the per-op delta-graphs do."""
    session = VerificationSession("deltanet", width=WIDTH, gc=True,
                                  properties=[LoopProperty()])
    session.insert(Rule.forward(0, 0, 128, 1, "b", "a"))
    session.insert(Rule.forward(1, 64, 128, 1, "a", "b"))
    prop, = session.properties
    assert set(prop._reported) == {("loop", ("a", "b"))}
    with session.batch() as txn:
        session.remove(1)
        session.insert(Rule.forward(2, 192, 256, 1, "a", "b"))
    assert not txn.result.delta.removed
    assert not prop._reported
    assert _signatures(session.insert(Rule.forward(3, 0, 128, 1, "a", "b"))) \
        == [("loop", ("a", "b"))]


def test_witness_atom_is_a_hint_never_the_verdict(monkeypatch):
    """DeltaNetBackend.cycle_alive first follows the atom the loop was
    found for round the cycle; only once that atom has left does it
    intersect the labels, and a dead cycle's witness is dropped."""
    from repro.api import backends

    session = _looping_session()
    backend, cycle = session.backend, ("a", "b")
    intersected = []
    intersection = backends.cycle_alive

    def counted(findex, asked):
        intersected.append(asked)
        return intersection(findex, asked)

    monkeypatch.setattr(backends, "cycle_alive", counted)
    # The witness still loops: a chase answers, no label is read.
    assert set(backend._witness) == {cycle}
    assert backend.cycle_alive(cycle) and not intersected
    # Split the looping atom, then take the witness's half off a->b:
    # the hint fails, the intersection finds the other half.
    session.insert(Rule.forward(2, 0, 32, 1, "c", "d"))
    lo, hi = backend.native.atoms.atom_interval(backend._witness[cycle])
    assert (lo, hi) in [(0, 32), (32, 64)]
    session.insert(Rule.forward(3, lo, hi, 5, "a", "c"))
    assert intersected == [cycle]
    assert ("loop", cycle) in session.properties[0]._reported
    # The other half leaves too: dead, forgotten, the hint dropped.
    session.insert(Rule.forward(4, 32 - lo, 32 - lo + 32, 5, "a", "c"))
    assert intersected == [cycle, cycle]
    assert not session.properties[0]._reported and not backend._witness
    # A fork starts without hints and answers the same.
    session.remove(4)
    child = backend.speculate()
    assert backend._witness and not child._witness
    assert child.cycle_alive(cycle)


def test_backends_without_deltas_filter_by_updated_switch(monkeypatch):
    session = _looping_session("veriflow")
    calls = _count_liveness_calls(session, monkeypatch)
    session.insert(Rule.forward(2, 0, 64, 1, "c", "a"))
    assert calls == []
    session.insert(Rule.forward(3, 64, 128, 1, "a", "c"))
    assert calls == [("a", "b")]


@pytest.mark.parametrize("config", sorted(BACKENDS))
def test_generic_and_atom_space_liveness_agree(config, rng):
    backend, options = BACKENDS[config]
    session = VerificationSession(backend, width=WIDTH,
                                  properties=[LoopProperty()], **options)
    rules = random_rules(rng, 80, width=WIDTH, switches=4)
    for rule in rules:
        session.insert(rule)
    # Break some of the loops behind the property's back, so the
    # delivered cycles hold dead ones as well as live ones.
    for rule in rules[::3]:
        session.backend.remove(rule.rid)
    cycles = {violation.data for violation in session.violations()}
    verdicts = {cycle: session.backend.cycle_alive(cycle) for cycle in cycles}
    assert set(verdicts.values()) == {True, False}
    for cycle, alive in verdicts.items():
        assert BackendAdapter.cycle_alive(session.backend, cycle) == alive
    live = {cycle for cycle, alive in verdicts.items() if alive}
    assert live <= set(session.backend.find_loops())
