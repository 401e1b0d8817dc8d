"""Speculative sessions: CoW forks must be indistinguishable from clones.

The tentpole correctness property, stated adversarially: for a random
base trace and ``k`` random candidate batches, every speculative child
must answer queries bit-identically to a fresh session built by
clone-then-apply (replay base + candidate from scratch), commits must
land exactly the child-observed state on the parent, discards must
leave no trace, and siblings of a committed child must refuse to answer
(:class:`StaleSpeculationError`) rather than answer stale.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    FlowsOn, LoopProperty, Loops, Reachable, StaleSpeculationError,
    VerificationSession,
)
from repro.core.rules import Rule

WIDTH = 8
NODES = ["a", "b", "c", "d"]
SPEC_BACKENDS = ["deltanet", "sharded", "parallel"]


def _options(backend):
    return {"force_inline": True, "shards": 2} if backend == "parallel" else {}


def _trace(rng, n_ops, rid_base=0):
    """A deterministic op list: mostly inserts, some removes of live rids."""
    ops, live = [], []
    for offset in range(n_ops):
        rid = rid_base + offset
        if live and rng.random() < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("-", victim))
            continue
        lo = rng.randrange(0, 250)
        hi = rng.randrange(lo + 1, 256)
        source = rng.choice(NODES)
        target = rng.choice([n for n in NODES if n != source])
        ops.append(("+", Rule.forward(rid, lo, hi, rng.randrange(1, 9),
                                      source, target)))
        live.append(rid)
    return ops


def _apply(session, ops):
    for kind, payload in ops:
        if kind == "+":
            session.insert(payload)
        else:
            session.remove(payload)


def _fingerprint(session):
    """Every queryable currency, normalized for == across sessions."""
    links = sorted(set(session.links()), key=repr)
    return {
        "loops": sorted(session.query(Loops()).violations, key=repr),
        "flows": {link: [tuple(span) for span in
                         session.query(FlowsOn(link)).spans]
                  for link in links},
        "reach": {(src, dst): [tuple(span) for span in
                               session.query(Reachable(src, dst)).spans]
                  for src in NODES for dst in NODES if src != dst},
        "holes": {node: [tuple(span) for span in spans]
                  for node, spans in session.find_blackholes().items()},
        "rules": sorted(session.rules()),
    }


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31), backend=st.sampled_from(SPEC_BACKENDS),
       k=st.integers(1, 3))
def test_speculative_children_match_clone_then_apply(seed, backend, k):
    rng = random.Random(seed)
    base = _trace(rng, rng.randrange(4, 14))
    candidates = [_trace(rng, rng.randrange(1, 6), rid_base=100 * (i + 1))
                  for i in range(k)]
    parent = VerificationSession(backend, width=WIDTH, **_options(backend))
    try:
        parent.watch(LoopProperty())
        _apply(parent, base)
        before = _fingerprint(parent)
        children = [parent.speculate() for _ in range(k)]
        try:
            for child, candidate in zip(children, candidates):
                _apply(child, candidate)
            # Each child == a fresh clone replaying base + its candidate.
            for child, candidate in zip(children, candidates):
                clone = VerificationSession(backend, width=WIDTH,
                                            **_options(backend))
                try:
                    _apply(clone, base)
                    _apply(clone, candidate)
                    assert _fingerprint(child) == _fingerprint(clone)
                finally:
                    clone.close()
            # The parent never saw any of it.
            assert _fingerprint(parent) == before
            # Commit one winner; its effects land exactly; siblings stale.
            winner = rng.randrange(k)
            expected = _fingerprint(children[winner])
            children[winner].commit()
            assert _fingerprint(parent) == expected
            for index, child in enumerate(children):
                if index == winner:
                    continue
                with pytest.raises(StaleSpeculationError):
                    child.query(Loops())
        finally:
            for child in children:
                child.discard()
        # Discarded children changed nothing beyond the committed ops.
        assert _fingerprint(parent) == expected
    finally:
        parent.close()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31), backend=st.sampled_from(SPEC_BACKENDS))
def test_discard_is_invisible_and_parent_update_stales_children(seed, backend):
    rng = random.Random(seed)
    parent = VerificationSession(backend, width=WIDTH, **_options(backend))
    try:
        _apply(parent, _trace(rng, rng.randrange(3, 10)))
        before = _fingerprint(parent)
        child = parent.speculate()
        _apply(child, _trace(rng, rng.randrange(1, 5), rid_base=500))
        child.discard()
        assert _fingerprint(parent) == before
        child2 = parent.speculate()
        parent.insert(Rule.forward(900, 0, 64, 1, "a", "b"))
        with pytest.raises(StaleSpeculationError):
            child2.insert(Rule.forward(901, 0, 64, 1, "b", "c"))
        child2.discard()
    finally:
        parent.close()


class TestSpeculationUnit:
    def test_clone_fallback_backends_speculate(self):
        for backend in ("veriflow", "apv", "netplumber"):
            parent = VerificationSession(backend, width=WIDTH)
            parent.insert(Rule.forward(0, 0, 128, 1, "a", "b"))
            child = parent.speculate()
            child.insert(Rule.forward(1, 0, 128, 1, "b", "a"))
            assert len(child.query(Loops()).violations) == 1
            assert not parent.query(Loops()).violations
            child.commit()
            assert len(parent.query(Loops()).violations) == 1
            parent.close()

    def test_commit_returns_parent_results_and_buffered_ops_order(self):
        parent = VerificationSession("deltanet", width=WIDTH)
        parent.insert(Rule.forward(0, 0, 128, 1, "a", "b"))
        child = parent.speculate()
        child.apply_batch([Rule.forward(1, 0, 128, 1, "b", "c")], [0])
        ops = child.buffered_ops()
        assert [op.kind for op in ops] == ["-", "+"]  # removals first
        results = child.commit()
        assert len(results) == 2
        assert sorted(parent.rules()) == [1]
        parent.close()

    def test_save_refused_and_double_commit_stale(self):
        parent = VerificationSession("deltanet", width=WIDTH)
        child = parent.speculate()
        with pytest.raises(RuntimeError):
            child.save("/tmp/nope")
        child.insert(Rule.forward(0, 0, 128, 1, "a", "b"))
        child.commit()
        with pytest.raises(StaleSpeculationError):
            child.commit()
        parent.close()
