"""Property-based testing of the atom-GC path (§3.2.2 remark).

A ``DeltaNet(gc=True)`` instance runs the same interleaved stream of
single-op and batched updates as a ``gc=False`` twin.  Garbage
collection may merge atoms and recycle identifiers (so raw atom ids
diverge), but the *semantics* must not move: every link carries exactly
the same packet space, the forwarding index stays consistent with the
labels, and the per-update loop verdicts agree.  This exercises
``DeltaNet._collect_atom`` under both ``remove_rule`` and the batched
``apply_batch`` removal phase.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.checkers.loops import LoopChecker, find_forwarding_loops
from repro.core.deltanet import DeltaNet
from repro.core.rules import Rule

from tests.conftest import deltanet_label_intervals, random_rules

WIDTH = 5
SPACE = 1 << WIDTH
SWITCHES = ("s0", "s1", "s2")


def _assert_twins_agree(gc_net: DeltaNet, plain_net: DeltaNet) -> None:
    """Semantic equivalence: flows, loops, index consistency."""
    assert deltanet_label_intervals(gc_net) == \
        deltanet_label_intervals(plain_net)
    gc_net.check_invariants()      # includes findex.check_consistency()
    plain_net.check_invariants()
    gc_loops = {loop.cycle for loop in find_forwarding_loops(gc_net)}
    plain_loops = {loop.cycle for loop in find_forwarding_loops(plain_net)}
    assert gc_loops == plain_loops


class GcTwinMachine(RuleBasedStateMachine):
    """gc=True and gc=False twins fed identical update streams."""

    @initialize()
    def setup(self):
        self.gc_net = DeltaNet(width=WIDTH, gc=True)
        self.plain_net = DeltaNet(width=WIDTH, gc=False)
        self.live = []
        self.next_rid = 0
        self.next_priority = 0

    def _new_rule(self, lo, span, source, target_switch, drop):
        hi = min(lo + span, SPACE)
        rid = self.next_rid
        self.next_rid += 1
        priority = self.next_priority
        self.next_priority += 1
        if drop:
            return Rule.drop(rid, lo, hi, priority, source)
        if target_switch == source:
            target_switch = SWITCHES[(SWITCHES.index(source) + 1) % 3]
        return Rule.forward(rid, lo, hi, priority, source, target_switch)

    @rule(lo=st.integers(0, SPACE - 1), span=st.integers(1, SPACE),
          source=st.sampled_from(SWITCHES),
          target_switch=st.sampled_from(SWITCHES), drop=st.booleans())
    def insert_single(self, lo, span, source, target_switch, drop):
        new_rule = self._new_rule(lo, span, source, target_switch, drop)
        self.gc_net.insert_rule(new_rule)
        self.plain_net.insert_rule(new_rule)
        self.live.append(new_rule.rid)

    @rule(index=st.integers(0, 1 << 30))
    def remove_single(self, index):
        if not self.live:
            return
        rid = self.live.pop(index % len(self.live))
        self.gc_net.remove_rule(rid)
        self.plain_net.remove_rule(rid)

    @rule(specs=st.lists(
        st.tuples(st.integers(0, SPACE - 1), st.integers(1, SPACE),
                  st.sampled_from(SWITCHES), st.sampled_from(SWITCHES),
                  st.booleans()),
        min_size=0, max_size=4),
        removal_picks=st.lists(st.integers(0, 1 << 30), max_size=3))
    def batched(self, specs, removal_picks):
        removals = []
        for pick in removal_picks:
            if not self.live:
                break
            removals.append(self.live.pop(pick % len(self.live)))
        inserts = [self._new_rule(*spec) for spec in specs]
        self.gc_net.apply_batch(inserts, removals)
        self.plain_net.apply_batch(inserts, removals)
        self.live.extend(rule.rid for rule in inserts)

    @invariant()
    def twins_agree(self):
        if not hasattr(self, "gc_net"):
            return
        _assert_twins_agree(self.gc_net, self.plain_net)

    @invariant()
    def gc_actually_bounds_atoms(self):
        if not hasattr(self, "gc_net"):
            return
        # With GC on, only boundaries referenced by live rules survive.
        assert self.gc_net.num_atoms <= 2 * self.gc_net.num_rules + 1


TestGcTwinStateful = GcTwinMachine.TestCase
TestGcTwinStateful.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None)


class TestGcRandomizedTraces:
    """Deterministic randomized traces — denser than the state machine."""

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_stream_keeps_twins_equivalent(self, seed):
        rng = random.Random(0x6C0 + seed)
        gc_net = DeltaNet(width=8, gc=True)
        plain_net = DeltaNet(width=8, gc=False)
        gc_checker = LoopChecker(gc_net)
        plain_checker = LoopChecker(plain_net)
        rules = random_rules(rng, 60, width=8, switches=4)
        live = []
        pending = list(rules)
        while pending or live:
            roll = rng.random()
            if pending and (roll < 0.45 or not live):
                new_rule = pending.pop()
                gc_delta = gc_net.insert_rule(new_rule)
                plain_delta = plain_net.insert_rule(new_rule)
                live.append(new_rule.rid)
            elif roll < 0.75 and live:
                rid = live.pop(rng.randrange(len(live)))
                gc_delta = gc_net.remove_rule(rid)
                plain_delta = plain_net.remove_rule(rid)
            else:
                inserts = [pending.pop()
                           for _ in range(min(len(pending), rng.randrange(4)))]
                removals = [live.pop(rng.randrange(len(live)))
                            for _ in range(min(len(live), rng.randrange(3)))]
                gc_delta = gc_net.apply_batch(inserts, removals)
                plain_delta = plain_net.apply_batch(inserts, removals)
                live.extend(rule.rid for rule in inserts)
            # Per-update verdicts are *sound* in each twin: every loop an
            # incremental check reports is genuinely live in its net.
            # (The two twins' per-update reports may legitimately differ:
            # GC recycles atom ids, so a pre-existing loop can resurface
            # in one twin's delta-graph as a fresh (link, atom) add while
            # the other twin's label never changed.)
            for net, checker, delta in ((gc_net, gc_checker, gc_delta),
                                        (plain_net, plain_checker,
                                         plain_delta)):
                reported = {loop.cycle for loop in checker.check_update(delta)}
                live_cycles = {loop.cycle
                               for loop in find_forwarding_loops(net)}
                assert reported <= live_cycles
            if rng.random() < 0.2:
                _assert_twins_agree(gc_net, plain_net)
        _assert_twins_agree(gc_net, plain_net)
        # Everything was removed: GC must have collapsed the atom table
        # back to the initial single atom, and all labels must be gone.
        assert gc_net.num_atoms == 1
        assert not gc_net.label
