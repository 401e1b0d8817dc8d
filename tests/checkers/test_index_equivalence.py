"""Index-backed checkers == sweep implementations, on randomized traces.

The acceptance property of the forwarding-index refactor: every checker
that now chases :class:`~repro.core.findex.ForwardingIndex` must return
results *identical* to the seed's rebuild-per-check sweeps (preserved in
:mod:`repro.checkers.sweep`) — for all five property types (loops,
blackholes, reachability, waypoint, isolation) and across ``deltanet``
with and without atom garbage collection.
"""

import random

import pytest

from repro.api import (
    BlackholeProperty, IsolationProperty, LoopProperty,
    ReachabilityProperty, VerificationSession, WaypointProperty,
)
from repro.checkers import sweep
from repro.checkers.blackholes import find_blackholes
from repro.checkers.isolation import check_isolation
from repro.checkers.loops import LoopChecker, find_forwarding_loops
from repro.checkers.reachability import reachable_atoms
from repro.checkers.waypoint import check_waypoint
from repro.core.deltanet import DeltaNet
from repro.query import Loops

from tests.conftest import random_rules

WIDTH = 8
SWITCHES = [f"s{i}" for i in range(5)]
SLICE_A = [(0, 64)]
SLICE_B = [(128, 224)]


def _random_trace(seed, count=70):
    """Deterministic interleaved insert/remove/batch op stream."""
    rng = random.Random(seed)
    pending = random_rules(rng, count, width=WIDTH, switches=len(SWITCHES),
                           drop_fraction=0.15)
    ops = []
    live = []
    while pending:
        roll = rng.random()
        if roll < 0.5 or not live:
            new_rule = pending.pop()
            live.append(new_rule.rid)
            ops.append(("insert", new_rule))
        elif roll < 0.8:
            ops.append(("remove", live.pop(rng.randrange(len(live)))))
        else:
            inserts = [pending.pop()
                       for _ in range(min(len(pending), rng.randrange(1, 5)))]
            removals = [live.pop(rng.randrange(len(live)))
                        for _ in range(min(len(live), rng.randrange(3)))]
            live.extend(rule.rid for rule in inserts)
            ops.append(("batch", inserts, removals))
    return ops


def _loop_keys(loops):
    return {(loop.atom, loop.cycle) for loop in loops}


class TestDeltaNetCheckersMatchSweeps:
    """The five checkers against their sweep twins, update by update."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gc", [False, True])
    def test_trace_equivalence(self, seed, gc):
        net = DeltaNet(width=WIDTH, gc=gc)
        checker = LoopChecker(net)
        rng = random.Random(0x1D0 + seed)
        for op in _random_trace(0xE0 + seed):
            if op[0] == "insert":
                delta = net.insert_rule(op[1])
            elif op[0] == "remove":
                delta = net.remove_rule(op[1])
            else:
                delta = net.apply_batch(op[1], op[2])
            # 1. loops — incremental check vs the seed's rebuild+chase.
            assert _loop_keys(checker.check_update(delta)) == \
                _loop_keys(sweep.sweep_check_update(net, delta))
            if rng.random() > 0.25:
                continue  # the full sweeps are O(state): sample them
            assert _loop_keys(find_forwarding_loops(net)) == \
                _loop_keys(sweep.sweep_find_forwarding_loops(net))
            # 2. blackholes.
            assert find_blackholes(net) == sweep.sweep_find_blackholes(net)
            # 3. reachability, 4. waypoint — over random endpoint picks.
            src, dst, via = rng.sample(SWITCHES, 3)
            assert reachable_atoms(net, src, dst) == \
                sweep.sweep_reachable_atoms(net, src, dst)
            assert check_waypoint(net, src, dst, via) == \
                sweep.sweep_check_waypoint(net, src, dst, via)
            # 5. isolation.
            assert check_isolation(net, SLICE_A, SLICE_B) == \
                sweep.sweep_check_isolation(net, SLICE_A, SLICE_B)


def _five_properties():
    return (LoopProperty(), BlackholeProperty(),
            ReachabilityProperty("s0", "s3"),
            WaypointProperty("s0", "s3", "s1"),
            IsolationProperty(SLICE_A, SLICE_B))


def _signature_log(session):
    # Sorted by repr: within one commit the iteration order of loop
    # cycles may differ across backends, but the delivered *set* of
    # alerts (and their multiplicity) must not.
    return sorted(repr(violation.signature)
                  for violation in session.violations())


class TestBackendsAgreeOnWatchedProperties:
    """deltanet with and without GC: same trace, same alerts."""

    @pytest.mark.parametrize("seed", range(3))
    def test_alert_streams_identical(self, seed):
        trace = _random_trace(0xBAC + seed, count=50)
        sessions = {
            "deltanet": VerificationSession("deltanet", width=WIDTH,
                                            properties=_five_properties()),
            "deltanet-gc": VerificationSession(
                "deltanet", width=WIDTH, gc=True,
                properties=_five_properties()),
        }
        try:
            for op in trace:
                for session in sessions.values():
                    if op[0] == "insert":
                        session.insert(op[1])
                    elif op[0] == "remove":
                        session.remove(op[1])
                    else:
                        session.apply_batch(op[1], op[2])
            logs = {name: _signature_log(session)
                    for name, session in sessions.items()}
            assert logs["deltanet-gc"] == logs["deltanet"]
            # One-shot checks on the final state agree too, and the
            # deltanet session's final state agrees with the sweeps.
            for prop in _five_properties():
                verdicts = {
                    name: sorted(repr(v.signature)
                                 for v in session.check(prop))
                    for name, session in sessions.items()}
                assert verdicts["deltanet-gc"] == verdicts["deltanet"]
            native = sessions["deltanet"].native
            assert {loop.cycle
                    for loop in sweep.sweep_find_forwarding_loops(native)} \
                == set(sessions["deltanet"].query(Loops()).violations)
            assert set(sweep.sweep_find_blackholes(native)) == \
                set(sessions["deltanet"].find_blackholes())
        finally:
            for session in sessions.values():
                session.close()
