"""Property protocol: generic propagation vs the native checkers."""

import pytest

from repro.api import (
    IsolationProperty, LoopProperty, ReachabilityProperty,
    VerificationSession, WaypointProperty, available_backends,
    propagate_intervals,
)
from repro.core.rules import Rule
from repro.query import Loops, Reachable


def chain(session):
    """a -[0:16)-> b -[0:8)-> c, with b's upper half dying."""
    session.insert(Rule.forward(0, 0, 16, 1, "a", "b"))
    session.insert(Rule.forward(1, 0, 8, 1, "b", "c"))
    return session


class TestPropagateIntervals:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_matches_uniform_reachable(self, backend):
        session = chain(VerificationSession(backend, width=8))
        reached = propagate_intervals(session.backend, "a")
        assert reached["c"].spans \
            == session.query(Reachable("a", "c")).spans == [(0, 8)]

    def test_avoid_cuts_the_path(self):
        session = chain(VerificationSession("deltanet", width=8))
        reached = propagate_intervals(session.backend, "a", avoid=("b",))
        assert "c" not in reached


class TestWaypointProperty:
    def test_matches_native_checker(self):
        """WaypointProperty (generic intervals) == checkers.check_waypoint
        (Delta-net atoms) on a bypass scenario."""
        from repro.checkers.waypoint import check_waypoint
        from repro.core.atomset import atoms_to_interval_set

        session = VerificationSession("deltanet", width=8)
        # Two paths a->d: through the waypoint w and around it via x.
        session.insert(Rule.forward(0, 0, 16, 1, "a", "w"))
        session.insert(Rule.forward(1, 0, 16, 1, "w", "d"))
        session.insert(Rule.forward(2, 16, 32, 1, "a", "x"))
        session.insert(Rule.forward(3, 0, 32, 1, "x", "d"))
        violations = session.check(WaypointProperty("a", "d", "w"))
        assert len(violations) == 1
        native = check_waypoint(session.native, "a", "d", "w")
        assert violations[0].data == atoms_to_interval_set(
            native, session.native.atoms) == [(16, 32)]

    def test_holds_when_all_traffic_waypointed(self):
        session = chain(VerificationSession("veriflow", width=8))
        assert session.check(WaypointProperty("a", "c", "b")) == []

    def test_endpoint_waypoint_rejected(self):
        with pytest.raises(ValueError):
            WaypointProperty("a", "b", "a")


class TestIsolationProperty:
    def test_matches_native_checker(self):
        from repro.checkers.isolation import check_isolation

        session = VerificationSession("deltanet", width=8)
        session.insert(Rule.forward(0, 0, 8, 1, "t1", "core"))
        session.insert(Rule.forward(1, 8, 16, 1, "t2", "core"))
        session.insert(Rule.forward(2, 0, 16, 1, "core", "out"))
        slice_a, slice_b = [(0, 8)], [(8, 16)]
        violations = session.check(IsolationProperty(slice_a, slice_b))
        offenders = check_isolation(session.native, slice_a, slice_b)
        assert {v.signature[1] for v in violations} == set(offenders)
        assert len(violations) == 1  # only core->out carries both

    def test_isolated_slices_pass(self):
        session = VerificationSession("netplumber", width=8)
        session.insert(Rule.forward(0, 0, 8, 1, "t1", "a"))
        session.insert(Rule.forward(1, 8, 16, 1, "t2", "b"))
        assert session.check(IsolationProperty([(0, 8)], [(8, 16)])) == []


class TestReachabilityProperty:
    def test_expect_unreachable_mode(self):
        session = chain(VerificationSession("deltanet", width=8))
        violations = session.check(
            ReachabilityProperty("a", "c", expect_reachable=False))
        assert len(violations) == 1
        assert violations[0].data == [(0, 8)]

    def test_violation_str_is_readable(self):
        session = VerificationSession("deltanet", width=8)
        session.watch(ReachabilityProperty("a", "z"))
        result = session.insert(Rule.forward(0, 0, 8, 1, "a", "b"))
        assert "unreachable" in str(result.violations[0])


class TestLoopPropertyIncrementalVsSweep:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_subscription_equals_sweep(self, backend):
        session = VerificationSession(backend, width=8)
        session.watch(LoopProperty())
        session.insert(Rule.forward(0, 0, 16, 1, "s1", "s2"))
        session.insert(Rule.forward(1, 0, 16, 1, "s2", "s3"))
        session.insert(Rule.forward(2, 0, 16, 1, "s3", "s1"))
        delivered = {v.signature[1] for v in session.violations()}
        assert delivered == set(session.query(Loops()).violations)
