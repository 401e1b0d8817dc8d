"""Tests for the sweep oracle and the differential runner."""

import pytest

from repro.api import register_backend, unregister_backend
from repro.api.backends import DeltaNetBackend
from repro.core.rules import Rule
from repro.datasets.format import Op
from repro.scenarios import (
    PropertySpec, Scenario, ScenarioError, SweepOracle, build_scenario,
    diff_streams, format_signature, replay_signatures, run_scenario,
)


def _scenario(ops, specs):
    scenario = Scenario(family="test", name="test/0", seed=0, scale=1.0,
                        topology=None, ops=ops, property_specs=specs)
    scenario.validate()
    return scenario


def _loop_ops():
    return [
        Op.insert(Rule.forward(1, 0, 16, 5, "a", "b")),
        Op.insert(Rule.forward(2, 0, 16, 5, "b", "a")),
        Op.remove(1),
    ]


class TestSweepOracle:
    def test_loop_delivered_once_then_rearmed(self):
        oracle = SweepOracle([PropertySpec.of("loops")])
        ops = _loop_ops()
        assert oracle.apply(ops[0]) == frozenset()
        assert oracle.apply(ops[1]) == frozenset({("loop", ("a", "b"))})
        assert oracle.apply(ops[2]) == frozenset()
        # Re-introducing the loop after it cleared alerts again.
        assert oracle.apply(ops[0]) == frozenset({("loop", ("a", "b"))})

    def test_blackhole_respects_expected_sinks(self):
        op = Op.insert(Rule.forward(1, 0, 16, 5, "a", "b"))
        plain = SweepOracle([PropertySpec.of("blackholes")])
        assert plain.apply(op) == frozenset({("blackhole", "b")})
        sinkful = SweepOracle([
            PropertySpec.of("blackholes", expected_sinks=("b",))])
        assert sinkful.apply(op) == frozenset()

    def test_unknown_property_rejected(self):
        bogus = PropertySpec("bogus", ())
        with pytest.raises(ScenarioError):
            SweepOracle([bogus])

    def test_matches_session_streams_on_real_scenarios(self):
        for family in ("link-flaps", "deaggregation"):
            scenario = build_scenario(family, seed=4, scale=0.25)
            oracle = SweepOracle(scenario.property_specs)
            stream = oracle.stream(scenario.ops)
            run = replay_signatures(scenario, "deltanet")
            assert run.error is None
            assert run.delivered == stream


class TestDiffAndFormat:
    def test_diff_streams_reports_first_divergence(self):
        ops = _loop_ops()
        oracle = [frozenset(), frozenset({("loop", ("a", "b"))}),
                  frozenset()]
        delivered = [frozenset(), frozenset(), frozenset()]
        diffs = diff_streams("x", ops, oracle, delivered)
        assert len(diffs) == 1
        divergence = diffs[0]
        assert divergence.op_index == 1
        assert divergence.missing == frozenset({("loop", ("a", "b"))})
        assert not divergence.unexpected
        text = divergence.describe()
        assert "loop: a -> b -> a" in text and "op 1" in text

    def test_short_backend_stream_counts_as_divergence(self):
        ops = _loop_ops()
        oracle = [frozenset(), frozenset({("loop", ("a", "b"))}),
                  frozenset()]
        assert diff_streams("x", ops, oracle, [frozenset()])

    def test_format_signature_kinds(self):
        assert "blackhole at n" == format_signature(("blackhole", "n"))
        assert "unreachable" in format_signature(
            ("reachability", "a", "b", True))
        assert "bypasses w" in format_signature(("waypoint", "a", "b", "w"))
        assert "both slices" in format_signature(("isolation", ("a", "b")))


class _LossyBackend(DeltaNetBackend):
    """Delta-net that swallows the last loop report of every commit."""

    def loops_for_commit(self, updates, delta):
        return super().loops_for_commit(updates, delta)[:-1]


def test_rule_sweep_stops_at_the_rules_upper_bound():
    """A minimized fuzz trace (``failover-storm`` seed 8144727, seed 101's
    campaign) held to fixed answers rather than to the oracle.  With
    ``AtomTable.atoms_in`` also returning the atom that starts at ``hi``,
    rule 53 sweeps every atom above its own, so rule 54's packets find a
    hop at node 1 and its black hole goes unreported.  The sweep oracle
    runs the same core and agrees with that broken stream; the answers
    below do not."""
    rules = [Rule.forward(53, 837520384, 837521408, 22, 1, 0),
             Rule.forward(54, 2996633856, 2996634112, 24, 2, 1)]
    scenario = _scenario(
        [Op.insert(rule) for rule in rules],
        [PropertySpec.of("loops"),
         PropertySpec.of("blackholes", expected_sinks=("p0", "p1", "p2"))])
    run = replay_signatures(scenario, "deltanet")
    assert run.error is None
    assert run.delivered == [frozenset({("blackhole", 0)}),
                             frozenset({("blackhole", 1)})]
    from repro.api import VerificationSession

    with VerificationSession("deltanet") as session:
        for rule in rules:
            session.insert(rule)
            assert session.backend.flows_on(rule.link) == [(rule.lo, rule.hi)]


class TestRunScenario:
    def test_agreement_on_healthy_backends(self):
        scenario = build_scenario("failover-storm", seed=6, scale=0.25)
        report = run_scenario(scenario, ["deltanet", "veriflow"])
        assert report.ok
        assert "agrees" in report.describe()

    def test_lossy_backend_caught(self):
        register_backend("lossy-test", _LossyBackend, replace=True)
        try:
            scenario = _scenario(_loop_ops()[:2],
                                 [PropertySpec.of("loops")])
            report = run_scenario(scenario, ["deltanet", "lossy-test"])
            assert not report.ok
            assert {d.backend for d in report.divergences} == {"lossy-test"}
            assert "DIVERGES" in report.describe()
        finally:
            unregister_backend("lossy-test")

    def test_backend_crash_is_a_finding(self):
        def exploding(**_options):
            raise RuntimeError("boom")

        register_backend("exploding-test", exploding, replace=True)
        try:
            scenario = _scenario(_loop_ops(), [PropertySpec.of("loops")])
            report = run_scenario(scenario, ["exploding-test"])
            assert not report.ok
            assert report.runs[0].error is not None
            assert "boom" in report.runs[0].error
        finally:
            unregister_backend("exploding-test")
