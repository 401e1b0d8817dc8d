"""Tests for what-if link-failure queries — incl. Veriflow-RI agreement."""

import json
import random
import subprocess
import sys

import pytest

from repro.checkers.whatif import link_failure_impact, sweep_all_links
from repro.core.deltanet import DeltaNet
from repro.core.intervals import normalize
from repro.core.rules import Link, Rule
from repro.veriflow.verifier import VeriflowRI

from tests.conftest import random_rules


def chain_net() -> DeltaNet:
    net = DeltaNet(width=4)
    net.insert_rule(Rule.forward(0, 0, 8, 1, "s1", "s2"))
    net.insert_rule(Rule.forward(1, 0, 4, 1, "s2", "s3"))
    net.insert_rule(Rule.forward(2, 8, 16, 1, "s1", "s4"))
    return net


class TestDeltaNetSide:
    def test_affected_atoms_are_the_links_label(self):
        net = chain_net()
        impact = link_failure_impact(net, ("s1", "s2"))
        assert impact.affected_atoms == net.label_of(("s1", "s2"))
        assert impact.num_affected_flows == len(impact.affected_atoms)

    def test_affected_intervals(self):
        net = chain_net()
        impact = link_failure_impact(net, ("s1", "s2"))
        assert impact.affected_intervals(net) == [(0, 8)]

    def test_subgraph_restricted_to_affected_atoms(self):
        net = chain_net()
        impact = link_failure_impact(net, ("s2", "s3"))
        assert set(impact.affected_subgraph) == {Link("s1", "s2"),
                                                 Link("s2", "s3")}
        for atoms in impact.affected_subgraph.values():
            assert atoms <= impact.affected_atoms

    def test_unused_link_has_no_impact(self):
        net = chain_net()
        impact = link_failure_impact(net, ("s9", "s8"))
        assert impact.num_affected_flows == 0
        assert impact.affected_subgraph == {}

    def test_loop_check_in_affected_subgraph(self):
        net = DeltaNet(width=4)
        net.insert_rule(Rule.forward(0, 0, 16, 1, "a", "b"))
        net.insert_rule(Rule.forward(1, 0, 16, 1, "b", "a"))
        impact = link_failure_impact(net, ("a", "b"), check_loops=True)
        assert impact.loops

    def test_sweep_covers_all_labelled_links(self):
        net = chain_net()
        sweep = sweep_all_links(net)
        assert set(sweep) == set(net.label)


# One atom loops round two disjoint cycles, (a, b) and (c, d); the rules
# go in out of rule-id order, so single ops, one batch and a restore
# build the owner dicts in different orders.
_LOOP_ORDER_SCRIPT = """
import io, json
from repro.api import LinkDown, VerificationSession
from repro.core.rules import Rule

RULES = [
    Rule.forward(7, 0, 256, 1, "d", "c"),
    Rule.forward(3, 0, 256, 1, "a", "b"),
    Rule.forward(5, 0, 128, 2, "c", "d"),
    Rule.forward(1, 0, 256, 1, "b", "a"),
    Rule.forward(4, 64, 256, 3, "b", "e"),
    Rule.forward(2, 0, 32, 4, "e", "a"),
    Rule.forward(6, 0, 256, 1, "e", "c"),
]

def violations(session):
    return [[list(cycle) for cycle in
             session.query(LinkDown(link, loops=True)).violations]
            for link in sorted(session.links(), key=repr)]

single = VerificationSession("deltanet", width=8)
for rule in RULES:
    single.insert(rule)
batch = VerificationSession("deltanet", width=8)
batch.apply_batch(RULES)
snapshot = io.BytesIO()
single.save(snapshot)
snapshot.seek(0)
loaded = VerificationSession.load(snapshot)
print(json.dumps([violations(s) for s in (single, batch, loaded)]))
"""


def test_link_down_loop_order_depends_on_the_state_alone():
    """Single ops, a batch and a save/load reach one state; each gives
    the same ``LinkDown(loops=True).violations`` lists, under two string
    hash seeds."""
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _LOOP_ORDER_SCRIPT],
        env={"PYTHONHASHSEED": hash_seed,
             "PYTHONPATH": ":".join(sys.path)},
        capture_output=True, text=True, check=True).stdout)
        for hash_seed in ("1", "2")]
    single, batch, loaded = runs[0]
    assert [["a", "b"], ["c", "d"]] in single
    assert single == batch == loaded
    assert runs[0] == runs[1]


class TestAgreementWithVeriflow:
    @pytest.mark.parametrize("seed", range(6))
    def test_affected_packet_space_matches(self, seed):
        """Delta-net's affected atoms == Veriflow-RI's affected ECs,
        compared as canonical header-space interval unions."""
        rng = random.Random(seed)
        net, veriflow = DeltaNet(width=6), VeriflowRI(width=6)
        rules = random_rules(rng, 30, width=6, switches=4, drop_fraction=0.0)
        for rule in rules:
            net.insert_rule(rule)
            veriflow.insert_rule(rule, check_loops=False)
        for link in list(net.label):
            impact = link_failure_impact(net, link)
            delta_space = normalize(net.atoms.atom_interval(a)
                                    for a in impact.affected_atoms)
            veriflow_space = normalize(
                g.interval for g in veriflow.whatif_link_failure(link))
            assert delta_space == veriflow_space, link
