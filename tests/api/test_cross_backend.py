"""Cross-backend equivalence: five verifiers, one truth.

Replays the same small workload (a shrunken 4Switch-style campaign plus
hand-built loop/shadowing scenarios) through every registered backend
and checks they agree on flows, reachability, black holes and loop
violations — the acceptance gate for the pluggable-backend redesign.
"""

import random

import pytest

from repro.api import (
    LinkDown, LoopProperty, VerificationSession, available_backends,
)
from repro.core.rules import Rule
from repro.query import FlowsOn, Loops, Reachable

ALL = sorted(available_backends())
WIDTH = 8


def random_workload(seed=7, n_rules=30, n_removes=8):
    """A deterministic mixed insert/remove workload on a 5-switch net."""
    rng = random.Random(seed)
    switches = ["s1", "s2", "s3", "s4", "s5"]
    ops = []
    rids = []
    for rid in range(n_rules):
        lo = rng.randrange(0, 250)
        hi = rng.randrange(lo + 1, 256)
        source = rng.choice(switches)
        target = rng.choice([s for s in switches if s != source])
        if rng.random() < 0.15:
            ops.append(("+", Rule.drop(rid, lo, hi, rng.randrange(1, 50),
                                       source)))
        else:
            ops.append(("+", Rule.forward(rid, lo, hi, rng.randrange(1, 50),
                                          source, target)))
        rids.append(rid)
    for rid in rng.sample(rids, n_removes):
        ops.append(("-", rid))
    return ops


def run_workload(backend, ops):
    session = VerificationSession(backend, width=WIDTH)
    session.watch(LoopProperty())
    for kind, payload in ops:
        if kind == "+":
            session.insert(payload)
        else:
            session.remove(payload)
    return session


@pytest.fixture(scope="module")
def sessions():
    ops = random_workload()
    return {backend: run_workload(backend, ops) for backend in ALL}


class TestCrossBackendEquivalence:
    def test_flows_agree_on_every_link(self, sessions):
        reference = sessions["deltanet"]
        links = sorted(set(reference.links()), key=repr)
        assert links, "workload produced no labelled links"
        for backend, session in sessions.items():
            for link in links:
                assert session.query(FlowsOn(link)).spans \
                    == reference.query(FlowsOn(link)).spans, \
                    f"{backend} disagrees on {link}"

    def test_reachability_agrees_on_every_pair(self, sessions):
        reference = sessions["deltanet"]
        switches = ["s1", "s2", "s3", "s4", "s5"]
        for backend, session in sessions.items():
            for src in switches:
                for dst in switches:
                    if src == dst:
                        continue
                    assert (session.query(Reachable(src, dst)).spans
                            == reference.query(Reachable(src, dst)).spans), \
                        f"{backend} disagrees on {src}->{dst}"

    def test_blackholes_agree(self, sessions):
        reference = sessions["deltanet"].find_blackholes()
        for backend, session in sessions.items():
            assert session.find_blackholes() == reference, backend

    def test_whatif_agrees(self, sessions):
        reference = sessions["deltanet"]
        for link in sorted(set(reference.links()), key=repr):
            expected = reference.query(LinkDown(link)).spans
            for backend, session in sessions.items():
                assert session.query(LinkDown(link)).spans == expected, \
                    f"{backend} disagrees on failing {link}"

    @pytest.mark.parametrize("backend", ["deltanet", "sharded", "veriflow"])
    def test_link_down_spans_are_the_links_flows(self, sessions, backend):
        """The packets a failure affects are the ones on the link: the
        adapter's what-if spans (Veriflow's own EC path included) and
        the planner's ``LinkDown`` spans both equal ``flows_on``."""
        session = sessions[backend]
        adapter = session.backend
        for link in sorted(set(sessions["deltanet"].links()), key=repr):
            flows = adapter.flows_on(link)
            assert adapter.what_if_link_down(link) == flows, link
            assert session.query(LinkDown(link)).spans == flows, link

    def test_loop_violations_agree(self, sessions):
        """Same canonical loop cycles delivered on every backend."""
        reference = {v.signature for v in sessions["deltanet"].violations()}
        for backend, session in sessions.items():
            delivered = {v.signature for v in session.violations()}
            assert delivered == reference, backend

    def test_full_sweep_loops_agree(self, sessions):
        reference = set(sessions["deltanet"].query(Loops()).violations)
        for backend, session in sessions.items():
            assert set(session.query(Loops()).violations) == reference, backend


class TestDeltanetVeriflowOnDataset:
    """The acceptance-criteria pairing on a real (tiny) Table 2 workload."""

    def test_same_violations_on_4switch(self):
        from repro.datasets.builders import build_dataset

        ops = build_dataset("4Switch", scale=0.05).ops
        results = {}
        for backend in ("deltanet", "veriflow"):
            session = VerificationSession(backend)
            session.watch(LoopProperty())
            for op in ops:
                session.apply(op)
            results[backend] = {v.signature for v in session.violations()}
        assert results["deltanet"] == results["veriflow"]

    def test_sharded_matches_monolithic_on_4switch(self):
        from repro.datasets.builders import build_dataset

        ops = build_dataset("4Switch", scale=0.05).ops
        mono = VerificationSession("deltanet")
        shard = VerificationSession("sharded", shards=4)
        for op in ops:
            mono.apply(op)
            shard.apply(op)
        for link in mono.links():
            assert shard.query(FlowsOn(link)).spans \
                == mono.query(FlowsOn(link)).spans
        assert set(shard.query(Loops()).violations) \
            == set(mono.query(Loops()).violations)
