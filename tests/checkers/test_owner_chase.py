"""Owner-directed chase == label-derived chase, on random traces.

``DeltaNet.next_hop`` reads an atom's hop off ``owner[atom][node]``; the
labels say the same thing a second way (the one out-link of the node
whose label holds the atom).  This suite holds the two together after
every update — single ops and ``apply_batch``, gc off and on, on a
speculative child before and after it writes — and holds every checker
built on the hop (``check_update``, ``find_forwarding_loops`` full and
restricted) to the stream of its label-only twin in
:mod:`repro.checkers.sweep`, op for op.  The what-if query, which reads
``owner[atom]`` for the failed link's atoms, is held to the label-mask
reference on every labelled link, and the set-at-a-time checkers (black
holes, reachability, waypoint, isolation), which walk every live atom or
a slice's atoms, to their ``sweep_*`` twins — and Delta-net's black-hole
spans to the interval-algebra default.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.backends import DeltaNetBackend
from repro.api.registry import BackendAdapter
from repro.checkers import sweep
from repro.checkers.blackholes import find_blackholes
from repro.checkers.isolation import check_isolation
from repro.checkers.loops import LoopChecker, find_forwarding_loops
from repro.checkers.reachability import (
    find_path, reachable_atoms, reachable_nodes,
)
from repro.checkers.waypoint import check_waypoint
from repro.checkers.whatif import link_failure_impact
from repro.core.deltanet import DeltaNet
from repro.core.rules import DROP, Link, Rule
from repro.core.speculative import SpeculativeDeltaNet

from tests.conftest import label_mask_impact, label_scan_next_hop

WIDTH = 8
NODES = ["a", "b", "c", "d"]
WAYPOINTS = [("a", "d", "b"), ("a", "c", "b"), ("b", "a", "c"),
             ("d", "b", "a")]
SLICES = [([(0, 64)], [(128, 224)]),
          ([(32, 96), (200, 256)], [(64, 160)]),
          ([(0, 256)], [(16, 17)])]

# Steps are descriptors interpreted against the live rule set, so a
# shrunk trace stays valid: ("+", plen, slot, prio, src, dst) inserts a
# prefix rule under the next rule id (dst == src makes it a drop rule);
# ("-", k) removes the k-th live rule.
_insert = st.tuples(st.just("+"), st.integers(0, 4), st.integers(0, 15),
                    st.integers(1, 6), st.sampled_from(NODES),
                    st.sampled_from(NODES))
_remove = st.tuples(st.just("-"), st.integers(0, 63))
_change = st.one_of(_insert, _insert, _remove)
_step = st.one_of(
    st.tuples(st.just("op"), _change),
    st.tuples(st.just("op"), _change),
    st.tuples(st.just("batch"), st.lists(_change, min_size=1, max_size=6)),
)
_steps = st.lists(_step, min_size=1, max_size=25)


class Trace:
    """Turns descriptors into rules and rule ids, tracking what is live."""

    def __init__(self, live=(), next_rid=0):
        self.live = list(live)
        self.next_rid = next_rid

    def fork(self):
        return Trace(self.live, self.next_rid)

    def change(self, change):
        """``(rule, None)`` for an insert, ``(None, rid)`` for a removal,
        ``None`` when there is nothing to remove."""
        if change[0] == "+":
            _kind, plen, slot, prio, src, dst = change
            span = 1 << (WIDTH - plen)
            lo = (slot * span) % (1 << WIDTH)
            rid = self.next_rid
            self.next_rid += 1
            self.live.append(rid)
            if src == dst:
                return Rule.drop(rid, lo, lo + span, prio, src), None
            return Rule.forward(rid, lo, lo + span, prio, src, dst), None
        if not self.live:
            return None
        return None, self.live.pop(change[1] % len(self.live))

    def run(self, step, target):
        """Apply one step to the DeltaNet ``target``."""
        if step[0] == "op":
            drawn = self.change(step[1])
            if drawn is None:
                return None
            rule, rid = drawn
            return (target.insert_rule(rule) if rule is not None
                    else target.remove_rule(rid))
        inserts, removals = [], []
        before = list(self.live)    # a batch removes only what predates it
        for change in step[1]:
            if change[0] == "+":
                inserts.append(self.change(change)[0])
            elif before:
                rid = before.pop(change[1] % len(before))
                self.live.remove(rid)
                removals.append(rid)
        return target.apply_batch(inserts, removals)


def assert_hops_match_labels(net):
    """next_hop == label scan for every (node, atom), live or not."""
    live = {atom for atom, _interval in net.atoms.intervals()}
    for atom in range(net.atoms.num_ids_allocated + 2):
        for node in NODES + ["nowhere", DROP]:
            hop = net.next_hop(node, atom)
            assert hop == label_scan_next_hop(net, node, atom), (node, atom)
            if atom not in live:
                assert hop is None
            rule = net.owner_rule(atom, node)
            assert hop == (rule.target if rule is not None else None)


def assert_whatif_matches_masks(net):
    """Owner-directed what-if == the label-mask reference, on every
    labelled link (loops compared as lists: the order is held too)."""
    for link in list(net.label):
        impact = link_failure_impact(net, link, check_loops=True)
        atoms, subgraph, loops = label_mask_impact(net, link)
        assert impact.affected_atoms == atoms, link
        assert impact.affected_subgraph == subgraph, link
        assert impact.loops == loops, link


def assert_properties_match_sweeps(net):
    """The set-at-a-time checkers against their label-only twins, and
    Delta-net's black-hole spans against the interval-algebra default."""
    assert find_blackholes(net) == sweep.sweep_find_blackholes(net)
    assert find_blackholes(net, expected_sinks=["b", DROP]) == \
        sweep.sweep_find_blackholes(net, expected_sinks=["b", DROP])
    for src in NODES:
        for dst in NODES + ["nowhere"]:
            assert reachable_atoms(net, src, dst) == \
                sweep.sweep_reachable_atoms(net, src, dst), (src, dst)
    for src, dst, waypoint in WAYPOINTS:
        assert check_waypoint(net, src, dst, waypoint) == \
            sweep.sweep_check_waypoint(net, src, dst, waypoint)
    for slice_a, slice_b in SLICES:
        assert check_isolation(net, slice_a, slice_b) == \
            sweep.sweep_check_isolation(net, slice_a, slice_b)
    backend = DeltaNetBackend(width=WIDTH)
    backend._adopt(net)
    assert backend.find_blackholes() == \
        BackendAdapter.find_blackholes(backend)


def assert_checks_match_sweeps(net, delta):
    """Every path-following check against its label-only twin: equal as
    lists, so the order loops are delivered in is held too."""
    assert LoopChecker(net).check_update(delta) == \
        sweep.sweep_check_update(net, delta)
    assert find_forwarding_loops(net) == \
        sweep.sweep_find_forwarding_loops(net)
    assert_whatif_matches_masks(net)
    assert_properties_match_sweeps(net)
    for atom, _interval in list(net.atoms.intervals())[:4]:
        trail = reachable_nodes(net, "a", atom)
        node, expected = "a", []
        while node is not None and node != DROP and node not in expected:
            expected.append(node)
            node = label_scan_next_hop(net, node, atom)
        assert trail == expected
        assert find_path(net, "a", trail[-1], atom) == trail


@pytest.mark.parametrize("gc", [False, True])
@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_hops_and_streams_match_labels(gc, steps):
    net = DeltaNet(width=WIDTH, gc=gc)
    trace = Trace()
    for step in steps:
        delta = trace.run(step, net)
        if delta is None:
            continue
        assert_hops_match_labels(net)
        assert_checks_match_sweeps(net, delta)
    net.check_invariants()


@pytest.mark.parametrize("gc", [False, True])
@settings(max_examples=40, deadline=None)
@given(parent_steps=_steps, child_steps=_steps)
def test_speculative_child_chases_without_copying(gc, parent_steps,
                                                  child_steps):
    parent = DeltaNet(width=WIDTH, gc=gc)
    trace = Trace()
    for step in parent_steps:
        trace.run(step, parent)
    child = SpeculativeDeltaNet.from_parent(parent)
    overlay = child._owner._own
    # Before any child write: every chase answers from the parent's own
    # dicts and the overlay stays empty.
    assert_hops_match_labels(child)
    assert find_forwarding_loops(child) == \
        sweep.sweep_find_forwarding_loops(child)
    assert_whatif_matches_masks(child)
    assert_properties_match_sweeps(child)
    assert not overlay
    child_trace = trace.fork()
    for step in child_steps:
        delta = child_trace.run(step, child)
        if delta is None:
            continue
        touched = set(overlay)
        assert_hops_match_labels(child)
        assert_checks_match_sweeps(child, delta)
        assert set(overlay) == touched, "a chase materialised owner slots"
    # The parent never saw the child's writes.
    assert_hops_match_labels(parent)
    parent.check_invariants()


def test_default_route_carries_every_atom():
    """A default route's failure affects every atom: the owner-directed
    answer is the whole label graph, and equals the mask reference."""
    net = DeltaNet(width=WIDTH)
    net.insert_rule(Rule.forward(0, 0, 1 << WIDTH, 1, "a", "b"))
    net.insert_rule(Rule.forward(1, 0, 64, 5, "b", "c"))
    net.insert_rule(Rule.forward(2, 64, 128, 5, "b", "a"))
    net.insert_rule(Rule.forward(3, 128, 192, 5, "b", "d"))
    net.insert_rule(Rule.forward(4, 0, 32, 9, "c", "b"))
    net.insert_rule(Rule.drop(5, 128, 256, 2, "d"))
    default = Link("a", "b")
    everything = {atom for atom, _interval in net.atoms.intervals()}
    impact = link_failure_impact(net, default, check_loops=True)
    assert impact.affected_atoms == everything
    assert impact.affected_subgraph == {
        link: set(atoms) for link, atoms in net.label.items() if atoms}
    assert {loop.cycle for loop in impact.loops} == {("a", "b"),
                                                     ("b", "c")}
    assert (impact.affected_atoms, impact.affected_subgraph,
            impact.loops) == label_mask_impact(net, default)
