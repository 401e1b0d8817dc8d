"""The unified Query API: typed queries, envelopes and codecs.

The redesign's contract in executable form: every backend answers the
four first-class queries through ``session.query`` with one uniform
:class:`~repro.query.QueryResult` envelope, and the wire codecs
round-trip every query type.
"""

import pytest

from repro.api import (
    FlowsOn, LinkDown, Loops, QueryResult, Reachable, VerificationSession,
    available_backends, query_from_payload, query_to_payload,
)
from repro.core.rules import Rule
from repro.query import QUERY_KINDS, QueryPayloadError, as_link

ALL = sorted(available_backends())
WIDTH = 8


def _spans(value):
    """Normalize a spans container (each backend keeps its native type)."""
    return tuple(tuple(span) for span in value)


def _options(backend):
    return {"force_inline": True, "shards": 2} if backend == "parallel" else {}


def ring_session(backend):
    """Three rules: a ring on [0, 128) once rid 3 closes it, plus a
    disjoint a->c span on [128, 256)."""
    session = VerificationSession(backend, width=WIDTH, **_options(backend))
    session.insert(Rule.forward(0, 0, 128, 1, "a", "b"))
    session.insert(Rule.forward(1, 0, 128, 1, "b", "c"))
    session.insert(Rule.forward(2, 128, 256, 1, "a", "c"))
    return session


class TestTypedQueries:
    @pytest.mark.parametrize("backend", ALL)
    def test_flows_on_envelope(self, backend):
        session = ring_session(backend)
        result = session.query(FlowsOn(("a", "b")))
        assert isinstance(result, QueryResult)
        assert result.kind == "flows_on"
        assert result.backend == backend
        assert _spans(result.spans) == ((0, 128),)
        assert not result.violations
        assert result.seconds >= 0
        session.close()

    @pytest.mark.parametrize("backend", ALL)
    def test_reachable_and_link_down(self, backend):
        session = ring_session(backend)
        assert _spans(session.query(Reachable("a", "c")).spans) \
            == ((0, 256),)
        down = session.query(LinkDown(("a", "c")))
        assert down.kind == "link_down"
        assert _spans(down.spans) == ((128, 256),)
        session.close()

    @pytest.mark.parametrize("backend", ALL)
    def test_loops_query_reports_cycle(self, backend):
        session = ring_session(backend)
        assert not session.query(Loops()).violations
        session.insert(Rule.forward(3, 0, 128, 1, "c", "a"))
        cycles = session.query(Loops()).violations
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b", "c"}
        session.close()

    def test_deltanet_fills_atom_currency(self):
        session = ring_session("deltanet")
        result = session.query(LinkDown(("a", "b")))
        assert result.atoms is not None and len(result.atoms) >= 1
        assert result.subgraph is not None
        for link, atoms in result.subgraph.items():
            assert isinstance(link, tuple) and len(link) == 2
            assert set(atoms) <= set(result.atoms)
        session.close()

    def test_generic_backends_leave_atoms_none(self):
        session = ring_session("veriflow")
        result = session.query(LinkDown(("a", "b")))
        assert result.atoms is None and result.subgraph is None
        session.close()

    def test_unknown_query_type_is_an_error(self):
        session = ring_session("deltanet")
        with pytest.raises(TypeError):
            session.query("loops")
        session.close()


class TestWireCodecs:
    @pytest.mark.parametrize(
        "query", [FlowsOn(as_link(("a", "b"))), Reachable("a", "c"),
                  LinkDown(as_link(("a", "b"))),
                  LinkDown(as_link(("a", "b")), loops=True), Loops()])
    def test_round_trip(self, query):
        payload = query_to_payload(query)
        assert payload["kind"] in QUERY_KINDS.values()
        assert query_from_payload(payload) == query

    def test_bad_payloads_raise(self):
        for payload in ({}, {"kind": "nope"}, {"kind": "flows_on"},
                        {"kind": "reachable", "src": "a"}, "loops", 7):
            with pytest.raises(QueryPayloadError):
                query_from_payload(payload)

    def test_result_payload_shape(self):
        session = ring_session("deltanet")
        payload = session.query(LinkDown(("a", "b"))).to_payload()
        assert payload["kind"] == "link_down"
        assert payload["backend"] == "deltanet"
        assert payload["spans"] == [[0, 128]]
        assert isinstance(payload["micros"], int)
        session.close()
