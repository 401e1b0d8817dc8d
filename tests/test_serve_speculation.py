"""Daemon speculation verbs and the typed query envelope.

``speculate`` / ``commit`` / ``discard`` on :class:`StreamServer` (and,
through the shared verb table, the asyncio hub): children answer
spec-scoped updates and queries without journaling, ``commit`` replays
the buffered ops through the durable path (so they survive a crash),
``discard`` and ``close`` drop children without a trace, and the
``{"cmd": "query", "query": {...}}`` envelope round-trips typed
queries on both the base session and speculative children.
"""

import asyncio

import pytest

from repro.serve.aio import AsyncSessionHub
from repro.serve.sessions import SessionManager
from repro.serve.stream import StreamServer, VERB_CLASS


def _rule(rid, source, target, lo=0, hi=128, priority=10):
    return {"rid": rid, "lo": lo, "hi": hi, "priority": priority,
            "source": source, "target": target}


@pytest.fixture()
def server(tmp_path):
    server = StreamServer(str(tmp_path / "store"), engine="deltanet",
                          width=8, log=lambda line: None)
    yield server
    server.close()


def req(server, request):
    response, _keep = server.handle_request(request)
    return response


def seed_ring_minus_one(server):
    """a->b->c plus a disjoint a->c; adding c->a closes a loop."""
    for rid, (src, dst, lo, hi) in enumerate([("a", "b", 0, 128),
                                              ("b", "c", 0, 128),
                                              ("a", "c", 128, 256)]):
        response = req(server, {"cmd": "insert",
                                "rule": _rule(rid, src, dst, lo, hi)})
        assert response["ok"], response


class TestVerbTables:
    def test_speculative_verbs_are_writes(self):
        # ... and never point writes: a child shares structure with its
        # parent, so forking and folding it back is not event-loop work.
        assert {VERB_CLASS[verb] for verb in
                ("speculate", "commit", "discard")} == {"lane"}


    def test_every_session_verb_in_the_table_is_one_the_server_knows(
            self, server):
        for verb, kind in VERB_CLASS.items():
            response = req(server, {"cmd": verb})
            known = "unknown cmd" not in response.get("error", "")
            assert known == (kind != "hub" or verb == "shutdown"), verb


class TestTypedQueryEnvelope:
    def test_typed_query_and_legacy_what_agree(self, server):
        seed_ring_minus_one(server)
        typed = req(server, {"cmd": "query",
                             "query": {"kind": "flows_on",
                                       "source": "a", "target": "b"}})
        assert typed["ok"] and typed["result"]["kind"] == "flows_on"
        legacy = req(server, {"cmd": "query", "what": "flows_on",
                              "source": "a", "target": "b"})
        assert typed["result"]["spans"] == legacy["result"]

    def test_bad_typed_query_is_refused_readably(self, server):
        response = req(server, {"cmd": "query", "query": {"kind": "nope"}})
        assert not response["ok"] and "nope" in response["error"]


class TestSpeculationVerbs:
    def test_fork_update_query_commit(self, server):
        seed_ring_minus_one(server)
        forked = req(server, {"cmd": "speculate"})
        assert forked["ok"], forked
        spec = forked["spec"]
        inserted = req(server, {"cmd": "insert", "spec": spec,
                                "rule": _rule(3, "c", "a")})
        assert inserted["ok"] and inserted["buffered"] == 1
        assert inserted["violations"], "child must see the loop it made"
        child_loops = req(server, {"cmd": "query", "spec": spec,
                                   "query": {"kind": "loops"}})
        assert child_loops["result"]["violations"]
        parent_loops = req(server, {"cmd": "query",
                                    "query": {"kind": "loops"}})
        assert not parent_loops["result"]["violations"]
        committed = req(server, {"cmd": "commit", "spec": spec})
        assert committed["ok"] and committed["committed"] == 1
        parent_loops = req(server, {"cmd": "query",
                                    "query": {"kind": "loops"}})
        assert parent_loops["result"]["violations"]

    def test_commit_is_journaled_and_survives_recovery(self, server, tmp_path):
        seed_ring_minus_one(server)
        spec = req(server, {"cmd": "speculate"})["spec"]
        req(server, {"cmd": "insert", "spec": spec,
                     "rule": _rule(3, "c", "a")})
        req(server, {"cmd": "commit", "spec": spec})
        sequence = server.session.sequence
        server.close()
        recovered = StreamServer(str(tmp_path / "store"), engine="deltanet",
                                 width=8, log=lambda line: None)
        try:
            assert recovered.session.sequence == sequence
            response = req(recovered, {"cmd": "query",
                                       "query": {"kind": "loops"}})
            assert response["result"]["violations"]
        finally:
            recovered.close()

    def test_discard_leaves_no_trace_and_no_journal(self, server):
        seed_ring_minus_one(server)
        sequence = server.session.sequence
        spec = req(server, {"cmd": "speculate"})["spec"]
        req(server, {"cmd": "insert", "spec": spec,
                     "rule": _rule(3, "c", "a")})
        dropped = req(server, {"cmd": "discard", "spec": spec})
        assert dropped["ok"] and dropped["discarded"]
        assert server.session.sequence == sequence
        response = req(server, {"cmd": "query", "query": {"kind": "loops"}})
        assert not response["result"]["violations"]

    def test_committing_one_child_stales_its_sibling(self, server):
        seed_ring_minus_one(server)
        first = req(server, {"cmd": "speculate"})["spec"]
        second = req(server, {"cmd": "speculate"})["spec"]
        req(server, {"cmd": "insert", "spec": first,
                     "rule": _rule(3, "c", "a")})
        req(server, {"cmd": "commit", "spec": first})
        stale = req(server, {"cmd": "insert", "spec": second,
                             "rule": _rule(4, "c", "a", 128, 256)})
        assert not stale["ok"]
        assert "StaleSpeculationError" in stale["error"]
        req(server, {"cmd": "discard", "spec": second})

    def test_unknown_spec_is_refused(self, server):
        for cmd in ({"cmd": "commit", "spec": "spec-99"},
                    {"cmd": "discard", "spec": "spec-99"},
                    {"cmd": "query", "spec": "spec-99",
                     "query": {"kind": "loops"}}):
            response = req(server, cmd)
            assert not response["ok"]
            assert "unknown speculation" in response["error"]

    def test_close_discards_open_children(self, tmp_path):
        server = StreamServer(str(tmp_path / "store2"), engine="deltanet",
                              width=8, log=lambda line: None)
        seed_ring_minus_one(server)
        spec = req(server, {"cmd": "speculate"})["spec"]
        req(server, {"cmd": "insert", "spec": spec,
                     "rule": _rule(3, "c", "a")})
        server.close()  # must not deadlock, journal, or leak the child
        assert not server._specs


class TestHubSpeculation:
    def test_speculation_through_the_async_hub(self, tmp_path):
        async def drive():
            manager = SessionManager(str(tmp_path / "hub"),
                                     defaults={"engine": "deltanet",
                                               "width": 8})
            hub = AsyncSessionHub(manager)
            conn = type("Conn", (), {"session": None})()
            try:
                async def rpc(request):
                    response, _keep = await hub.handle_request(conn, request)
                    return response

                opened = await rpc({"cmd": "open", "session": "tenant-a"})
                assert opened["ok"], opened
                for rid, (src, dst) in enumerate([("a", "b"), ("b", "c")]):
                    inserted = await rpc({"cmd": "insert",
                                          "rule": _rule(rid, src, dst)})
                    assert inserted["ok"], inserted
                forked = await rpc({"cmd": "speculate"})
                assert forked["ok"], forked
                spec = forked["spec"]
                inserted = await rpc({"cmd": "insert", "spec": spec,
                                      "rule": _rule(2, "c", "a")})
                assert inserted["ok"] and inserted["buffered"] == 1
                child = await rpc({"cmd": "query", "spec": spec,
                                   "query": {"kind": "loops"}})
                assert child["result"]["violations"]
                parent = await rpc({"cmd": "query",
                                    "query": {"kind": "loops"}})
                assert not parent["result"]["violations"]
                committed = await rpc({"cmd": "commit", "spec": spec})
                assert committed["ok"] and committed["committed"] == 1
                parent = await rpc({"cmd": "query",
                                    "query": {"kind": "loops"}})
                assert parent["result"]["violations"]
            finally:
                await hub.aclose()

        asyncio.run(drive())
