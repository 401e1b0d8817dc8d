"""Concurrent multi-session isolation: no cross-tenant contamination.

Two sessions receive interleaved batches from four concurrent clients
(two per tenant).  Afterwards each session's rule set and
``state_digest()`` must equal a *serial replay* of just that tenant's
operations — any rule or digest contribution that leaked across the
session boundary breaks the equality.
"""

import random
import threading

import pytest

from repro.serve import SessionManager, StreamServer

from tests.test_serve_hub import HubFixture

#: (session, client) -> the rid range that client inserts.
CLIENTS = [
    ("red", 0), ("red", 1),
    ("blue", 0), ("blue", 1),
]
BATCHES_PER_CLIENT = 8
RULES_PER_BATCH = 5
WIDTH = 16


def client_rules(client_index):
    """The rules one client inserts: unique rids/priorities per client."""
    base = client_index * 10_000
    rules = []
    for batch in range(BATCHES_PER_CLIENT):
        rules.append([
            rule(base + batch * RULES_PER_BATCH + i,
                 priority=base + batch * RULES_PER_BATCH + i,
                 lo=(batch * 7 + i) % 50, hi=(batch * 7 + i) % 50 + 5,
                 source=f"s{client_index}", target=f"t{batch % 3}")
            for i in range(RULES_PER_BATCH)
        ])
    return rules


def rule(rid, priority, lo, hi, source, target):
    return {"rid": rid, "lo": lo, "hi": hi, "priority": priority,
            "source": source, "target": target}


def serial_replay(tmp_path, name, client_indices):
    """Apply the named clients' batches serially; return (digest, rules)."""
    server = StreamServer(str(tmp_path / f"replay-{name}"), width=WIDTH,
                          properties=())
    try:
        for client_index in client_indices:
            for batch in client_rules(client_index):
                response, _ = server.handle_request(
                    {"cmd": "batch", "insert": batch})
                assert response["ok"], response
        stats, _ = server.handle_request({"cmd": "stats"})
        return stats["stats"].get("state_digest"), sorted(
            server.session.rules())
    finally:
        server.close()


def expected_state(tmp_path):
    """Serial ground truth per session: red gets clients 0-1, blue 2-3."""
    return {
        "red": serial_replay(tmp_path, "red", [0, 1]),
        "blue": serial_replay(tmp_path, "blue", [2, 3]),
    }


class TestManagerThreads:
    """Four threads straight into SessionManager-owned servers."""

    def test_interleaved_batches_never_cross_contaminate(self, tmp_path):
        manager = SessionManager(str(tmp_path / "root"),
                                 defaults=dict(width=WIDTH, properties=()))
        try:
            servers = {name: manager.open(name) for name in ("red", "blue")}
            start = threading.Barrier(len(CLIENTS))
            failures = []

            def run(session_name, client_index):
                try:
                    start.wait(10)
                    server = servers[session_name]
                    for batch in client_rules(client_index):
                        response, _ = server.handle_request(
                            {"cmd": "batch", "insert": batch})
                        assert response["ok"], response
                except Exception as exc:  # surface in the main thread
                    failures.append(exc)

            threads = [
                threading.Thread(target=run, args=(name, 2 * i + j))
                for i, name in enumerate(("red", "blue"))
                for j in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures

            expected = expected_state(tmp_path)
            for name in ("red", "blue"):
                digest, rules = expected[name]
                session = servers[name].session
                assert sorted(session.rules()) == rules
                if digest is not None:
                    assert session.state_digest() == digest
        finally:
            manager.close_all()


class TestHubTcp:
    """Four real TCP clients through the asyncio hub."""

    def test_interleaved_batches_never_cross_contaminate(self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"),
                             defaults=dict(width=WIDTH, properties=()))
        try:
            opener = fixture.client()
            opener.request(cmd="open", session="red")
            opener.request(cmd="open", session="blue")
            start = threading.Barrier(len(CLIENTS))
            failures = []

            def run(session_name, client_index):
                client = fixture.client()
                try:
                    start.wait(10)
                    attached = client.request(cmd="attach",
                                              session=session_name)
                    assert attached["ok"], attached
                    for batch in client_rules(client_index):
                        response = client.request(cmd="batch", insert=batch)
                        assert response["ok"], response
                        # interleave a read per batch: readers must not
                        # perturb (or block) the other tenant's writes
                        stats = client.request(cmd="stats")
                        assert stats["ok"], stats
                except Exception as exc:
                    failures.append(exc)
                finally:
                    client.close()

            threads = [
                threading.Thread(target=run, args=(name, 2 * i + j))
                for i, name in enumerate(("red", "blue"))
                for j in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures

            expected = expected_state(tmp_path)
            for name in ("red", "blue"):
                digest, rules = expected[name]
                stats = opener.request(cmd="stats", session=name)
                assert stats["ok"], stats
                listed = opener.request(cmd="query", what="rules",
                                        session=name)
                assert listed["result"] == rules
                if digest is not None:
                    assert stats["stats"]["state_digest"] == digest
            opener.close()
        finally:
            fixture.stop()


class TestArrivalOrder:
    """One session, several connections, inline and lane writes mixed."""

    CONNECTIONS = 4
    REQUESTS_EACH = 60

    def requests_for(self, index):
        """A seeded mix over a shared rid pool, so every outcome (ok,
        duplicate, unknown rid) depends on the order the hub applies."""
        rng = random.Random(index)
        requests = []
        for number in range(self.REQUESTS_EACH):
            tag = index * 1000 + number
            kind = rng.choice(["insert"] * 4 + ["remove"] * 3
                              + ["batch", "checkpoint"])
            if kind == "insert":
                rid = rng.randrange(12)
                request = dict(cmd="insert", rule=rule(
                    rid, rid + 1, rid, rid + 20, f"s{rid % 3}", "t"))
            elif kind == "remove":
                request = dict(cmd="remove", rid=rng.randrange(12))
            elif kind == "batch":
                request = dict(cmd="batch", insert=[rule(
                    100 + tag * 2 + i, 100 + tag * 2 + i, i, i + 9,
                    f"s{index}", "t") for i in range(2)])
            else:
                request = dict(cmd="checkpoint")
            requests.append(dict(request, tag=tag))
        return requests

    def test_replies_follow_arrival_order_and_match_a_serial_replay(
            self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"),
                             defaults=dict(width=WIDTH, properties=()))
        try:
            opener = fixture.client()
            opener.request(cmd="open", session="red")
            server = fixture.manager.get("red")
            arrived, waited, inline, replies, failures = [], [], [], {}, []

            handle_request = fixture.hub.handle_request

            async def recording_hub(conn, request):
                if "tag" in request:
                    arrived.append(request)
                    lane = fixture.hub._lanes.get(server)
                    waited.append(lane is not None
                                  and lane.task is not None)
                return await handle_request(conn, request)

            dispatch = server.handle_request

            def recording_server(request, wait=True):
                outcome = dispatch(request, wait)
                if request["cmd"] in ("insert", "remove") \
                        and outcome[0] is not None:
                    inline.append(not wait)
                return outcome

            fixture.hub.handle_request = recording_hub
            server.handle_request = recording_server

            def run(index):
                client = fixture.client()
                try:
                    client.request(cmd="attach", session="red")
                    for request in self.requests_for(index):
                        replies[request["tag"]] = client.request(**request)
                except Exception as exc:
                    failures.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(self.CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            assert len(arrived) == self.CONNECTIONS * self.REQUESTS_EACH
            # Writes found the lane idle and found it busy, and point
            # updates ran on the loop.
            assert any(waited) and not all(waited)
            assert any(inline)

            replay = StreamServer(str(tmp_path / "replay"), width=WIDTH,
                                  properties=())
            try:
                previous = 0
                for request in arrived:
                    expected, _ = replay.handle_request(request)
                    reply = dict(replies[request["tag"]])
                    for response in (expected, reply):
                        response.pop("latency_us", None)
                    assert reply == expected, request
                    if reply["ok"] and request["cmd"] != "checkpoint":
                        assert reply["seq"] > previous, request
                        previous = reply["seq"]
                digest = replay.session.state_digest()
            finally:
                replay.close()
            stats = opener.request(cmd="stats")["stats"]
            assert (stats["sequence"], stats["state_digest"]) == (
                previous, digest)
            opener.close()
        finally:
            fixture.stop()


class TestDigestSanity:
    def test_different_states_have_different_digests(self, tmp_path):
        """Guard against the isolation test vacuously passing."""
        red_digest, red_rules = serial_replay(tmp_path, "red2", [0, 1])
        blue_digest, blue_rules = serial_replay(tmp_path, "blue2", [2, 3])
        assert set(red_rules).isdisjoint(blue_rules)
        if red_digest is None:
            pytest.skip("digests disabled (DELTANET_DIGESTS=0)")
        assert red_digest != blue_digest
