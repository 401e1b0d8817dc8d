"""The asyncio multi-session hub, exercised over real TCP connections."""

import asyncio
import io
import json
import shutil
import socket
import threading
import time

import pytest

from repro.serve import (
    AsyncSessionHub, SessionManager, serve_hub_stdio, serve_hub_tcp,
)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def rule(rid, priority=None, lo=0, hi=10, source="a", target="b"):
    return {"rid": rid, "lo": lo, "hi": hi,
            "priority": rid if priority is None else priority,
            "source": source, "target": target}


class HubFixture:
    """A hub served over TCP from a background thread."""

    def __init__(self, root, defaults=None, **hub_kwargs):
        self.manager = SessionManager(
            root, defaults=defaults or dict(width=8, properties=()))
        self.hub = AsyncSessionHub(self.manager, **hub_kwargs)
        self.loop = None
        self.address = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "hub did not come up"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()

        def on_ready(host, port):
            self.address = (host, port)
            self._ready.set()

        await serve_hub_tcp(self.hub, ready=on_ready)

    def client(self):
        return Client(self.address)

    def stop(self):
        if self.thread.is_alive() and self.loop is not None:
            self.loop.call_soon_threadsafe(self.hub.request_stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "hub thread did not stop"


class Client:
    """One ndjson controller connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def send(self, **request):
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self):
        line = self.rfile.readline()
        assert line, "connection closed while expecting a response"
        return json.loads(line)

    def request(self, **request):
        self.send(**request)
        return self.recv()

    def close(self):
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def hub(tmp_path):
    fixture = HubFixture(str(tmp_path / "root"))
    yield fixture
    fixture.stop()


class TestHubVerbs:
    def test_open_insert_query_roundtrip(self, hub):
        client = hub.client()
        opened = client.request(cmd="open", session="red")
        assert opened == {"ok": True, "session": "red", "seq": 0,
                          "backend": "deltanet", "recovered": False}
        assert client.request(cmd="insert", rule=rule(1))["ok"]
        response = client.request(cmd="query", what="rules")
        assert response["result"] == [1]
        client.close()

    def test_sessions_listing_covers_all_tenants(self, hub):
        client = hub.client()
        client.request(cmd="open", session="red")
        client.request(cmd="open", session="blue")
        listing = client.request(cmd="sessions")["sessions"]
        assert [s["session"] for s in listing] == ["blue", "red"]
        assert all(s["open"] for s in listing)
        client.close()

    def test_per_request_session_override(self, hub):
        client = hub.client()
        client.request(cmd="open", session="red")
        client.request(cmd="open", session="blue")  # now attached to blue
        client.request(cmd="insert", rule=rule(1), session="red")
        assert client.request(cmd="query", what="rules",
                              session="red")["result"] == [1]
        assert client.request(cmd="query", what="rules")["result"] == []
        client.close()

    def test_detach_and_unattached_verbs_are_refused(self, hub):
        client = hub.client()
        client.request(cmd="open", session="red")
        assert client.request(cmd="detach") == {"ok": True,
                                                "detached": "red"}
        refused = client.request(cmd="stats")
        assert not refused["ok"]
        assert "no session attached" in refused["error"]
        client.close()

    def test_unknown_session_error_keeps_connection(self, hub):
        client = hub.client()
        refused = client.request(cmd="stats", session="ghost")
        assert not refused["ok"] and "unknown session" in refused["error"]
        assert client.request(cmd="sessions")["ok"]  # still alive
        client.close()

    def test_attach_refuses_what_open_would_create(self, hub):
        client = hub.client()
        refused = client.request(cmd="attach", session="ghost")
        assert not refused["ok"] and "unknown session" in refused["error"]
        client.close()

    def test_open_with_a_bad_option_is_refused_not_hung_up_on(self, hub):
        client = hub.client()
        for option in (dict(engine="bogus"), dict(checkpoint_every="soon"),
                       dict(checkpoint_every=None)):
            refused = client.request(cmd="open", session="red", **option)
            assert not refused["ok"] and refused["error"], option
        # a numeric string is taken as the number it spells
        assert client.request(cmd="open", session="red",
                              checkpoint_every="2")["ok"]
        for rid in (1, 2, 3):
            assert client.request(cmd="insert", rule=rule(rid))["seq"] == rid
        assert client.request(cmd="health")["last_checkpoint"] == 2
        client.close()

    def test_hub_health_detached_session_health_attached(self, hub):
        client = hub.client()
        client.request(cmd="open", session="red")
        hub_health = client.request(cmd="health", session=None)
        session_health = client.request(cmd="health")
        client.close()
        # "session": None is absent after JSON round-trip?  No: json
        # keeps the key with null, and the hub treats null as detached.
        assert hub_health["hub"] is True
        assert hub_health["sessions"] == ["red"]
        assert session_health["session"] == "red"
        assert "hub" not in session_health

    def test_hub_metrics_exposition(self, hub):
        client = hub.client()
        client.request(cmd="open", session="red")
        client.request(cmd="detach")
        text = client.request(cmd="metrics")["metrics"]
        client.close()
        assert "deltanet_open_sessions 1" in text
        assert ('deltanet_requests_total{session="_hub",verb="open"} 1'
                in text)
        assert 'deltanet_connections_total{transport="tcp"} 1' in text

    def test_bad_json_and_bad_request_keep_connection(self, hub):
        client = hub.client()
        client.send_raw(b"not json at all\n")
        assert "bad JSON" in client.recv()["error"]
        client.send_raw(b'"just a string"\n')
        assert "bad request" in client.recv()["error"]
        client.send_raw(b'{"cmd": 7}\n')
        assert "bad request" in client.recv()["error"]
        assert client.request(cmd="sessions")["ok"]
        client.close()

    def test_shutdown_reports_sessions_and_stops_hub(self, hub, tmp_path):
        client = hub.client()
        client.request(cmd="open", session="red")
        client.request(cmd="insert", rule=rule(1))
        closing = client.request(cmd="shutdown")
        assert closing == {"ok": True, "closing": True, "sessions": ["red"]}
        assert client.rfile.readline() == ""  # hub closed the connection
        client.close()
        hub.thread.join(timeout=10)
        assert not hub.thread.is_alive()
        # the final checkpoint made the session recoverable
        fresh = SessionManager(str(tmp_path / "root"),
                               defaults=dict(width=8, properties=()))
        try:
            assert fresh.attach("red").session.sequence == 1
        finally:
            fresh.close_all()

    def test_shutdown_with_another_client_attached_is_quiet(
            self, tmp_path, caplog):
        # Regression: the client left attached had its task cancelled
        # mid-read when the loop shut down, and the stream protocol
        # logged the CancelledError traceback.  The hub now hangs up on
        # it first, so its loop ends on EOF like any other disconnect.
        notes = []
        hub = HubFixture(str(tmp_path / "root"), log=notes.append)
        idle, stopper = hub.client(), hub.client()
        assert idle.request(cmd="open", session="red")["ok"]
        assert stopper.request(cmd="open", session="red")["ok"]
        idle.sock.settimeout(10)  # a hub that never hangs up fails, not hangs
        with caplog.at_level("WARNING", logger="asyncio"):
            assert stopper.request(cmd="shutdown")["closing"]
            assert idle.rfile.readline() == ""  # hung up on, not reset
            hub.thread.join(timeout=10)
        assert not hub.thread.is_alive()
        idle.close()
        stopper.close()
        assert notes == []
        assert [record.getMessage() for record in caplog.records] == []


class TestHubFraming:
    @pytest.fixture
    def hub(self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"), max_line_bytes=256)
        yield fixture
        fixture.stop()

    def test_oversized_frame_is_refused_and_stream_stays_framed(self, hub):
        client = hub.client()
        client.send_raw(b"x" * 4096 + b"\n")
        refused = client.recv()
        assert refused["error"] == "frame too large"
        assert refused["max_line_bytes"] == 256
        assert client.request(cmd="sessions")["ok"]
        client.close()

    def test_multibyte_frame_cap_is_measured_in_bytes(self, hub):
        client = hub.client()
        # 100 euro signs = 100 chars but 300 utf-8 bytes > 256.
        client.send_raw(("€" * 100 + "\n").encode("utf-8"))
        assert client.recv()["error"] == "frame too large"
        assert client.request(cmd="sessions")["ok"]
        client.close()


class TestBackpressure:
    def test_zero_queue_session_answers_overloaded(self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"),
                             defaults=dict(width=8, properties=(),
                                           max_queue=0))
        try:
            client = fixture.client()
            client.request(cmd="open", session="red")
            refused = client.request(cmd="insert", rule=rule(1))
            assert refused["error"] == "overloaded"
            assert refused["retry_after"] > 0
            client.close()
        finally:
            fixture.stop()

    def test_full_writer_queue_refuses_immediately(self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"),
                             defaults=dict(width=8, properties=(),
                                           max_queue=1))
        try:
            opener = fixture.client()
            opener.request(cmd="open", session="red")
            server = fixture.manager.get("red")

            assert server._lock.acquire(timeout=5)  # wedge the session
            try:
                first = fixture.client()
                first.send(cmd="open", session="red")
                first.recv()
                first.send(cmd="insert", rule=rule(1))
                # the lock try fails, so it takes the lane: a thread
                # picks it up and blocks on the wedge
                assert wait_until(lambda: server._waiters >= 1)

                second = fixture.client()
                second.send(cmd="open", session="red")
                second.recv()
                second.send(cmd="insert", rule=rule(2))
                assert wait_until(lambda: server.backlog() >= 1)

                third = fixture.client()
                third.send(cmd="open", session="red")
                third.recv()
                refused = third.request(cmd="insert", rule=rule(3))
                assert refused["error"] == "overloaded"
                assert refused["retry_after"] > 0
            finally:
                server._lock.release()
            assert first.recv()["ok"]   # wedged write completes
            assert second.recv()["ok"]  # queued write follows
            for client in (first, second, third, opener):
                client.close()
        finally:
            fixture.stop()


    def test_health_sessions_and_metrics_show_the_lane_backlog(
            self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"))
        try:
            probe = fixture.client()
            probe.request(cmd="open", session="red")
            server = fixture.manager.get("red")
            writers = []
            assert server._lock.acquire(timeout=5)  # wedge the session
            try:
                for rid in (1, 2, 3):
                    writer = fixture.client()
                    writer.request(cmd="attach", session="red")
                    writer.send(cmd="insert", rule=rule(rid))
                    writers.append(writer)
                    # the first blocks on the wedge, two queue behind it
                    assert wait_until(lambda: server._waiters == 1
                                      and server.backlog() == rid - 1)
                assert probe.request(cmd="health")["queue_depth"] == 3
                (listed,) = probe.request(cmd="sessions")["sessions"]
                assert listed["queue_depth"] == 3
                text = probe.request(cmd="metrics", session=None)["metrics"]
                assert 'deltanet_write_queue_depth{session="red"} 3' in text
            finally:
                server._lock.release()
            assert [writer.recv()["seq"] for writer in writers] == [1, 2, 3]
            assert probe.request(cmd="health")["queue_depth"] == 0
            for client in writers + [probe]:
                client.close()
        finally:
            fixture.stop()


def bulk_rules(count, first_rid=1000):
    """``count`` scattered /16-ish rules over a 40-node graph."""
    return [rule(first_rid + i, lo=(i * 2654435761) % (2 ** 32 - 70000),
                 hi=(i * 2654435761) % (2 ** 32 - 70000) + 1 + i % 65536,
                 source=f"n{i % 40}", target=f"n{(i * 7 + 1) % 40}")
            for i in range(count)]


class TestInlineWrites:
    """Point updates run on the loop; the loop itself never waits."""

    def test_loop_answers_while_a_lane_works_and_a_session_is_held(
            self, tmp_path):
        fixture = HubFixture(str(tmp_path / "root"),
                             defaults=dict(width=32, properties=()))
        try:
            big, held, other = (fixture.client() for _ in range(3))
            big.request(cmd="open", session="big")
            held.request(cmd="open", session="held")
            other.request(cmd="open", session="other")
            rules = bulk_rules(20_000)
            for start in range(0, len(rules), 5_000):
                assert big.request(
                    cmd="batch", insert=rules[start:start + 5_000])["ok"]
            held_server = fixture.manager.get("held")
            big_server = fixture.manager.get("big")

            def timed(client, **request):
                begin = time.monotonic()
                response = client.request(**request)
                return response, time.monotonic() - begin

            assert held_server._lock.acquire(timeout=5)
            try:
                big.send(cmd="checkpoint")      # ~0.4 s on the lane
                held.send(cmd="insert", rule=rule(1))
                assert wait_until(lambda: held_server._waiters == 1)
                probes = [
                    timed(other, cmd="health", session=None),
                    timed(other, cmd="health", session="held"),
                    timed(other, cmd="health", session="big"),
                    timed(other, cmd="insert", rule=rule(2)),
                ]
                # still busy: the probes were answered beside the work
                assert fixture.hub._lanes[big_server].task is not None
                assert held_server.session.sequence == 0
                for response, seconds in probes:
                    assert response["ok"], response
                    assert seconds < 0.1, (response, seconds)
                assert probes[1][0]["queue_depth"] == 1
            finally:
                held_server._lock.release()
            assert held.recv()["seq"] == 1      # the lane finished it
            assert big.recv()["seq"] == 20_000
            for client in (big, held, other):
                client.close()
        finally:
            fixture.stop()

    def test_periodic_checkpoint_is_written_off_the_loop(self, tmp_path):
        from repro.persist import SessionStore

        root = tmp_path / "root"
        fixture = HubFixture(str(root), defaults=dict(
            width=8, properties=(), checkpoint_every=5))
        try:
            client = fixture.client()
            client.request(cmd="open", session="red")
            server = fixture.manager.get("red")
            snapshot, threads = server._checkpoint, []

            def recording_checkpoint():
                threads.append(threading.current_thread())
                return snapshot()

            server._checkpoint = recording_checkpoint
            for rid in range(1, 13):
                assert client.request(cmd="insert",
                                      rule=rule(rid))["seq"] == rid
            # The update that makes a snapshot due takes the lane whole:
            # its reply follows the snapshot, as on every other transport.
            assert client.request(cmd="health")["last_checkpoint"] == 10
            assert len(threads) == 2 and fixture.thread not in threads
            digest = client.request(cmd="stats")["stats"]["state_digest"]
            # A crash: what is on disk now, with no close() behind it.
            crashed = tmp_path / "crashed"
            shutil.copytree(str(root / "red"), str(crashed))
            session, info = SessionStore(str(crashed)).recover()
            assert info.snapshot_sequence >= 10
            assert (info.sequence, session.state_digest()) == (12, digest)
            session.close()
            client.close()
        finally:
            fixture.stop()

    def test_point_write_runs_inline_only_under_delta_bounded_watches(
            self, tmp_path):
        # A blackhole check re-derives the whole state, so a write to a
        # session watching it takes the session's lane, never the loop;
        # a loop check costs the delta and may run inline.
        with SessionManager(str(tmp_path), defaults=dict(
                width=8, properties=())) as manager:
            holes = manager.open("holes", properties=("blackholes",))
            loops = manager.open("loops", properties=("loops",))
            request = {"cmd": "insert", "rule": rule(1)}
            assert holes.handle_request(dict(request), wait=False) == \
                (None, True)
            assert holes.session.sequence == 0
            response, keep_going = loops.handle_request(dict(request),
                                                        wait=False)
            assert response["ok"] and response["seq"] == 1 and keep_going

    def test_session_found_only_on_disk_is_recovered_on_first_use(
            self, tmp_path):
        root = str(tmp_path / "root")
        with SessionManager(root, defaults=dict(width=8, properties=())) \
                as before:
            for name in ("cold", "colder"):
                before.open(name).handle_request(
                    {"cmd": "insert", "rule": rule(1)})
        fixture = HubFixture(root)
        try:
            client = fixture.client()
            assert fixture.manager.open_names() == []
            attached = client.request(cmd="attach", session="cold")
            assert attached == {"ok": True, "session": "cold", "seq": 1,
                                "backend": "deltanet", "recovered": True}
            # ... and through a per-request "session", with no attach
            listed = client.request(cmd="query", what="rules",
                                    session="colder")
            assert listed["result"] == [1]
            assert client.request(cmd="insert", rule=rule(2),
                                  session="colder")["seq"] == 2
            for request in (dict(cmd="attach", session="ghost"),
                            dict(cmd="insert", rule=rule(3),
                                 session="ghost")):
                assert client.request(**request) == {
                    "ok": False,
                    "error": "unknown session 'ghost'; open it first "
                             "(known: cold, colder)"}
            client.close()
        finally:
            fixture.stop()


class TestStdioCompatibility:
    def test_stdio_multi_tenant_script(self, tmp_path):
        manager = SessionManager(str(tmp_path / "root"),
                                 defaults=dict(width=8, properties=()))
        hub = AsyncSessionHub(manager)
        script = "\n".join([
            json.dumps({"cmd": "open", "session": "red"}),
            json.dumps({"cmd": "insert", "rule": rule(1)}),
            json.dumps({"cmd": "open", "session": "blue"}),
            json.dumps({"cmd": "query", "what": "rules",
                        "session": "red"}),
            json.dumps({"cmd": "query", "what": "rules"}),
            json.dumps({"cmd": "shutdown"}),
            json.dumps({"cmd": "never-reached"}),
        ]) + "\n"
        out = io.StringIO()
        served = serve_hub_stdio(hub, io.StringIO(script), out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert served == 6
        assert [r["ok"] for r in responses] == [True] * 6
        assert responses[3]["result"] == [1]   # red has the rule
        assert responses[4]["result"] == []    # blue does not
        assert responses[5]["closing"] is True
