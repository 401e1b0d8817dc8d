"""Daemon fault behavior: backpressure, health, drain, rude clients."""

import json
import socket
import threading
import time

import pytest

from repro.serve import (
    DrainRequested, StreamServer, install_sigterm_drain,
    request_over_socket, serve_socket, serve_stdio,
)


def rule_payload(rid, prefix, priority, source, target):
    return {"rid": rid, "prefix": prefix, "priority": priority,
            "source": source, "target": target}


def send(server, request):
    return server.handle_line(json.dumps(request))


@pytest.fixture
def server(tmp_path):
    instance = StreamServer(str(tmp_path / "state"), width=8)
    yield instance
    instance.close()


class TestHealth:
    def test_health_reports_the_basics(self, server):
        response, keep_going = send(server, {"cmd": "health"})
        assert keep_going
        assert response["ok"] and response["status"] == "ok"
        assert response["seq"] == 0
        assert response["backend"] == "deltanet"
        assert response["queue_depth"] == 0
        assert response["max_queue"] == server.max_queue

    def test_health_answers_while_the_session_is_held(self, server):
        # The whole point of the lock-free path: a wedged update must
        # not make the daemon unmonitorable.
        acquired = threading.Event()
        release = threading.Event()

        def hold():
            with server._lock:
                acquired.set()
                release.wait(10)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        assert acquired.wait(5)
        try:
            response, _ = send(server, {"cmd": "health"})
            assert response["ok"]
        finally:
            release.set()
            thread.join(5)

    def test_health_reports_worker_state(self, tmp_path):
        # No backend runs worker processes; the field stays on the wire.
        server = StreamServer(str(tmp_path / "state"), engine="deltanet",
                              width=8)
        try:
            response, _ = send(server, {"cmd": "health"})
            assert response["workers"] == {}
            assert response["status"] == "ok"
        finally:
            server.close()


class TestBackpressure:
    def test_overloaded_queue_is_refused_immediately(self, tmp_path):
        server = StreamServer(str(tmp_path / "state"), width=8, max_queue=0,
                              retry_after=2.5)
        try:
            response, keep_going = send(server, {"cmd": "ping"})
            assert keep_going  # refusal, not disconnection
            assert not response["ok"]
            assert response["error"] == "overloaded"
            assert response["retry_after"] == 2.5
            # health is exempt from admission control
            response, _ = send(server, {"cmd": "health"})
            assert response["ok"]
        finally:
            server.close()

    def test_request_timeout_yields_busy_not_a_hang(self, tmp_path):
        server = StreamServer(str(tmp_path / "state"), width=8,
                              request_timeout=0.05)
        acquired = threading.Event()
        release = threading.Event()

        def hold():
            with server._lock:
                acquired.set()
                release.wait(10)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        assert acquired.wait(5)
        try:
            start = time.monotonic()
            response, keep_going = send(server, {"cmd": "ping"})
            assert time.monotonic() - start < 5
            assert keep_going
            assert not response["ok"] and "busy" in response["error"]
            assert response["retry_after"] == server.retry_after
        finally:
            release.set()
            thread.join(5)
            server.close()

    def test_stats_and_updates_flow_normally_under_limits(self, tmp_path):
        server = StreamServer(str(tmp_path / "state"), width=8,
                              request_timeout=5.0, max_queue=2)
        try:
            response, _ = send(server, {
                "cmd": "insert",
                "rule": rule_payload(1, "0/1", 5, "a", "b")})
            assert response["ok"] and response["seq"] == 1
        finally:
            server.close()


class TestDrain:
    def test_drain_refuses_new_work_but_health_still_answers(self, server):
        server.request_drain()
        response, keep_going = send(server, {"cmd": "ping"})
        assert not response["ok"] and response["error"] == "draining"
        assert not keep_going
        response, keep_going = send(server, {"cmd": "health"})
        assert response["ok"] and response["status"] == "draining"
        assert not keep_going  # transports exit after reporting

    def test_stdio_drain_exits_the_loop_with_final_checkpoint(self, tmp_path):
        import io

        state = str(tmp_path / "state")
        server = StreamServer(state, width=8, checkpoint_every=1000)
        requests = "\n".join(json.dumps(r) for r in [
            {"cmd": "insert", "rule": rule_payload(1, "0/1", 5, "a", "b")},
            {"cmd": "ping"},
            {"cmd": "never-dispatched"},
        ])

        class DrainingStream:
            """Yields two requests, then SIGTERM 'arrives' (simulated)."""

            def __init__(self, lines):
                self.lines = lines
                self.count = 0

            def readline(self, size=-1):
                if self.count == 2:
                    server.request_drain()
                    raise DrainRequested()
                line = self.lines[self.count]
                self.count += 1
                return line + "\n"

        out = io.StringIO()
        served = serve_stdio(server, DrainingStream(requests.splitlines()),
                             out)
        assert served == 2
        server.close()
        # The final checkpoint happened: a fresh start sees the insert
        # even though checkpoint_every was never reached.
        recovered = StreamServer(state, width=8)
        assert recovered.session.sequence == 1
        assert recovered.session.num_rules == 1
        recovered.close()

    def test_close_is_idempotent(self, tmp_path):
        server = StreamServer(str(tmp_path / "state"), width=8)
        server.close()
        server.close()

    def test_install_sigterm_drain_outside_main_thread_is_refused(
            self, server):
        result = {}

        def try_install():
            result["handler"] = install_sigterm_drain(server)

        thread = threading.Thread(target=try_install)
        thread.start()
        thread.join(5)
        assert result["handler"] is None  # refused, not crashed

    def test_sigterm_handler_drains(self, server):
        import signal

        previous = install_sigterm_drain(server)
        try:
            assert not server.draining
            with pytest.raises(DrainRequested):
                signal.raise_signal(signal.SIGTERM)
            assert server.draining
        finally:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)

    def test_repeated_sigterm_while_draining_is_a_no_op(self, server):
        # Supervisors re-signal (systemd, timeout).  A second TERM must
        # not raise again — it would land inside close()'s final
        # checkpoint and abort it.
        import signal

        previous = install_sigterm_drain(server)
        try:
            with pytest.raises(DrainRequested):
                signal.raise_signal(signal.SIGTERM)
            signal.raise_signal(signal.SIGTERM)  # no raise
            assert server.draining
        finally:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)

    def test_sigterm_mid_dispatch_defers_the_raise(self, server):
        import signal

        previous = install_sigterm_drain(server)
        try:
            server._busy = True  # as if a dispatch were running
            signal.raise_signal(signal.SIGTERM)  # no raise
            assert server.draining
        finally:
            server._busy = False
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


class TestRudeClients:
    def test_abrupt_disconnect_does_not_kill_the_daemon(self, tmp_path):
        lines = []
        server = StreamServer(str(tmp_path / "state"), width=8,
                              log=lines.append)
        address = {}
        ready = threading.Event()

        def on_ready(host, port):
            address["host"], address["port"] = host, port
            ready.set()

        thread = threading.Thread(target=serve_socket, args=(server,),
                                  kwargs=dict(port=0, ready=on_ready),
                                  daemon=True)
        thread.start()
        assert ready.wait(10)

        # Client one: send a request, then vanish without reading the
        # response (RST via SO_LINGER 0).
        rude = socket.create_connection((address["host"], address["port"]),
                                        timeout=5)
        rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        rude.sendall((json.dumps(
            {"cmd": "insert",
             "rule": rule_payload(1, "0/1", 5, "a", "b")}) + "\n")
            .encode())
        time.sleep(0.2)
        rude.close()

        # Client two: the daemon is still alive and the rude client's
        # update landed (applied + journaled before the response died).
        responses = request_over_socket(address["host"], address["port"], [
            {"cmd": "query", "what": "rules"},
            {"cmd": "shutdown"},
        ])
        thread.join(10)
        server.close()
        assert responses[0]["ok"]
        assert responses[0]["result"] == [1]
