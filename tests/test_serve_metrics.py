"""The serving layer's metrics: instruments, exposition, server wiring."""

import pytest

from repro.serve import MetricsRegistry, StreamServer
from repro.serve.metrics import DEFAULT_BUCKETS


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_value_and_default_zero(self, registry):
        counter = registry.counter("c_total", "help", ("verb",))
        assert counter.value(verb="ping") == 0
        counter.inc(verb="ping")
        counter.inc(3, verb="ping")
        assert counter.value(verb="ping") == 4

    def test_label_sets_are_independent(self, registry):
        counter = registry.counter("c_total", "help", ("verb",))
        counter.inc(verb="insert")
        counter.inc(verb="query")
        assert counter.samples() == [(("insert",), 1), (("query",), 1)]

    def test_wrong_labels_are_refused(self, registry):
        counter = registry.counter("c_total", "help", ("verb",))
        with pytest.raises(ValueError):
            counter.inc(oops="x")
        with pytest.raises(ValueError):
            counter.inc()

    def test_render_escapes_label_values(self, registry):
        counter = registry.counter("c_total", "help", ("verb",))
        counter.inc(verb='we"ird\\nam\ne')
        (line,) = [l for l in counter.render() if not l.startswith("#")]
        assert line == r'c_total{verb="we\"ird\\nam\ne"} 1'


class TestHistogram:
    def test_buckets_are_cumulative(self, registry):
        histogram = registry.histogram("h_seconds", "help", ("verb",),
                                       buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value, verb="q")
        snap = histogram.snapshot(verb="q")
        assert snap["buckets"] == [1, 2, 3]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)

    def test_bucket_bounds_are_inclusive_as_in_a_walk_of_every_bound(
            self, registry):
        histogram = registry.histogram("h_seconds", "help", ())
        values = [0.0, 0.0001, 0.00011, 0.001, 0.0025, 0.3, 2.5, 2.6, 99.0]
        for value in values:
            histogram.observe(value)
        walked = [sum(1 for value in values if value <= bound)
                  for bound in DEFAULT_BUCKETS]
        assert histogram.snapshot()["buckets"] == walked
        bucket_lines = [line for line in histogram.render()
                        if line.startswith("h_seconds_bucket")]
        assert bucket_lines[:3] == ['h_seconds_bucket{le="0.0001"} 2',
                                    'h_seconds_bucket{le="0.00025"} 3',
                                    'h_seconds_bucket{le="0.0005"} 3']
        assert bucket_lines[-2:] == ['h_seconds_bucket{le="2.5"} 7',
                                     'h_seconds_bucket{le="+Inf"} 9']

    def test_render_has_inf_sum_and_count(self, registry):
        histogram = registry.histogram("h_seconds", "help", (),
                                       buckets=(0.5,))
        histogram.observe(0.25)
        histogram.observe(2.0)
        text = "\n".join(histogram.render())
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_sum 2.25" in text
        assert "h_seconds_count 2" in text

    def test_default_buckets_cover_serving_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 1.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestGauge:
    def test_watch_reports_live_values(self, registry):
        state = {"depth": 0}
        gauge = registry.gauge("g", "help", ("session",))
        gauge.watch(("red",), lambda: state["depth"])
        state["depth"] = 7
        assert 'g{session="red"} 7' in "\n".join(gauge.render())

    def test_failing_callback_skips_sample_not_scrape(self, registry):
        gauge = registry.gauge("g", "help", ("session",))
        gauge.watch(("dead",), lambda: 1 / 0)
        gauge.watch(("live",), lambda: 2)
        text = "\n".join(gauge.render())
        assert 'g{session="live"} 2' in text
        assert "dead" not in text

    def test_unwatch_removes_sample(self, registry):
        gauge = registry.gauge("g", "help", ("session",))
        gauge.watch(("red",), lambda: 1)
        gauge.unwatch(("red",))
        gauge.unwatch(("red",))  # no-op
        assert "red" not in "\n".join(gauge.render())

    def test_watch_arity_is_checked(self, registry):
        gauge = registry.gauge("g", "help", ("a", "b"))
        with pytest.raises(ValueError):
            gauge.watch(("only-one",), lambda: 0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        first = registry.counter("c_total", "help", ("verb",))
        again = registry.counter("c_total", "ignored", ("verb",))
        assert again is first
        assert registry.get("c_total") is first

    def test_type_and_label_collisions_are_refused(self, registry):
        registry.counter("c_total", "help", ("verb",))
        with pytest.raises(ValueError):
            registry.gauge("c_total", "help", ("verb",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "help", ("other",))

    def test_render_text_is_sorted_and_newline_terminated(self, registry):
        registry.counter("z_total", "last", ()).inc()
        registry.counter("a_total", "first", ()).inc()
        text = registry.render_text()
        assert text.endswith("\n")
        assert text.index("a_total") < text.index("z_total")
        assert registry.render_text() == text  # stable

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_text() == ""


class TestServerInstrumentation:
    @pytest.fixture
    def server(self, tmp_path):
        instance = StreamServer(str(tmp_path / "store"), width=8,
                                properties=(), name="red")
        yield instance
        instance.close()

    def test_requests_and_latency_are_counted_per_verb(self, server):
        server.handle_line('{"cmd": "ping"}')
        server.handle_line('{"cmd": "ping"}')
        server.handle_line('{"cmd": "stats"}')
        text = server.metrics.render_text()
        assert 'deltanet_requests_total{session="red",verb="ping"} 2' in text
        assert 'deltanet_requests_total{session="red",verb="stats"} 1' in text
        assert ('deltanet_request_seconds_count'
                '{session="red",verb="ping"} 2') in text

    def test_rejections_and_errors_are_counted(self, server):
        server.handle_line("this is not json")
        response, _ = server.handle_line('{"cmd": "insert"}')
        assert not response["ok"]
        text = server.metrics.render_text()
        assert ('deltanet_rejected_total{session="red",reason="bad-json"} 1'
                in text)
        assert 'deltanet_errors_total{session="red",verb="insert"} 1' in text

    def test_metrics_verb_returns_exposition(self, server):
        server.handle_line('{"cmd": "ping"}')
        response, keep = server.handle_line('{"cmd": "metrics"}')
        assert keep and response["ok"]
        assert 'deltanet_requests_total{session="red",verb="ping"} 1' in (
            response["metrics"])

    def test_sequence_gauge_tracks_updates_and_close_unwatches(
            self, tmp_path):
        server = StreamServer(str(tmp_path / "store"), width=8,
                              properties=(), name="red")
        try:
            server.handle_line(
                '{"cmd": "insert", "rule": {"rid": 1, "lo": 0, "hi": 1, '
                '"priority": 1, "source": "a", "target": "b"}}')
            text = server.metrics.render_text()
            assert 'deltanet_session_sequence{session="red"} 1' in text
        finally:
            server.close()
        assert 'deltanet_session_sequence{session="red"}' not in (
            server.metrics.render_text())
