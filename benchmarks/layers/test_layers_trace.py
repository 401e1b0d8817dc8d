"""Span recorders on a synthetic call tree: plain, generator and coroutine
callables, and a parent handed across a thread hop."""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from layers.trace import (
    Tracer, layer_totals, outermost_time, self_times, window,
)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _tree(tracer):
    """root -> (leaf, gen -> leaf per item, leaf); returns the wrapped root."""
    leaf = tracer.wrap("low", "leaf", lambda: _busy(0.004))

    def items():
        _busy(0.002)
        for number in range(3):
            leaf()
            yield number
        _busy(0.002)

    gen = tracer.wrap("mid", "items", items)

    def root():
        _busy(0.003)
        leaf()
        collected = []
        for number in gen():
            _busy(0.005)        # the consumer's time, not the generator's
            collected.append(number)
        leaf()
        return collected

    return tracer.wrap("top", "root", root)


def test_self_times_sum_to_the_root_and_parents_are_exact():
    tracer = Tracer()
    root = _tree(tracer)
    assert root() == [0, 1, 2] and not tracer.spans     # not recording yet
    tracer.recording = True
    assert root() == [0, 1, 2]
    tracer.recording = False

    spans = tracer.finished()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    (top,) = by_name["root"]
    assert top.parent is None and top.op == top.id
    assert all(span.op == top.id for span in spans)

    # One span per next(): three yields and the StopIteration; one call.
    gens = by_name["items"]
    assert len(gens) == 4 and sum(span.calls for span in gens) == 1
    assert all(span.parent == top.id for span in gens)
    # Two leaves directly under root, one under each of the first three
    # next() calls; the consumer's 5 ms slices belong to root alone.
    parents = sorted(span.parent for span in by_name["leaf"])
    assert parents == sorted([top.id, top.id] + [g.id for g in gens[:3]])

    own = self_times(spans)
    total = sum(own.values())
    assert abs(total - (top.end - top.start)) <= 0.01 * (top.end - top.start)
    totals = layer_totals(spans)
    assert totals["top"]["calls"] == 1 and totals["mid"]["calls"] == 1
    assert totals["low"]["calls"] == 5
    # The busy loops are lower bounds (preemption only adds).  root's own
    # 3 ms plus the 3 x 5 ms it spends consuming are root's self time;
    # had the generator been timed from construction to exhaustion they
    # would have landed in "mid" and root would be left with ~3 ms.
    assert totals["top"]["self_s"] >= 0.0175
    assert totals["mid"]["self_s"] >= 0.0039
    assert totals["low"]["self_s"] >= 0.0199
    assert abs(outermost_time(spans, ("mid", "low"))
               - (totals["mid"]["self_s"] + totals["low"]["self_s"])) < 1e-9


def test_coroutines_keep_their_parent_per_task():
    tracer = Tracer()

    async def leaf(delay):
        await asyncio.sleep(delay)

    traced_leaf = tracer.wrap("low", "leaf", leaf)

    async def request(delay):
        await traced_leaf(delay)
        await traced_leaf(delay)

    traced_request = tracer.wrap("top", "request", request)

    async def drive():
        await asyncio.gather(traced_request(0.02), traced_request(0.01))

    tracer.recording = True
    asyncio.run(drive())
    spans = tracer.finished()
    roots = [span for span in spans if span.name == "request"]
    assert len(roots) == 2 and all(span.parent is None for span in roots)
    for root in roots:
        children = [span for span in spans if span.parent == root.id]
        assert len(children) == 2
        assert all(span.op == root.id and span.name == "leaf"
                   and root.start <= span.start and span.end <= root.end
                   for span in children)
        # Timed across the awaits: the span covers both sleeps.
        covered = sum(span.end - span.start for span in children)
        assert root.end - root.start >= covered > 0.015


def test_parent_follows_a_request_across_a_thread_hop():
    tracer = Tracer()

    def serve(request):
        _busy(0.002)
        return request["cmd"]

    traced_serve = tracer.wrap(
        "server", "serve", serve, adopt=lambda args: id(args[0]),
        label=lambda args: args[0]["cmd"])

    with ThreadPoolExecutor(max_workers=1) as pool:
        def hub(request):
            return pool.submit(traced_serve, request).result()

        traced_hub = tracer.wrap("hub", "hub", hub,
                                 publish=lambda args: id(args[0]))
        tracer.recording = True
        assert traced_hub({"cmd": "insert"}) == "insert"
        assert traced_serve({"cmd": "ping"}) == "ping"      # nobody published

    spans = tracer.finished()
    hub_span = next(s for s in spans if s.name == "hub")
    adopted = next(s for s in spans if s.name == "serve:insert")
    orphan = next(s for s in spans if s.name == "serve:ping")
    assert adopted.parent == hub_span.id and adopted.op == hub_span.id
    assert orphan.parent is None and orphan.op == orphan.id
    assert window(spans, hub_span.start, hub_span.end) \
        == [adopted, hub_span]


def test_install_and_uninstall_restore_the_originals():
    from repro.api.backends import DeltaNetBackend
    from repro.checkers import loops, whatif
    from repro.core.deltanet import DeltaNet

    originals = (DeltaNet.insert_rule, loops.find_forwarding_loops,
                 whatif.find_forwarding_loops)
    assert "insert" not in vars(DeltaNetBackend)    # inherited
    tracer = Tracer()
    tracer.install()
    try:
        assert DeltaNet.insert_rule is not originals[0]
        # Every binding of a module-level function is replaced.
        assert loops.find_forwarding_loops is whatif.find_forwarding_loops
        assert loops.find_forwarding_loops is not originals[1]
        assert "insert" in vars(DeltaNetBackend)
    finally:
        tracer.uninstall()
    assert (DeltaNet.insert_rule, loops.find_forwarding_loops,
            whatif.find_forwarding_loops) == originals
    assert "insert" not in vars(DeltaNetBackend)
