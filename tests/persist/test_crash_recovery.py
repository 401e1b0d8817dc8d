"""Crash-recovery property test (hypothesis).

For a random trace and a random crash point: snapshot the session at
the crash point, reload it, replay the suffix, and require the
loops/blackholes/reachability results — both the one-shot queries and
the per-update violation deliveries — to equal the uninterrupted run's,
on Delta-net with and without atom GC.
"""

import io
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    BlackholeProperty, LoopProperty, ReachabilityProperty,
    VerificationSession,
)
from repro.persist.snapshot import dumps_session, load_session
from repro.query import Loops, Reachable
from tests.conftest import random_rules

BACKENDS = [
    ("deltanet", {}),
    ("deltanet", {"gc": True}),
]
BACKEND_IDS = ["deltanet", "deltanet-gc"]


def build_trace(seed: int, count: int):
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=8, switches=4)
    trace = []
    live = []
    for rule in rules:
        trace.append(("+", rule))
        live.append(rule.rid)
        if live and rng.random() < 0.35:
            trace.append(("-", live.pop(rng.randrange(len(live)))))
    return trace


def fresh_properties():
    return (LoopProperty(), BlackholeProperty(),
            ReachabilityProperty("s0", "s2"))


def run_ops(session, trace):
    deliveries = []
    for kind, payload in trace:
        result = (session.insert(payload) if kind == "+"
                  else session.remove(payload))
        deliveries.extend(v.signature for v in result.violations)
    return deliveries


def final_verdicts(session):
    return {
        "loops": sorted(map(repr, session.query(Loops()).violations)),
        "blackholes": sorted(
            (repr(node), tuple(map(tuple, spans)))
            for node, spans in session.find_blackholes().items()),
        "reachable": session.query(Reachable("s0", "s2")).spans,
        "deliveries": [v.signature for v in session.violations()],
        "rules": sorted(session.rules()),
    }


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       count=st.integers(min_value=4, max_value=24),
       crash_fraction=st.floats(min_value=0.0, max_value=1.0))
@pytest.mark.parametrize("backend,options", BACKENDS, ids=BACKEND_IDS)
def test_crash_anywhere_recovers_exactly(backend, options, seed, count,
                                         crash_fraction):
    trace = build_trace(seed, count)
    crash_at = round(crash_fraction * len(trace))

    uninterrupted = VerificationSession(
        backend, width=8, properties=fresh_properties(), **options)
    log_full = run_ops(uninterrupted, trace)

    crashing = VerificationSession(
        backend, width=8, properties=fresh_properties(), **options)
    log_prefix = run_ops(crashing, trace[:crash_at])
    blob = dumps_session(crashing)
    crashing.close()

    recovered = load_session(io.BytesIO(blob))
    log_suffix = run_ops(recovered, trace[crash_at:])

    assert log_prefix + log_suffix == log_full
    assert final_verdicts(recovered) == final_verdicts(uninterrupted)
    recovered.check_invariants()
    uninterrupted.close()
    recovered.close()
