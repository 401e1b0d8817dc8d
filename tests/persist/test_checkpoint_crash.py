"""Crashes *inside* checkpoint rotation (the tmp+rename windows).

``SessionStore.checkpoint`` promises that at every instant the
directory holds a loadable snapshot plus a journal tail that
reconstructs the session.  These tests aim an injected kill at each
window of that promise — tmp written but not renamed, snapshot renamed
but journal not rotated, fresh journal staged but not in place — on
Delta-net with and without atom GC, and require recovery plus a replayed suffix
to deliver the exact violation stream of an uninterrupted run.
"""

import random

import pytest

from repro.api import LoopProperty, VerificationSession
from repro.datasets.format import Op
from repro.faults.chaos import CHECKPOINT_WINDOWS
from repro.faults.injector import Fault, FaultInjector, InjectedCrash, \
    crash, installed
from repro.persist.store import SessionStore
from tests.conftest import random_rules

BACKENDS = [
    ("deltanet", {}),
    ("deltanet", {"gc": True}),
]
BACKEND_IDS = ["deltanet", "gc"]


def build_ops(seed, count=30):
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=8, switches=4)
    ops, live = [], []
    for rule in rules:
        ops.append(Op.insert(rule))
        live.append(rule.rid)
        if live and rng.random() < 0.3:
            ops.append(Op.remove(live.pop(rng.randrange(len(live)))))
    return ops


def stream_of(session, ops, store=None):
    """Apply ops (journaling when a store is given); per-op signatures."""
    delivered = []
    for op in ops:
        result = session.apply(op)
        delivered.append(frozenset(v.signature for v in result.violations))
        if store is not None:
            store.record(op, session.sequence)
    return delivered


def fault_free_stream(backend, options, ops):
    with VerificationSession(backend, width=8, properties=[LoopProperty()],
                             **options) as session:
        return stream_of(session, ops)


@pytest.mark.parametrize("backend,options", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("window", CHECKPOINT_WINDOWS)
def test_crash_in_rotation_window_recovers_exactly(backend, options,
                                                   window, tmp_path, seed=9):
    ops = build_ops(seed)
    crash_at = len(ops) // 2
    expected = fault_free_stream(backend, options, ops)

    store = SessionStore(str(tmp_path))
    session = VerificationSession(backend, width=8,
                                  properties=[LoopProperty()], **options)
    store.checkpoint(session)
    delivered = stream_of(session, ops[:crash_at], store)

    injector = FaultInjector([Fault("store.checkpoint." + window, crash)])
    with installed(injector):
        with pytest.raises(InjectedCrash):
            store.checkpoint(session)
    # The "process" dies inside the window: no teardown, no final sync.
    session.close()
    store.close()

    store = SessionStore(str(tmp_path))
    session, info = store.recover(**options)
    # Whichever side of the rename the crash landed on, the snapshot on
    # disk is loadable and the journal fills the gap to the crash point.
    assert info.sequence == crash_at
    if window == "tmp-written":
        # Not yet renamed: the recovery snapshot is the *initial* one.
        assert info.snapshot_sequence == 0
        assert info.replayed == crash_at
    else:
        # Renamed: the new snapshot took; stale/absent journal records
        # must not double-apply (filtered by sequence).
        assert info.snapshot_sequence == crash_at

    delivered += stream_of(session, ops[crash_at:], store)
    session.close()
    store.close()
    assert delivered == expected


@pytest.mark.parametrize("backend,options", BACKENDS, ids=BACKEND_IDS)
def test_torn_tail_during_rotation_crash(backend, options, tmp_path):
    """A torn journal record *and* an unrenamed snapshot tmp at once."""
    from repro.faults.chaos import _tear_journal

    ops = build_ops(31)
    crash_at = 2 * len(ops) // 3
    expected = fault_free_stream(backend, options, ops)

    store = SessionStore(str(tmp_path))
    session = VerificationSession(backend, width=8,
                                  properties=[LoopProperty()], **options)
    store.checkpoint(session)
    delivered = stream_of(session, ops[:crash_at], store)
    store.sync()
    injector = FaultInjector([Fault("store.checkpoint.tmp-written", crash)])
    with installed(injector):
        with pytest.raises(InjectedCrash):
            store.checkpoint(session)
    session.close()
    store.close()
    assert _tear_journal(str(tmp_path / "journal.bin"))

    store = SessionStore(str(tmp_path))
    session, info = store.recover(**options)
    assert info.torn_tail
    # The torn record lost exactly one op; recovery stops one short.
    assert info.sequence == crash_at - 1
    delivered = delivered[:info.sequence]
    delivered += stream_of(session, ops[info.sequence:], store)
    session.close()
    store.close()
    assert delivered == expected
