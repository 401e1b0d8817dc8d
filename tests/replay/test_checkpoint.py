"""SessionEngine checkpointing: crash mid-replay, resume, same results."""

import random

import pytest

from repro.datasets.format import Op
from repro.persist import SessionStore
from repro.replay.engine import SessionEngine, iter_batches, make_engine, replay
from tests.conftest import random_rules


def make_ops(seed=0x5EED, count=60):
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=8, switches=4)
    ops = []
    live = []
    for rule in rules:
        ops.append(Op.insert(rule))
        live.append(rule.rid)
        if live and rng.random() < 0.3:
            ops.append(Op.remove(live.pop(rng.randrange(len(live)))))
    return ops


@pytest.mark.parametrize("engine_name", ["deltanet", "deltanet-gc"])
@pytest.mark.parametrize("batch_size", [None, 7])
def test_crash_resume_equals_uninterrupted(tmp_path, engine_name, batch_size):
    ops = make_ops()
    if batch_size is None:
        crash_at = len(ops) // 2
    else:
        # Crash at a realized chunk boundary: batch aggregation makes
        # intra-batch transients invisible, so identical verdicts are
        # only promised when the resumed run re-chunks identically —
        # which checkpointing guarantees (snapshots land between
        # batches), and a mid-stream kill leaves the partial batch to
        # the journal, which also replays it as one batch.
        chunks = list(iter_batches(ops, batch_size))
        crash_at = sum(len(chunk) for chunk in chunks[:len(chunks) // 2])

    reference = make_engine(engine_name)
    replay(ops, reference, batch_size=batch_size)
    expected = [v.signature for v in reference.session.violations()]
    reference.close()

    # Crash: replay half, then drop the engine without close() — the
    # final checkpoint never happens, like a kill -9.
    state_dir = str(tmp_path / "ckpt")
    crashing = make_engine(engine_name, checkpoint_dir=state_dir,
                           checkpoint_every=13)
    replay(ops[:crash_at], crashing, batch_size=batch_size)
    crashing.session.close()  # release the backend only; store untouched

    resumed, info = SessionEngine.resume(state_dir)
    assert info.sequence == crash_at
    assert resumed.session.sequence == crash_at
    replay(ops[crash_at:], resumed, batch_size=batch_size)
    assert [v.signature for v in resumed.session.violations()] == expected
    assert resumed.session.sequence == len(ops)
    resumed.close()


def test_clean_close_checkpoints_everything(tmp_path):
    ops = make_ops(count=20)
    state_dir = str(tmp_path / "ckpt")
    engine = make_engine("deltanet", checkpoint_dir=state_dir,
                         checkpoint_every=1000)
    replay(ops, engine)
    engine.close()
    resumed, info = SessionEngine.resume(state_dir)
    assert info.replayed == 0  # the close() checkpoint covered the tail
    assert info.sequence == len(ops)
    resumed.close()


def test_resume_without_checkpoint_fails(tmp_path):
    with pytest.raises(FileNotFoundError):
        SessionEngine.resume(str(tmp_path / "nothing"))


def test_resume_forwards_backend_overrides(tmp_path):
    state_dir = str(tmp_path / "ckpt")
    engine = SessionEngine("deltanet", width=8, gc=True,
                           checkpoint_dir=state_dir)
    for op in make_ops(count=6)[:6]:
        engine.process(op)
    engine.close()
    # The overrides reach the backend factory: one it lacks is refused.
    with pytest.raises(TypeError):
        SessionEngine.resume(state_dir, no_such_option=True)
    resumed, _info = SessionEngine.resume(state_dir, gc=True)
    assert resumed.session.backend_name == "deltanet"
    assert resumed.session.native.gc
    assert resumed.session.sequence == 6
    resumed.close()


def test_resume_folds_journal_tail_into_snapshot(tmp_path):
    ops = make_ops(count=20)
    state_dir = str(tmp_path / "ckpt")
    engine = make_engine("deltanet", checkpoint_dir=state_dir,
                         checkpoint_every=7)
    replay(ops, engine)
    # simulate crash: no close()
    engine.session.close()
    resumed, info = SessionEngine.resume(state_dir)
    assert info.replayed > 0
    resumed.close()
    # The resume checkpointed the folded state: recovering again has
    # nothing left to replay.
    _session, info2 = SessionStore(state_dir).recover()
    assert info2.replayed == 0
    assert info2.sequence == info.sequence
