"""Structure-aware state corruption and the corruption-replay harness.

Where :mod:`repro.faults.chaos` kills processes at unfortunate moments,
this module damages *state itself*: a flipped byte inside a snapshot, a
mutated journal payload, an in-memory label that silently drifts from
its maintained digest.  The invariant under test is
stricter than chaos's "recovery preserves the stream":

    **loud failure or correct answers — never silently wrong.**

A corrupted file may make recovery fail (``SnapshotError``,
``JournalCorruption``) — that is a *pass*, provided the harness can
rebuild from rule zero and the delivered violation stream still matches
the fault-free sweep oracle byte-for-byte.  What must never happen is a
corrupted store loading cleanly into a session that then answers
queries from subtly wrong state; the per-op oracle diff catches exactly
that.

Fault kinds (sampled by :class:`~repro.faults.chaos.ChaosPlan` with
``kinds=CORRUPTION_KINDS``):

* ``flip_snapshot_byte`` — crash the session, XOR one bit of one byte
  anywhere in ``snapshot.bin``, recover.  The container CRCs or the
  integrity digest trailer must reject real damage; flips landing in
  slack bytes may load cleanly, and then the state must be *identical*.
* ``flip_journal_payload`` — crash, mutate one byte of the journal past
  the header record (an op payload, its length prefix or its CRC),
  recover.  Recovery must either truncate to the valid prefix (the
  harness re-applies the lost tail) or refuse loudly — never replay a
  damaged op as something else.
* ``desync_label`` — toggle one atom's membership in one label of an
  in-process :class:`~repro.core.deltanet.DeltaNet` (``deltanet``)
  *without* updating its digest: simulated memory corruption.  A full
  scrub pass (:class:`repro.integrity.Scrubber`) must report the state
  unclean; the harness then rebuilds from rule zero, the same loud path
  a refused recovery takes.  On backends without Delta-net labels the
  event is recorded as skipped, keeping plans portable.
"""

from __future__ import annotations

import os
import random
import time
from typing import List

from repro.faults.chaos import ChaosPlan, FaultEvent

#: Every corruption fault kind, in the order plans sample them.
CORRUPTION_KINDS = (
    "flip_snapshot_byte",   # XOR one bit of the snapshot file
    "flip_journal_payload", # XOR one bit of a journal op record
    "desync_label",         # silently diverge one label from its digest
)


def flip_byte(path: str, rng: random.Random,
              start: int = 0) -> int:
    """XOR one random bit of one byte of ``path`` at offset >= ``start``.

    Returns the flipped offset, or -1 when the file has no bytes in
    range (nothing to corrupt).
    """
    if not os.path.exists(path):
        return -1
    size = os.path.getsize(path)
    if size <= start:
        return -1
    offset = rng.randrange(start, size)
    with open(path, "rb+") as stream:
        stream.seek(offset)
        byte = stream.read(1)[0]
        stream.seek(offset)
        stream.write(bytes([byte ^ (1 << rng.randrange(8))]))
    return offset


def desync_label(net) -> bool:
    """Corrupt one label entry of ``net`` *bypassing* digest maintenance
    — the stand-in for a buggy delta path or in-memory bit rot.
    Toggles atom 0's membership directly on an ``AtomRuns`` bucket, so
    the net answers queries silently wrong until scrubbed.  Returns
    whether any entry could be corrupted (a net without labels cannot
    desynchronize)."""
    for runs in net.findex.by_link.values():
        if 0 not in runs:
            runs.add(0)
            return True
    for runs in net.findex.by_link.values():
        if len(runs) > 1 and 0 in runs:
            runs.discard(0)
            return True
    return False


def journal_header_end(path: str) -> int:
    """The byte offset where the journal's op records begin.

    ``flip_journal_payload`` aims past the header record so it damages
    an *op*, not the file's identity — header damage is a different
    (and already loud) failure.  Falls back to 0 for unreadable files.
    """
    from repro.persist.journal import _try_record

    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except OSError:
        return 0
    end = _try_record(data, 0)
    return end if end is not None else 0


def corruption_plan(seed: int, num_ops: int, faults: int = 4) -> ChaosPlan:
    """A seed-derived schedule of corruption events over a trace."""
    return ChaosPlan.random(seed, num_ops, faults=faults,
                            kinds=CORRUPTION_KINDS)


def corruption_replay(scenario, backend: str, plan: ChaosPlan,
                      store_dir: str, checkpoint_every: int = 20,
                      **backend_options):
    """Replay ``scenario`` through ``backend`` while corrupting state.

    Same shape as :func:`repro.faults.chaos.chaos_replay`: the session
    runs over a :class:`~repro.persist.store.SessionStore` in
    ``store_dir``, the plan's events fire just before their op index,
    and the result is a :class:`~repro.scenarios.runner.BackendRun`
    whose ``delivered`` stream is diffed against the fault-free oracle.

    When a corrupted store makes recovery fail *loudly*, the harness
    rebuilds from rule zero — fresh store, fresh session, every prior
    op re-applied (overwriting its slot in the delivered stream) — and
    continues.  Data loss through a loud channel is an accepted cost;
    only a silent divergence fails the diff.
    """
    from repro.api import VerificationSession
    from repro.persist.store import SessionStore
    from repro.scenarios.runner import BackendRun

    ops = scenario.ops
    run = BackendRun(backend=backend)
    rng = random.Random(0xC0DE ^ plan.seed)
    injected: List[str] = []
    skipped: List[str] = []
    recoveries = 0
    rebuilds = 0
    detections = 0

    last = max(0, len(ops) - 1)
    schedule = {}
    for event in plan.events:
        schedule.setdefault(min(event.op_index, last), []).append(event)
    consumed: set = set()

    session = None
    store = SessionStore(store_dir)
    start = time.perf_counter()

    def simulate_crash() -> None:
        nonlocal session
        if session is not None:
            try:
                session.close()
            except Exception:
                pass
            session = None
        store.close()

    def recover(cause: str) -> None:
        nonlocal session, store, recoveries
        store = SessionStore(store_dir)
        session, info = store.recover(**backend_options)
        recoveries += 1
        injected.append(
            f"{cause}: recovered to seq {info.sequence} "
            f"(snapshot {info.snapshot_sequence} + {info.replayed} "
            f"replayed, torn={info.torn_tail}, "
            f"corrupt_records={info.corrupt_records})")

    def rebuild(cause: str, target: int) -> None:
        """Loud recovery failure: start over from rule zero and replay
        the trace prefix — the only honest answer once the store is
        untrusted, and still stream-preserving because a fresh session
        re-derives every delivery the originals made."""
        nonlocal session, store, rebuilds
        rebuilds += 1
        for name in os.listdir(store_dir):
            try:
                os.remove(os.path.join(store_dir, name))
            except OSError:
                pass
        store = SessionStore(store_dir)
        session = VerificationSession(
            backend, width=scenario.width,
            properties=scenario.make_properties(), **backend_options)
        store.checkpoint(session)
        for index in range(target):
            result = session.apply(ops[index])
            signatures = frozenset(
                violation.signature for violation in result.violations)
            if index < len(run.delivered):
                run.delivered[index] = signatures
            else:
                run.delivered.append(signatures)
            store.record(ops[index], session.sequence)
        injected.append(f"{cause}: rebuilt from rule zero "
                        f"({target} ops re-applied)")

    def inject(event: FaultEvent) -> None:
        nonlocal detections
        kind = event.kind
        if kind in ("flip_snapshot_byte", "flip_journal_payload"):
            target = session.sequence
            if kind == "flip_snapshot_byte":
                # Checkpoint first so recovery depends squarely on the
                # flipped snapshot, not an older intact one plus a
                # journal tail that papers over the damage.
                store.checkpoint(session)
                simulate_crash()
                path = os.path.join(store_dir, "snapshot.bin")
                offset = flip_byte(path, rng)
            else:
                # No checkpoint: the journal must still hold op records
                # (a checkpoint would rotate it empty).  The flip lands
                # past the header, inside an op record's bytes.
                simulate_crash()
                path = os.path.join(store_dir, "journal.bin")
                offset = flip_byte(path, rng,
                                   start=journal_header_end(path))
            if offset < 0:
                skipped.append(event.describe() + " [nothing to flip]")
                recover(event.describe())
                return
            try:
                recover(f"{event.describe()} @byte {offset}")
            except Exception as exc:
                # The loud path: corruption detected and refused.  Any
                # exception qualifies — the invariant is *loud or
                # correct*, and a recovery that crashes (SnapshotError,
                # JournalCorruption, or a decode error deeper in the
                # stack) is as loud as it gets.  Only a recovery that
                # *succeeds* into wrong state can fail the oracle diff.
                injected.append(f"{event.describe()} @byte {offset}: "
                                f"LOUD {type(exc).__name__}: {exc}")
                rebuild(event.describe(), target)
        elif kind == "desync_label":
            native = session.native
            if not hasattr(native, "findex"):
                skipped.append(event.describe() + " [no Delta-net labels]")
                return
            if session.state_digest() is None:
                skipped.append(event.describe() + " [digests disabled]")
                return
            if not desync_label(native):
                skipped.append(event.describe() + " [no labels]")
                return
            # One full scrub pass must detect the drift; a clean report
            # means the corruption went undetected — fail loudly now
            # rather than let the oracle diff catch it later.
            from repro.integrity import Scrubber

            report = Scrubber(session).run_full()
            if report.ok:
                raise AssertionError(
                    f"label desync was not detected by a full scrub "
                    f"pass: {dict(report)}")
            detections += 1
            injected.append(f"{event.describe()}: scrub detected "
                            f"{len(report['mismatches'])} mismatch(es)")
            # The state is untrusted: take the loud path.
            target = session.sequence
            simulate_crash()
            rebuild(event.describe(), target)
        else:
            skipped.append(event.describe() + " [unknown kind]")

    try:
        session = VerificationSession(
            backend, width=scenario.width,
            properties=scenario.make_properties(), **backend_options)
        store.checkpoint(session)
        index = 0
        while index < len(ops):
            for event in schedule.get(index, ()):
                if id(event) in consumed:
                    continue
                consumed.add(id(event))
                inject(event)
            index = session.sequence
            op = ops[index]
            result = session.apply(op)
            signatures = frozenset(
                violation.signature for violation in result.violations)
            if index < len(run.delivered):
                run.delivered[index] = signatures
            else:
                run.delivered.append(signatures)
            store.record(op, session.sequence)
            if checkpoint_every and session.sequence % checkpoint_every == 0:
                store.checkpoint(session)
            index = session.sequence
    except Exception as exc:
        run.error = f"{type(exc).__name__}: {exc}"
    finally:
        if session is not None:
            try:
                session.close()
            except Exception:
                pass
        store.close()
    run.seconds = time.perf_counter() - start
    run.chaos = {
        "plan": plan.to_state(),
        "injected": injected,
        "skipped": skipped,
        "recoveries": recoveries,
        "rebuilds": rebuilds,
        "detections": detections,
    }
    return run
