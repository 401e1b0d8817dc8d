"""Seed-driven chaos plans and the crash-replay harness.

A :class:`ChaosPlan` is a deterministic schedule of fault events over a
scenario's op trace: *before op 17, kill the daemon and recover; before
op 40, crash inside the checkpoint rename window and recover*.  Plans are
derived from a seed, so a failing campaign is reproduced by its
``(scenario seed, chaos seed)`` pair alone.

:func:`chaos_replay` is the harness: it drives one backend session
through the trace under a :class:`~repro.persist.store.SessionStore`
(checkpointing as the daemon would), injects the plan's faults, and
recovers from every simulated crash by the production recovery path —
then hands back the per-op violation stream in the same
:class:`~repro.scenarios.runner.BackendRun` shape the differential
machinery diffs against the sweep oracle.  The invariant under test:
**faults may cost time, never correctness** — the delivered stream must
match the oracle byte-for-byte, re-deliveries included.

The faults are durability faults (``crash-recover``, ``torn-tail``,
``checkpoint-crash``): each kills the whole "daemon" — the session is
abandoned mid-trace exactly as a ``kill -9`` would leave it, the
journal tail is optionally torn, and the run continues from whatever
``SessionStore.recover`` reconstructs, re-applying the lost ops.

Re-applied ops *overwrite* their slots in the delivered stream: if
recovery rebuilds dedup state exactly, the re-deliveries equal the
originals and the oracle diff stays clean — which is precisely the
property this harness exists to prove.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.faults.injector import (
    Fault, FaultInjector, InjectedCrash, crash, installed,
)

#: Every plannable fault kind, in the order plans sample them.
CHAOS_KINDS = (
    "crash-recover",          # kill the daemon; recover from disk
    "torn-tail",              # tear the journal tail, then crash+recover
    "checkpoint-crash",       # die inside checkpoint's tmp+rename window
)

#: Fault points inside ``SessionStore.checkpoint`` a plan may name.
CHECKPOINT_WINDOWS = ("tmp-written", "snapshot-renamed", "journal-tmp")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: inject ``kind`` just before op ``op_index``."""

    op_index: int
    kind: str
    #: No fault kind reads it any more, but every event still draws it:
    #: dropping the draw would reshuffle every seeded plan, and saved
    #: plans carry the field.
    shard: int = 0
    #: kind-specific refinement (for ``checkpoint-crash``: which window)
    detail: Optional[str] = None

    def describe(self) -> str:
        extra = f"/{self.detail}" if self.detail else ""
        return f"op {self.op_index}: {self.kind}{extra} (shard {self.shard})"


@dataclass
class ChaosPlan:
    """A deterministic fault schedule for one trace."""

    seed: int
    events: List[FaultEvent]

    @classmethod
    def random(cls, seed: int, num_ops: int, faults: int = 4,
               kinds: Sequence[str] = CHAOS_KINDS) -> "ChaosPlan":
        """Sample ``faults`` events over ``num_ops`` ops, reproducibly."""
        rng = random.Random(0x5EED ^ seed)
        count = max(0, min(faults, num_ops))
        indices = sorted(rng.sample(range(num_ops), count)) if count else []
        events = []
        for index in indices:
            kind = rng.choice(list(kinds))
            detail = (rng.choice(list(CHECKPOINT_WINDOWS))
                      if kind == "checkpoint-crash" else None)
            events.append(FaultEvent(op_index=index, kind=kind,
                                     shard=rng.randrange(64), detail=detail))
        return cls(seed=seed, events=events)

    def describe(self) -> str:
        if not self.events:
            return f"chaos plan seed={self.seed}: no events"
        lines = [f"chaos plan seed={self.seed}: {len(self.events)} events"]
        lines.extend("  " + event.describe() for event in self.events)
        return "\n".join(lines)

    def to_state(self) -> dict:
        return {"seed": self.seed,
                "events": [[e.op_index, e.kind, e.shard, e.detail]
                           for e in self.events]}

    @classmethod
    def from_state(cls, state: dict) -> "ChaosPlan":
        return cls(seed=state["seed"],
                   events=[FaultEvent(op_index=i, kind=k, shard=s, detail=d)
                           for i, k, s, d in state["events"]])


def _tear_journal(path: str) -> bool:
    """Truncate the journal's last op record mid-bytes (a torn tail).

    Returns False when there is nothing safe to tear (no op records yet
    — tearing into the header record would be *corruption*, a different
    failure class than the torn tail recovery is specified to absorb).
    """
    from repro.persist.journal import read_journal

    if not os.path.exists(path):
        return False
    data = read_journal(path)
    if not data.records:
        return False
    with open(path, "rb+") as stream:
        stream.truncate(max(0, data.valid - 2))
    return True


def chaos_replay(scenario, backend: str, plan: ChaosPlan, store_dir: str,
                 checkpoint_every: int = 20, **backend_options):
    """Replay ``scenario`` through ``backend`` under ``plan``'s faults.

    The session runs over a :class:`~repro.persist.store.SessionStore`
    rooted at ``store_dir`` (checkpoint cadence ``checkpoint_every``
    ops) so durability faults have real on-disk state to crash against.
    Returns a :class:`~repro.scenarios.runner.BackendRun` whose
    ``delivered`` stream is diffable against the sweep oracle and whose
    ``chaos`` field records what was injected, skipped and recovered.
    """
    from repro.api import VerificationSession
    from repro.persist.store import SessionStore
    from repro.scenarios.runner import BackendRun

    ops = scenario.ops
    run = BackendRun(backend=backend)
    injector = FaultInjector()
    injected: List[str] = []
    skipped: List[str] = []
    recoveries = 0

    # Events keyed by the op index they precede; an event scheduled past
    # the end of the trace fires before the final op instead of never.
    last = max(0, len(ops) - 1)
    schedule: Dict[int, List[FaultEvent]] = {}
    for event in plan.events:
        schedule.setdefault(min(event.op_index, last), []).append(event)
    consumed: set = set()

    session = None
    store = SessionStore(store_dir)
    start = time.perf_counter()

    def simulate_crash() -> None:
        # The "process" dies: no final checkpoint, no journal sync —
        # just release OS resources the real kill would have reclaimed.
        nonlocal session
        if session is not None:
            try:
                session.close()
            except Exception:
                pass
            session = None
        store.close()

    def recover(cause: str):
        nonlocal session, store, recoveries
        store = SessionStore(store_dir)
        session, info = store.recover(**backend_options)
        recoveries += 1
        injected.append(
            f"{cause}: recovered to seq {info.sequence} "
            f"(snapshot {info.snapshot_sequence} + {info.replayed} "
            f"replayed, torn={info.torn_tail})")
        return info

    def inject(event: FaultEvent) -> None:
        kind = event.kind
        if kind == "crash-recover":
            simulate_crash()
            recover(event.describe())
        elif kind == "torn-tail":
            simulate_crash()
            if not _tear_journal(os.path.join(store_dir, "journal.bin")):
                skipped.append(event.describe() + " [no tail to tear]")
            recover(event.describe())
        elif kind == "checkpoint-crash":
            window = event.detail or "snapshot-renamed"
            fault = injector.arm(Fault("store.checkpoint." + window, crash))
            try:
                store.checkpoint(session)
            except InjectedCrash:
                simulate_crash()
                recover(event.describe())
            else:
                skipped.append(event.describe() + " [window not hit]")
        else:
            skipped.append(event.describe() + " [unknown kind]")

    try:
        with installed(injector):
            session = VerificationSession(
                backend, width=scenario.width,
                properties=scenario.make_properties(), **backend_options)
            store.checkpoint(session)
            index = 0
            while index < len(ops):
                for event in schedule.get(index, ()):
                    if id(event) in consumed:
                        continue
                    # Consume first: recovery rewinds `index`, and a
                    # re-fired crash event would loop forever.
                    consumed.add(id(event))
                    inject(event)
                # A durability fault rewound the session: resume from
                # the first op the crash lost, not from the fault site.
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
                # One apply advances sequence by one, so this is index+1
                # — except after a recovery, where it rewinds to the
                # first op the crash lost.
                index = session.sequence
    except (Exception, InjectedCrash) as exc:
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
    }
    return run
