"""The measurement loop behind §4.3.1: replay ops, check, time each one.

"To evaluate Delta-net's performance with respect to rule insertions and
removals, we build the delta-graph for each operation, and find in it all
forwarding loops."  :class:`SessionEngine` does that through the unified
:class:`repro.api.VerificationSession`, so *any* registered backend
(``deltanet``, ``veriflow``, ``apv``, ``netplumber``) can be
replayed and timed identically; :func:`make_engine` resolves a registry
name (plus the ``deltanet-gc`` variant) to an engine.

:class:`DeltaNetEngine` and :class:`VeriflowEngine` are the original
hand-rolled engines, kept as thin deprecated aliases for callers that
poke at ``engine.deltanet`` / ``engine.veriflow`` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Protocol, Sequence

from repro.checkers.loops import LoopChecker
from repro.core.deltanet import DeltaNet
from repro.datasets.format import Op
from repro.veriflow.verifier import VeriflowRI


class Engine(Protocol):
    """A data-plane checker that can process one operation."""

    def process(self, op: Op) -> int:
        """Apply the op, run the per-update check; return #loops found."""


class SessionEngine:
    """Replay engine over a :class:`repro.api.VerificationSession`.

    ``process`` applies one op through the session; with
    ``check_loops=True`` a :class:`repro.api.LoopProperty` subscription
    counts the *new* loop violations each update surfaces.

    With ``checkpoint_dir`` set, the engine journals every applied op
    into a :class:`repro.persist.SessionStore` and writes a full
    snapshot every ``checkpoint_every`` ops — a killed replay resumes
    from ``snapshot + journal tail`` via :meth:`resume` instead of
    rebuilding from rule zero.  A clean :meth:`close` writes a final
    checkpoint, so a later resume has nothing to replay.
    """

    def __init__(self, backend: str = "deltanet", width: int = 32,
                 check_loops: bool = True,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 1000, **options) -> None:
        from repro.api import LoopProperty, VerificationSession

        properties = (LoopProperty(),) if check_loops else ()
        if backend == "veriflow":
            # It fuses loop checking into the update itself; with
            # checking off, the native per-update sweep must be skipped
            # too or --no-check would still pay for it.
            options.setdefault("check_loops", check_loops)
        self.session = VerificationSession(
            backend, width=width, properties=properties, **options)
        self.check_loops = check_loops
        self.store = None
        self.checkpoint_every = checkpoint_every
        if checkpoint_dir is not None:
            self._attach_store(checkpoint_dir, initial_checkpoint=True)

    def _attach_store(self, directory: str, initial_checkpoint: bool) -> None:
        from repro.persist import SessionStore

        self.store = SessionStore(directory)
        if initial_checkpoint:
            self.store.checkpoint(self.session)
        self._last_checkpoint = self.session.sequence

    @classmethod
    def resume(cls, checkpoint_dir: str, check_loops: bool = True,
               checkpoint_every: int = 1000, **backend_overrides):
        """Recover a checkpointed replay: ``(engine, RecoveryInfo)``.

        The recovered session's ``sequence`` says how many ops of the
        original stream are already applied — continue from there.
        ``backend_overrides`` adjust the snapshot's saved backend
        options.
        """
        from repro.persist import SessionStore

        store = SessionStore(checkpoint_dir)
        if not store.exists():
            raise FileNotFoundError(
                f"no checkpoint to resume in {checkpoint_dir!r}")
        session, info = store.recover(**backend_overrides)
        engine = cls.__new__(cls)
        engine.session = session
        engine.check_loops = check_loops
        engine.store = store
        engine.checkpoint_every = checkpoint_every
        engine._last_checkpoint = info.snapshot_sequence
        if info.replayed:
            # The journal tail is now state the snapshot does not cover;
            # fold it in so the next crash replays only fresh ops.
            engine.checkpoint_now()
        return engine, info

    # -- the replay surface ------------------------------------------------------

    def process(self, op: Op) -> int:
        result = self.session.apply(op)
        if self.store is not None:
            self.store.record(op, self.session.sequence)
            self._maybe_checkpoint()
        return len(result.violations)

    def process_batch(self, ops: Sequence[Op]) -> int:
        """Apply a chunk of ops as one aggregated batch (see
        :func:`iter_batches` for the chunking contract)."""
        result = self.session.apply_batch(
            [op.rule for op in ops if op.is_insert],
            [op.rid for op in ops if not op.is_insert])
        if self.store is not None:
            self.store.record_batch(ops, self.session.sequence)
            self._maybe_checkpoint()
        return len(result.violations)

    # -- checkpointing -----------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if self.session.sequence - self._last_checkpoint >= self.checkpoint_every:
            self.checkpoint_now()

    def checkpoint_now(self) -> int:
        """Write a snapshot and rotate the journal; returns the sequence."""
        if self.store is None:
            raise RuntimeError("engine has no checkpoint store attached")
        sequence = self.store.checkpoint(self.session)
        self._last_checkpoint = sequence
        return sequence

    def close(self) -> None:
        if self.store is not None:
            if self.session.sequence > self._last_checkpoint:
                self.checkpoint_now()
            self.store.close()
        self.session.close()

    @property
    def backend_name(self) -> str:
        return self.session.backend_name

    @property
    def num_atoms(self) -> Optional[int]:
        """Atom count for atom-based backends, else ``None``."""
        native = self.session.native
        return getattr(native, "num_atoms", None)


def make_engine(name: str, check_loops: bool = True, width: int = 32,
                **options) -> SessionEngine:
    """Resolve an engine name via the backend registry.

    Accepts every :func:`repro.api.available_backends` name plus the
    ``deltanet-gc`` convenience alias (Delta-net with atom GC enabled).
    Unknown names raise :class:`repro.api.UnknownBackendError`.
    ``checkpoint_dir``/``checkpoint_every`` pass through to
    :class:`SessionEngine`'s snapshot/journal machinery.
    """
    if name == "deltanet-gc":
        return SessionEngine("deltanet", width=width,
                             check_loops=check_loops, gc=True, **options)
    return SessionEngine(name, width=width, check_loops=check_loops,
                         **options)


def engine_names() -> List[str]:
    """All names :func:`make_engine` accepts, sorted."""
    from repro.api import available_backends

    return sorted((*available_backends(), "deltanet-gc"))


class DeltaNetEngine:
    """Delta-net + incremental delta-graph loop checking.

    .. deprecated:: use ``make_engine("deltanet")`` / the session API.
    """

    def __init__(self, width: int = 32, gc: bool = False,
                 check_loops: bool = True) -> None:
        self.deltanet = DeltaNet(width=width, gc=gc)
        self.checker = LoopChecker(self.deltanet)
        self.check_loops = check_loops

    def process(self, op: Op) -> int:
        if op.is_insert:
            delta_graph = self.deltanet.insert_rule(op.rule)
        else:
            delta_graph = self.deltanet.remove_rule(op.rid)
        if not self.check_loops:
            return 0
        return len(self.checker.check_update(delta_graph))

    @property
    def num_atoms(self) -> int:
        return self.deltanet.num_atoms


class VeriflowEngine:
    """Veriflow-RI's per-update EC computation and per-EC graph checks.

    .. deprecated:: use ``make_engine("veriflow")`` / the session API.
    """

    def __init__(self, width: int = 32, check_loops: bool = True) -> None:
        self.veriflow = VeriflowRI(width=width)
        self.check_loops = check_loops
        self.max_affected_ecs = 0

    def process(self, op: Op) -> int:
        if op.is_insert:
            result = self.veriflow.insert_rule(op.rule, check_loops=self.check_loops)
        else:
            result = self.veriflow.remove_rule(op.rid, check_loops=self.check_loops)
        self.max_affected_ecs = max(self.max_affected_ecs, result.num_ecs)
        return len(result.loops)


@dataclass
class ReplayResult:
    """Per-operation timings plus check outcomes."""

    engine_name: str
    times: List[float] = field(default_factory=list)  # seconds per op
    loops_found: int = 0
    num_ops: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.times)

    def summary(self) -> dict:
        from repro.analysis.stats import summarize

        return summarize(self.times)


def iter_batches(ops: Iterable[Op], batch_size: int) -> Iterable[List[Op]]:
    """Chunk an op stream into batches safe for removals-first replay.

    A batch is applied as "all removals, then all insertions", so a chunk
    must never contain an operation that depends on a *later-kind* op of
    the same chunk: an insert followed (in stream order) by a removal of
    the same rule id, a re-insert of an id inserted earlier in the chunk,
    or a duplicate removal.  The chunker flushes early at each such
    conflict, preserving exact sequential semantics; remove-then-reinsert
    of the same id stays within one batch (that *is* the batch order).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    batch: List[Op] = []
    inserted: set = set()
    removed: set = set()
    for op in ops:
        conflict = (op.rid in inserted if op.is_insert
                    else op.rid in inserted or op.rid in removed)
        if batch and (conflict or len(batch) >= batch_size):
            yield batch
            batch, inserted, removed = [], set(), set()
        batch.append(op)
        (inserted if op.is_insert else removed).add(op.rid)
    if batch:
        yield batch


def replay(ops: Iterable[Op], engine: Engine,
           engine_name: Optional[str] = None,
           progress_every: int = 0,
           progress: Callable[[int], None] = None,
           batch_size: Optional[int] = None) -> ReplayResult:
    """Replay ``ops`` through ``engine``, timing each operation.

    With ``batch_size`` set (and an engine providing ``process_batch``),
    ops are applied in aggregated batches (see :func:`iter_batches`);
    each batch's wall time is split evenly across its ops so the
    per-operation statistics stay comparable with single-op replays.
    """
    result = ReplayResult(engine_name=engine_name or type(engine).__name__)
    clock = time.perf_counter
    if batch_size is not None:
        process_batch = getattr(engine, "process_batch", None)
        if process_batch is None:
            raise TypeError(
                f"{type(engine).__name__} does not support batched replay")
        for batch in iter_batches(ops, batch_size):
            start = clock()
            loops = process_batch(batch)
            elapsed = clock() - start
            result.times.extend([elapsed / len(batch)] * len(batch))
            result.loops_found += loops
            result.num_ops += len(batch)
            if progress_every and progress and \
                    result.num_ops % progress_every < len(batch):
                progress(result.num_ops)
        return result
    for index, op in enumerate(ops):
        start = clock()
        loops = engine.process(op)
        result.times.append(clock() - start)
        result.loops_found += loops
        result.num_ops += 1
        if progress_every and progress and (index + 1) % progress_every == 0:
            progress(index + 1)
    return result
