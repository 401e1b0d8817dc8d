"""Process-parallel sharding: Libra's map/reduce with real workers.

:class:`ParallelShardedDeltaNet` runs one OS process per header-space
shard.  Each worker owns an independent :class:`~repro.core.deltanet.
DeltaNet` for its slice and serves commands over a dedicated duplex
pipe.  The parent performs the *map* step — clipping rules to shards,
exactly as :class:`~repro.libra.sharding.ShardedDeltaNet` does — then
fans a batch (or a query) out to every touched worker and merges the
replies: the *reduce* step.  Because workers are separate processes,
the per-shard update sweeps and loop checks run truly concurrently,
GIL-free.

Each step is written once and shared by the fleet and its speculative
forks (:meth:`ParallelShardedDeltaNet.speculate`):

* one shard-query table (``_SHARD_QUERIES``): a worker answers a query
  from the same per-net function whether it reads its live shard or one
  of its forks,
* one apply-then-check function: a sub-batch's loops are chased inside
  the worker, so workers return canonical loop cycles, not
  delta-graphs, keeping the pipe traffic small,
* one set of fleet-wide reducers (:class:`_ShardFleet`) over a
  per-class gather of per-shard answers,
* one supervised fan-out (:meth:`ParallelShardedDeltaNet._fan_out`)
  carrying per-shard arguments, through which every update and query
  reaches the workers concurrently.

Shard workers are *supervised*.  The parent detects dead and hung
workers (pipe EOF, broken pipe, or a per-request ``deadline``) and
recovers them transparently: the worker is restarted with exponential
backoff, re-seeded from the last per-shard snapshot plus a bounded
in-memory replay buffer of post-snapshot sub-batches, and the in-flight
command is re-issued.  Re-seeding reconstructs the shard's
*pre-command* state, so a command lost with the worker's memory applies
exactly once.  After ``max_restarts`` consecutive failures the shard
degrades to a re-seeded in-process endpoint — an observable state
(:attr:`~ParallelShardedDeltaNet.degraded`, :attr:`events`, the ``log``
callback), never a silent one.  Only application-level errors the
worker *reports* (a desynchronized sub-batch) still poison the update
surface, as before: those mean divergent state, not a dead process.

When worker processes cannot be spawned at all (restricted sandboxes,
platforms without a working ``multiprocessing``), the class falls back
to in-process shard servers with identical semantics — and records that
too: ``.parallel`` reports which mode is live and ``.degraded`` is True
for an unrequested fallback.  Always :meth:`close` (or use as a context
manager) to reap the workers.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.checkers.blackholes import find_blackholes as _shard_blackholes
from repro.checkers.loops import LoopChecker, find_forwarding_loops
from repro.checkers.reachability import reachable_atoms
from repro.core.atomset import atoms_to_interval_set
from repro.core.deltanet import DeltaNet
from repro.core.intervals import IntervalSet, normalize
from repro.core.rules import Link, Rule
from repro.faults.injector import DropMessage, fire
from repro.libra.sharding import ShardRouter

#: A forwarding cycle as a canonical tuple of nodes (see Loop.canonical).
Cycle = Tuple[object, ...]


class WorkerCrash(RuntimeError):
    """A shard worker process died or blew its per-request deadline.

    Distinct from application errors a live worker *reports* over the
    pipe: a crash says nothing about shard-state validity, so the
    supervisor recovers it; a reported error means divergent state and
    keeps its poisoning semantics.
    """

    def __init__(self, message: str, hung: bool = False) -> None:
        super().__init__(message)
        #: True when the worker missed its deadline (vs. a dead pipe).
        self.hung = hung


def _flows_on(net: DeltaNet, link: Link) -> List[Tuple[int, int]]:
    return net.flows_on(link)


def _links(net: DeltaNet) -> List[Link]:
    return list(net.links())


def _dump_flows(net: DeltaNet) -> Dict[Link, List[Tuple[int, int]]]:
    return {link: net.flows_on(link) for link in net.links()}


def _find_loops(net: DeltaNet) -> List[Cycle]:
    return [loop.cycle for loop in find_forwarding_loops(net)]


def _reachable(net: DeltaNet, src: object,
               dst: object) -> List[Tuple[int, int]]:
    return atoms_to_interval_set(reachable_atoms(net, src, dst), net.atoms)


def _find_blackholes(net: DeltaNet) -> Dict[object, List[Tuple[int, int]]]:
    return {node: atoms_to_interval_set(atoms, net.atoms)
            for node, atoms in _shard_blackholes(net).items()}


def _owner_target(net: DeltaNet, source: object,
                  point: int) -> Optional[Link]:
    rule = net.owner_rule(net.atoms.atom_at(point), source)
    return rule.link if rule else None


def _stats(net: DeltaNet) -> Tuple[int, int]:
    return net.num_rules, net.num_atoms


def _check_invariants(net: DeltaNet) -> None:
    net.check_invariants()


#: The shard-query table: each worker answers for its slice only, from
#: the same function whether it reads the live shard or a fork of it.
_SHARD_QUERIES: Dict[str, Callable] = {
    "flows_on": _flows_on,
    "links": _links,
    "dump_flows": _dump_flows,
    "find_loops": _find_loops,
    "reachable": _reachable,
    "find_blackholes": _find_blackholes,
    "owner_target": _owner_target,
    "stats": _stats,
    "check_invariants": _check_invariants,
}


def _apply_and_check(net: DeltaNet, inserts: List[Rule], removals: List[int],
                     check: bool) -> List[Cycle]:
    """Apply one shard's sub-batch; return the loops its delta made."""
    delta = net.apply_batch(inserts, removals)
    if not check or delta.is_empty():
        # An empty delta changed no label in this shard — nothing
        # to chase, and nothing to ship back over the pipe.
        return []
    return [loop.cycle for loop in LoopChecker(net).check_update(delta)]


class _ShardServer:
    """One shard's state and command dispatch.

    Runs inside a worker process normally; the inline fallback calls
    :meth:`handle` directly in the parent, so both execution modes share
    one implementation.
    """

    def __init__(self, width: int, gc: bool) -> None:
        self.net = DeltaNet(width=width, gc=gc)
        #: Live speculative forks of this shard, by speculation id.
        #: They live in this process's memory only: a restart loses
        #: them, which the unknown-id path reports as staleness.
        self._specs: Dict[int, DeltaNet] = {}

    def handle(self, method: str, args: tuple):
        return getattr(self, "do_" + method)(*args)

    def do_apply_batch(self, inserts: List[Rule], removals: List[int],
                       check: bool) -> List[Cycle]:
        return _apply_and_check(self.net, inserts, removals, check)

    def do_query(self, method: str, args: tuple):
        return _SHARD_QUERIES[method](self.net, *args)

    # -- integrity (per-shard audit; see repro.integrity) ------------------------

    def do_digest(self, recompute: bool = False):
        """The shard's reported (live, incrementally maintained) digest
        and, when ``recompute``, an independent from-scratch one."""
        live = self.net.state_digest()
        recomputed = self.net.recompute_state_digest() if recompute else None
        return live, recomputed

    def do_desync(self) -> bool:
        """Corrupt one label entry *bypassing* digest maintenance — the
        chaos/test stand-in for a buggy delta path or in-memory bit rot.
        Toggles atom 0's membership directly on an ``AtomRuns`` bucket,
        so the shard answers queries silently wrong until audited.
        Returns whether any entry could be corrupted (empty shards
        cannot desynchronize)."""
        for runs in self.net.findex.by_link.values():
            if 0 not in runs:
                runs.add(0)
                return True
        for runs in self.net.findex.by_link.values():
            if len(runs) > 1 and 0 in runs:
                runs.discard(0)
                return True
        return False

    # -- speculation (per-shard CoW forks; see repro.core.speculative) -----------

    def _spec(self, spec_id: int) -> DeltaNet:
        net = self._specs.get(spec_id)
        if net is None:
            from repro.core.speculative import StaleSpeculationError

            raise StaleSpeculationError(
                f"speculation {spec_id} is not held by this worker "
                "(restarted since the fork?); discard and re-speculate")
        net.assert_fresh()
        return net

    def do_spec_begin(self, spec_id: int) -> None:
        from repro.core.speculative import SpeculativeDeltaNet

        self._specs[spec_id] = SpeculativeDeltaNet.from_parent(self.net)

    def do_spec_apply_batch(self, spec_id: int, inserts: List[Rule],
                            removals: List[int], check: bool) -> List[Cycle]:
        return _apply_and_check(self._spec(spec_id), inserts, removals, check)

    def do_spec_query(self, spec_id: int, method: str, args: tuple):
        return _SHARD_QUERIES[method](self._spec(spec_id), *args)

    def do_spec_discard(self, spec_id: int) -> None:
        self._specs.pop(spec_id, None)

    # -- persistence (per-shard snapshot fan-out) --------------------------------

    def do_snapshot(self) -> dict:
        return self.net.state_dict()

    def do_restore(self, state: dict) -> None:
        self.net = DeltaNet.from_state(state)


def _shard_worker(conn, width: int, gc: bool) -> None:
    """Worker process main loop: serve commands until EOF/None."""
    server = _ShardServer(width, gc)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            method, args = message
            try:
                conn.send((True, server.handle(method, args)))
            except Exception as exc:  # forwarded to the caller; stay alive
                conn.send((False, exc))
    finally:
        conn.close()


class _ProcessEndpoint:
    """Parent-side handle of one worker: submit now, collect later."""

    def __init__(self, ctx, width: int, gc: bool, index: int = 0) -> None:
        self.index = index
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker, args=(child_conn, width, gc), daemon=True)
        self.process.start()
        child_conn.close()

    def submit(self, method: str, args: tuple) -> None:
        try:
            fire("parallel.pipe.send", shard=self.index, method=method,
                 endpoint=self)
        except DropMessage:
            # Blackholed: the caller sees a successful send and the
            # reply never comes; the deadline turns this into a hung
            # worker for the supervisor to reap.
            return
        try:
            self.conn.send((method, args))
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise WorkerCrash(
                f"shard {self.index} worker is gone at send: {exc}") from exc
        fire("parallel.pipe.sent", shard=self.index, method=method,
             endpoint=self)

    def result(self, deadline: Optional[float] = None):
        try:
            if deadline is not None and not self.conn.poll(deadline):
                raise WorkerCrash(
                    f"shard {self.index} worker missed its {deadline}s "
                    f"deadline", hung=True)
            ok, value = self.conn.recv()
        except WorkerCrash:
            raise
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrash(
                f"shard {self.index} worker is gone at recv: {exc}") from exc
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Hard-stop a crashed/hung worker: no protocol goodbye."""
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5)
        except Exception:
            pass

    def close(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)


class _InlineEndpoint:
    """Same submit/result surface, served in-process (fallback mode)."""

    def __init__(self, width: int, gc: bool, index: int = 0,
                 server: Optional[_ShardServer] = None) -> None:
        self.index = index
        self.server = server if server is not None else _ShardServer(width, gc)
        self._pending: Optional[tuple] = None

    def submit(self, method: str, args: tuple) -> None:
        try:
            self._pending = (True, self.server.handle(method, args))
        except Exception as exc:
            self._pending = (False, exc)

    def result(self, deadline: Optional[float] = None):
        ok, value = self._pending
        self._pending = None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        pass


def _first_seen(per_shard: Iterable[list]) -> list:
    """The shards' answers concatenated, each item kept once, in the
    order first seen."""
    return list(dict.fromkeys(
        item for answers in per_shard for item in answers))


class _ShardFleet(ShardRouter):
    """The surface a fleet of shards shares with its speculative forks.

    The fleet-wide reduce step lives here once: each reducer merges the
    per-shard answers that :meth:`_gather` collects, in shard order.
    :class:`ParallelShardedDeltaNet` gathers from its workers' live
    shards, :class:`ParallelSpeculation` from their forks.
    """

    def _gather(self, method: str, *args) -> List[object]:
        """Every shard's answer to the shard query ``method``."""
        raise NotImplementedError

    def insert_rule(self, rule: Rule, check: bool = True) -> List[Cycle]:
        return self.apply_batch([rule], (), check=check)

    def remove_rule(self, rid: int, check: bool = True) -> List[Cycle]:
        return self.apply_batch((), [rid], check=check)

    # -- queries (reduce over all shards) ------------------------------------------

    def flows_on(self, link) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for shard_spans in self._gather("flows_on", link):
            spans.extend(shard_spans)
        return normalize(spans)

    def links(self) -> List[Link]:
        return _first_seen(self._gather("links"))

    def find_loops(self) -> List[Cycle]:
        return _first_seen(self._gather("find_loops"))

    def reachable(self, src: object, dst: object) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for shard_spans in self._gather("reachable", src, dst):
            spans.extend(shard_spans)
        return normalize(spans)

    def find_blackholes(self) -> Dict[object, List[Tuple[int, int]]]:
        merged: Dict[object, IntervalSet] = {}
        for shard_holes in self._gather("find_blackholes"):
            for node, spans in shard_holes.items():
                merged[node] = merged.get(node, IntervalSet()) | IntervalSet(spans)
        return {node: spans.spans for node, spans in merged.items()}

    def shard_sizes(self) -> List[Tuple[int, int]]:
        """(rules, atoms) per shard — the load-balance view."""
        return self._gather("stats")

    @property
    def total_atoms(self) -> int:
        return sum(atoms for _rules, atoms in self.shard_sizes())

    def check_invariants(self) -> None:
        self._gather("check_invariants")


class ParallelShardedDeltaNet(_ShardFleet):
    """Disjoint-slice Delta-nets served by one worker process per shard.

    The update surface mirrors :class:`~repro.libra.sharding.
    ShardedDeltaNet` (whose :class:`~repro.libra.sharding.ShardRouter`
    map step it shares), except updates return the *loops* the
    per-shard incremental checkers found (pass ``check=False`` to skip
    checking) rather than delta-graphs — deltas live and die inside the
    workers.  Queries and their fleet-wide reducers come from
    :class:`_ShardFleet`, which the speculative forks opened by
    :meth:`speculate` share: one shard-query table and one reducer set
    answer for the live fleet and for every fork.

    ``start_method`` picks the :mod:`multiprocessing` context (``fork``
    where available is fastest); ``force_inline=True`` skips processes
    entirely and serves every shard in-process.

    Supervision knobs (see the module docstring for the protocol):

    ``deadline``
        seconds a worker may take to answer one command before it is
        declared hung and restarted (``None`` disables — a hung worker
        then blocks forever, as before supervision existed).
    ``max_restarts``
        consecutive recovery failures per shard before it degrades to
        an in-process endpoint.
    ``restart_backoff``
        base seconds of the exponential restart backoff (doubles per
        consecutive failure — the restart-storm brake).
    ``reseed_every``
        bound, in rule operations, on the per-shard replay buffer; when
        exceeded the shard is re-snapshotted and the buffer cleared, so
        recovery cost stays bounded.
    ``log``
        optional callable receiving one line per supervision event
        (restarts, degradations, the inline fallback); events are
        always recorded on :attr:`events` regardless.
    """

    def __init__(self, shards: Optional[Iterable[Tuple[int, int]]] = None,
                 width: int = 32, gc: bool = False,
                 start_method: Optional[str] = None,
                 force_inline: bool = False,
                 deadline: Optional[float] = 60.0,
                 max_restarts: int = 3,
                 restart_backoff: float = 0.05,
                 reseed_every: int = 256,
                 log: Optional[Callable[[str], None]] = None) -> None:
        super().__init__(shards, width)
        self._closed = False
        self._poisoned = False
        self.parallel = False
        self.deadline = deadline
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.reseed_every = reseed_every
        self._log = log
        self._gc = gc
        self._ctx = None
        #: Supervision event records ({"kind": ..., "shard": ...}, ...).
        self.events: List[dict] = []
        #: Completed worker restarts across the instance's lifetime.
        self.restarts = 0
        #: Committed-mutation counter — the staleness epoch speculative
        #: forks (:meth:`speculate`) record and re-check.
        self.mutations = 0
        self._spec_counter = 0
        #: Integrity-audit counters (see :meth:`audit_shard`).
        self.audits = 0
        self.audit_mismatches = 0
        self.audit_repairs = 0
        self.audit_escalations = 0
        workers: List[object] = []
        if not force_inline:
            try:
                ctx = (multiprocessing.get_context(start_method)
                       if start_method else multiprocessing.get_context())
                for index in range(len(self.slices)):
                    # Append as we go: a partial spawn failure (fd or
                    # process limits) must reap the workers already
                    # started, not leak them.
                    workers.append(_ProcessEndpoint(ctx, width, gc, index))
                self.parallel = True
                self._ctx = ctx
            except Exception as exc:
                for endpoint in workers:
                    endpoint.close()
                workers = []
                self._note("inline-fallback",
                           cause=f"{type(exc).__name__}: {exc}")
        self._fallback = bool(not force_inline and not workers)
        if not workers:
            workers = [_InlineEndpoint(width, gc, index)
                       for index in range(len(self.slices))]
        self._workers = workers
        count = len(workers)
        # Per-shard recovery state: the last snapshot (None = the empty
        # shard), the post-snapshot sub-batches, the op count bounding
        # that buffer, and the consecutive-crash streak.
        self._seeds: List[Optional[dict]] = [None] * count
        self._replay: List[List[Tuple[List[Rule], List[int]]]] = \
            [[] for _ in range(count)]
        self._replay_ops: List[int] = [0] * count
        self._streaks: List[int] = [0] * count
        self._degraded_shards: Set[int] = set()

    # -- supervision -------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when any shard runs in-process although worker
        processes were requested (constructor fallback or a shard that
        exhausted its restart budget)."""
        return self._fallback or bool(self._degraded_shards)

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._degraded_shards))

    def _note(self, kind: str, **fields) -> None:
        event = {"kind": kind}
        event.update(fields)
        self.events.append(event)
        if self._log is not None:
            try:
                detail = ", ".join(f"{key}={value}" for key, value
                                   in fields.items())
                self._log(f"parallel: {kind} ({detail})")
            except Exception:
                pass

    def _rebuild_server(self, index: int) -> _ShardServer:
        """The shard's current state, reconstructed in-process."""
        server = _ShardServer(self.width, self._gc)
        if self._seeds[index] is not None:
            server.do_restore(self._seeds[index])
        for shard_inserts, shard_removals in self._replay[index]:
            server.do_apply_batch(shard_inserts, shard_removals, False)
        return server

    def _degrade(self, index: int, cause: str) -> None:
        self._workers[index] = _InlineEndpoint(
            self.width, self._gc, index, server=self._rebuild_server(index))
        self._degraded_shards.add(index)
        self._note("degraded", shard=index, cause=cause,
                   failures=self._streaks[index])

    def _recover(self, index: int, crash: BaseException) -> None:
        """Replace shard ``index``'s dead/hung worker.

        Restarts with exponential backoff and re-seeds from the last
        per-shard snapshot plus the replay buffer — reconstructing the
        shard's state *before* the in-flight command, so the caller can
        re-issue it exactly once.  After ``max_restarts`` consecutive
        failures the shard degrades to an in-process endpoint.
        """
        old = self._workers[index]
        if isinstance(old, _ProcessEndpoint):
            old.kill()
        cause = f"{type(crash).__name__}: {crash}"
        while True:
            self._streaks[index] += 1
            if self._streaks[index] > self.max_restarts or self._ctx is None:
                self._degrade(index, cause)
                return
            backoff = self.restart_backoff * (2 ** (self._streaks[index] - 1))
            if backoff > 0:
                time.sleep(backoff)
            endpoint = None
            try:
                endpoint = _ProcessEndpoint(self._ctx, self.width, self._gc,
                                            index)
                if self._seeds[index] is not None:
                    endpoint.submit("restore", (self._seeds[index],))
                    endpoint.result(self.deadline)
                for shard_inserts, shard_removals in self._replay[index]:
                    endpoint.submit(
                        "apply_batch", (shard_inserts, shard_removals, False))
                    endpoint.result(self.deadline)
            except Exception as exc:
                if endpoint is not None:
                    endpoint.kill()
                cause = f"{type(exc).__name__}: {exc}"
                continue
            self._workers[index] = endpoint
            self.restarts += 1
            self._note("restart", shard=index, cause=cause,
                       attempt=self._streaks[index],
                       replayed=len(self._replay[index]))
            return

    def _call(self, index: int, method: str, args: tuple):
        """One supervised round-trip to shard ``index``.

        Worker crashes are recovered (restart, re-seed, re-issue)
        transparently; errors the shard *reports* propagate unchanged.
        """
        while True:
            endpoint = self._workers[index]
            try:
                endpoint.submit(method, args)
                value = endpoint.result(self.deadline)
            except WorkerCrash as crash:
                self._recover(index, crash)
                continue
            self._streaks[index] = 0
            return value

    def _record_applied(self, index: int,
                        payload: Tuple[List[Rule], List[int]]) -> None:
        """Track a successfully applied sub-batch for recovery replay.

        When the buffer outgrows ``reseed_every`` ops the shard is
        re-snapshotted over its pipe and the buffer cleared — recovery
        work stays bounded no matter how long the instance runs.

        Tracked for inline endpoints too: crash recovery never needs it
        there, but quarantine *repair* (:meth:`audit_shard`) rebuilds a
        desynchronized shard from the same seed + replay buffer in
        either mode.
        """
        shard_inserts, shard_removals = payload
        self._replay[index].append((list(shard_inserts),
                                    list(shard_removals)))
        self._replay_ops[index] += len(shard_inserts) + len(shard_removals)
        if self._replay_ops[index] > self.reseed_every:
            self._seeds[index] = self._call(index, "snapshot", ())
            self._replay[index] = []
            self._replay_ops[index] = 0

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down; idempotent, and safe to call after a
        worker already died mid-request (the dead endpoint is reaped,
        not re-awaited)."""
        if self._closed:
            return
        self._closed = True
        for endpoint in self._workers:
            try:
                endpoint.close()
            except Exception:
                # A worker that died mid-request may leave a broken
                # pipe; closing must still reap the rest.
                pass
        self._seeds = [None] * len(self._workers)
        self._replay = [[] for _ in self._workers]

    def __enter__(self) -> "ParallelShardedDeltaNet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- fan-out plumbing ----------------------------------------------------------

    def _fan_out(self, method: str, calls: Dict[int, tuple]
                 ) -> Tuple[Dict[int, object], Optional[Exception]]:
        """Send each selected worker its own arguments, then collect replies.

        ``calls`` maps a shard index to the arguments of its command.
        All submits go out before the first result is awaited — with
        process workers the shards genuinely execute concurrently.
        Every reply is drained even when one worker errors (an undrained
        pipe would pair the *next* command with this command's stale
        reply).  A crashed worker is recovered — re-seeded to its
        pre-command state — and the command re-issued through the fresh
        endpoint, so it applies exactly once.  Returns the replies by
        shard index, in ``calls`` order, and the first error a worker
        *reported* (``None`` when every shard answered).
        """
        submitted: List[int] = []
        deferred: List[int] = []
        errors: List[Exception] = []
        for index, args in calls.items():
            try:
                self._workers[index].submit(method, args)
                submitted.append(index)
            except WorkerCrash as crash:
                self._recover(index, crash)
                deferred.append(index)
            except Exception as exc:
                errors.append(exc)
        replies: Dict[int, object] = {}
        for index in submitted:
            try:
                replies[index] = self._workers[index].result(self.deadline)
                self._streaks[index] = 0
            except WorkerCrash as crash:
                self._recover(index, crash)
                deferred.append(index)
            except Exception as exc:
                errors.append(exc)
        for index in deferred:
            try:
                replies[index] = self._call(index, method, calls[index])
            except Exception as exc:
                errors.append(exc)
        ordered = {index: replies[index] for index in calls if index in replies}
        return ordered, (errors[0] if errors else None)

    def _broadcast(self, method: str, args: tuple = ()) -> List[object]:
        """One command, same arguments, to every shard; replies in shard
        order, raising the first reported error."""
        replies, error = self._fan_out(
            method, dict.fromkeys(range(len(self._workers)), args))
        if error is not None:
            raise error
        return list(replies.values())

    def _gather(self, method: str, *args) -> List[object]:
        return self._broadcast("query", (method, args))

    # -- updates (map: clip; reduce: merge worker loop reports) --------------------

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = (),
                    check: bool = True) -> List[Cycle]:
        """Apply a batch across shards concurrently; merge found loops.

        Same order semantics as :meth:`DeltaNet.apply_batch` (removals
        first).  The whole batch is validated (by the shared
        :meth:`~repro.libra.sharding.ShardRouter.route_batch`) before
        anything is sent, so a rejected batch leaves every shard
        untouched.

        A worker that crashes mid-batch is recovered and its sub-batch
        re-issued against the reconstructed pre-batch shard state —
        exactly-once, whether the crash hit before or after the worker
        applied it.  Only an error a live worker reports (divergent
        shard state) poisons further updates, as without two-phase
        commit the instance cannot be reconciled; queries on the
        partial state stay available.
        """
        if self._poisoned:
            raise RuntimeError(
                "parallel verifier is inconsistent after a failed batch; "
                "rebuild it (queries on the partial state still work)")
        per_shard = self.route_batch(rules_to_insert, rids_to_remove)
        replies, error = self._fan_out("apply_batch", {
            index: (shard_inserts, shard_removals, check)
            for index, (shard_inserts, shard_removals) in enumerate(per_shard)
            if shard_inserts or shard_removals})
        if replies:
            # Even a partially applied batch advances the epoch: any
            # open speculation's shared state has drifted.
            self.mutations += 1
        if error is not None:
            # Some shards may have applied their sub-batch while others
            # did not — without two-phase commit the instance cannot be
            # reconciled, so refuse all further *updates* rather than
            # risk phantom rules on a retry.  Queries stay available for
            # inspecting the partial state.
            self._poisoned = True
            raise error
        for index in replies:
            self._record_applied(index, per_shard[index])
        return _first_seen(replies.values())

    # -- queries the forks do not answer -------------------------------------------

    def dump_flows(self) -> Dict[Link, List[Tuple[int, int]]]:
        """Every link's flows, merged across shards (tests/diagnostics)."""
        merged: Dict[Link, List[Tuple[int, int]]] = {}
        for shard_dump in self._gather("dump_flows"):
            for link, spans in shard_dump.items():
                merged.setdefault(link, []).extend(spans)
        return {link: normalize(spans) for link, spans in merged.items()}

    def owner_link_at(self, source: object, point: int) -> Optional[Link]:
        """The link a ``point``-packet takes at ``source``, if any."""
        return self._call(self.shard_of_point(point), "query",
                          ("owner_target", (source, point)))

    # -- integrity audit (see repro.integrity) -----------------------------------

    def state_digest(self):
        """The fleet-wide digest: componentwise combination of every
        worker's reported live digest (``None`` if digests are off)."""
        from repro.integrity.digest import combine_digests

        return combine_digests(
            live for live, _recomputed in self._broadcast("digest", (False,)))

    def audit_shard(self, index: int, repair: bool = True) -> dict:
        """Audit one worker's reported digest against an independent
        from-scratch recomputation of its shard state.

        The worker's *live* digest is maintained incrementally by the
        same delta paths that mutate the state — the value it would
        report into snapshots and health checks.  The recomputation
        hashes the actual structures entry by entry, so any divergence
        (bit rot, a buggy delta path, a desynchronized replica) between
        what the shard claims and what it holds surfaces here.

        On mismatch the shard is **quarantined** and, when ``repair``,
        rebuilt through the existing re-seed machinery (last per-shard
        snapshot + replay buffer — state reconstructed through
        digest-maintaining code), then re-audited.  A repair whose
        digests still disagree **escalates**: the shard degrades to the
        inline fallback and stays flagged.  Every transition lands in
        :attr:`events`.
        """
        from repro.integrity.digest import parse_digest

        self.audits += 1
        live, recomputed = self._call(index, "digest", (True,))
        entries = sum(part[0] for part in parse_digest(recomputed)[1])
        result = {"shard": index, "clean": live == recomputed,
                  "entries": entries, "repaired": False, "escalated": False}
        if live is None:
            result["clean"] = True
            result["skipped"] = "digests-disabled"
            return result
        if result["clean"]:
            return result
        self.audit_mismatches += 1
        self._note("quarantine", shard=index, live=live,
                   recomputed=recomputed)
        if not repair:
            return result
        endpoint = self._workers[index]
        if isinstance(endpoint, _ProcessEndpoint):
            self._recover(index, WorkerCrash("state digest mismatch"))
        else:
            self._workers[index] = _InlineEndpoint(
                self.width, self._gc, index,
                server=self._rebuild_server(index))
        live, recomputed = self._call(index, "digest", (True,))
        if live == recomputed:
            self.audit_repairs += 1
            result["repaired"] = True
            self._note("repair", shard=index, digest=live)
        else:
            self.audit_escalations += 1
            result["escalated"] = True
            self._degrade(index, "digest mismatch persists after re-seed")
        return result

    def audit(self, repair: bool = True) -> List[dict]:
        """One full audit cycle: every shard, in order."""
        return [self.audit_shard(index, repair=repair)
                for index in range(self.num_shards)]

    def desync_shard(self, index: int) -> bool:
        """Inject silent corruption into shard ``index`` (chaos/tests):
        flips a label entry behind the digest's back, exactly what
        :meth:`audit_shard` exists to catch."""
        return bool(self._call(index, "desync", ()))

    # -- persistence (see repro.persist) ----------------------------------------

    def state_dict(self) -> dict:
        """Router bookkeeping plus every worker's Delta-net state.

        The per-shard snapshots are gathered over the worker pipes
        concurrently — each worker serializes its own slice while the
        others do the same.
        """
        state = self.router_state()
        state["nets"] = self._broadcast("snapshot")
        return state

    def _seed_shards(self, states: List[dict]) -> None:
        """Restore every shard from ``states`` (concurrent fan-out).

        The states double as recovery seeds *before* the restores are
        issued: a worker that crashes mid-restore is recovered by
        :meth:`_recover`, whose seed replay performs the very restore
        that was in flight, and the fan-out's re-issue repeats it on
        the same state — so a crash here self-heals.
        """
        for index, net_state in enumerate(states):
            self._seeds[index] = net_state
            self._replay[index] = []
            self._replay_ops[index] = 0
        error = self._fan_out("restore", {
            index: (net_state,) for index, net_state in enumerate(states)})[1]
        if error is not None:
            raise error

    @classmethod
    def from_state(cls, state: dict, gc: bool = False,
                   start_method: Optional[str] = None,
                   force_inline: bool = False,
                   **supervision) -> "ParallelShardedDeltaNet":
        """Rebuild shards in their workers (restore fan-out).

        Worker-pool shape (``start_method``/``force_inline``) and the
        supervision knobs are host properties, not session state —
        callers choose them per restore.
        """
        slices = [tuple(pair) for pair in state["slices"]]
        instance = cls(slices, width=state["width"], gc=gc,
                       start_method=start_method, force_inline=force_inline,
                       **supervision)
        instance._restore_router(state)
        instance._seed_shards(list(state["nets"]))
        return instance

    # -- speculation (see repro.core.speculative) --------------------------------

    def speculate(self) -> "ParallelSpeculation":
        """Fork a fleet-wide copy-on-write what-if child.

        Every worker forks a :class:`~repro.core.speculative.
        SpeculativeDeltaNet` of its shard in place — no state crosses
        the pipes — and the returned handle routes updates and queries
        to those forks under a speculation id.  Always ``discard()``
        (or ``close()``) the handle; the forks hold worker memory.
        """
        spec_id = self._spec_counter
        self._spec_counter += 1
        self._broadcast("spec_begin", (spec_id,))
        return ParallelSpeculation(self, spec_id)

    def __repr__(self) -> str:
        mode = "processes" if self.parallel else "inline"
        if self.degraded:
            mode += " (degraded)"
        return (f"ParallelShardedDeltaNet(shards={self.num_shards}, "
                f"rules={self.num_rules}, mode={mode})")


class ParallelSpeculation(_ShardFleet):
    """Parent-side handle of one fleet-wide speculative fork.

    Shares the :class:`ParallelShardedDeltaNet` update/query surface —
    the same shard queries, reducers and supervised fan-out — aimed at
    the per-worker :class:`~repro.core.speculative.SpeculativeDeltaNet`
    forks.  Router bookkeeping is forked shallowly
    (placement lists are popped/created whole, never mutated in place);
    staleness is enforced on both sides — the handle re-checks the
    parent's committed-mutation epoch before every touch, and a worker
    that restarted (its fork died with its memory) reports
    :class:`~repro.core.speculative.StaleSpeculationError` itself.
    Unknown attributes delegate to the parent, so pool-shape
    diagnostics (``parallel``, ``degraded``, ...) keep answering.
    """

    def __init__(self, parent: "ParallelShardedDeltaNet",
                 spec_id: int) -> None:
        self._parent = parent
        self.spec_id = spec_id
        self.width = parent.width
        self.slices = list(parent.slices)
        self._starts = list(parent._starts)
        self._placement = dict(parent._placement)
        self._next_clipped = parent._next_clipped
        self._base_mutations = parent.mutations
        self._discarded = False

    def assert_fresh(self) -> None:
        """Raise unless this fork still reflects the parent's state."""
        from repro.core.speculative import StaleSpeculationError

        if self._discarded:
            raise StaleSpeculationError(
                f"speculation {self.spec_id} was already discarded")
        if self._parent.mutations != self._base_mutations:
            raise StaleSpeculationError(
                "parent advanced since this speculation was forked "
                f"({self._parent.mutations - self._base_mutations} "
                "batch(es) behind); discard and re-speculate")

    def _gather(self, method: str, *args) -> List[object]:
        self.assert_fresh()
        return self._parent._broadcast(
            "spec_query", (self.spec_id, method, args))

    def apply_batch(self, rules_to_insert: Iterable[Rule] = (),
                    rids_to_remove: Iterable[int] = (),
                    check: bool = True) -> List[Cycle]:
        """Apply a batch to the forks, concurrently across shards."""
        self.assert_fresh()
        per_shard = self.route_batch(rules_to_insert, rids_to_remove)
        replies, error = self._parent._fan_out("spec_apply_batch", {
            index: (self.spec_id, shard_inserts, shard_removals, check)
            for index, (shard_inserts, shard_removals) in enumerate(per_shard)
            if shard_inserts or shard_removals})
        if error is not None:
            raise error
        return _first_seen(replies.values())

    def state_digest(self):
        """Speculative state is ephemeral: no digest is maintained."""
        return None

    # -- lifecycle ---------------------------------------------------------------

    def discard(self) -> None:
        """Drop the per-worker forks; idempotent."""
        if self._discarded:
            return
        self._discarded = True
        try:
            self._parent._broadcast("spec_discard", (self.spec_id,))
        except Exception:
            # A shard that lost its fork (restart) has nothing to drop.
            pass

    def close(self) -> None:
        self.discard()

    def __getattr__(self, name: str):
        parent = self.__dict__.get("_parent")
        if parent is None:
            raise AttributeError(name)
        return getattr(parent, name)

    def __repr__(self) -> str:
        return (f"ParallelSpeculation(id={self.spec_id}, "
                f"shards={self.num_shards}, rules={self.num_rules}, "
                f"discarded={self._discarded})")
