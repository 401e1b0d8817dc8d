"""Inputs, timed phases and oracles of the five layer-ledger workloads.

All workloads draw from one generator, :func:`update_stream` — the
BGP-shaped prefix-pool stream (pool of ``size/25`` prefixes of length
10-24 over a 32-bit header so atoms << rules, 40 switches, globally
unique priorities, 30 % of ops remove a random live rule).  At the
default seed it is op-for-op the stream ``perf_gate`` has always
measured, so the history in ``BENCH_*.json`` stays comparable.  The
program under test only ever receives the generated ops or frames.

A workload object lives for one *replay*: ``setup`` builds its state,
``measure`` runs the timed phase, ``check`` is the untimed oracle,
``close`` releases what ``setup`` opened.  A run is ``REPLAYS`` replays
of the very same work, and reports the median of what each measured.
Python GC and every daemon setting stay at shipped defaults
(``checkpoint_every=1000`` included): users pay for those, so the
benchmark does too.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.api import LinkDown, LoopProperty, VerificationSession
from repro.checkers.loops import LoopChecker, find_forwarding_loops
from repro.checkers.sweep import sweep_find_forwarding_loops
from repro.core.deltanet import DeltaNet
from repro.core.rules import Rule, canonical_rotation
from repro.datasets.format import Op
from repro.persist.snapshot import dumps_session, load_session
from repro.persist.store import JOURNAL_NAME, SNAPSHOT_NAME, SessionStore
from repro.replay.engine import iter_batches
from repro.serve import StreamServer

DEFAULT_SEED = 54042            # perf_gate.WORKLOAD_SEED (0xD31A)
#: The stream's shape, as perf_gate.synthetic_update_workload fixes it.
WIDTH = 32
SWITCHES = 40
REMOVAL_FRACTION = 0.3
#: Ops behind the data plane every in-process workload builds in set-up:
#: the size the BENCH_*.json history calls "50k".
STATE_OPS = 50_000
#: Identical replays per run: the repeats whose median a run reports.  An
#: odd number, so the median is one replay's own reading.
REPLAYS = 3
BUILD_BATCH = 1000
#: serve-hub: lockstep controllers, and every n-th request is a query.
CONTROLLERS = 2
QUERY_EVERY = 10
#: restart: journaled updates between a checkpoint and the crash, and the
#: cycles in a replay whatever ``--seconds`` says (nine a run: ISSUE 11
#: asks for eight, and a median wants more than one per replay).
JOURNALED_OPS = 500
RESTART_CYCLES = 3
WHATIF_ORACLE_LINKS = 8

HERE = os.path.dirname(os.path.abspath(__file__))
HUB_DAEMON = os.path.join(HERE, "hub_daemon.py")
#: Everything a run writes goes here: the stores' tmpdirs and the spans.
#: A run reads and writes nothing outside its checkout.
OUT_DIR = os.path.join(HERE, "out")
#: Where a traced daemon leaves its spans, inside its store root.
HUB_SPANS_FILE = "spans.json"
_clock = time.perf_counter


# -- the input stream ----------------------------------------------------------


class UpdateStream:
    """The generator and its state, so a stream can be continued.

    The BGP-shaped prefix-pool stream: a pool of ``size/25`` prefixes of
    length 10-24 (so atoms << rules), rules on random switches with
    globally unique priorities, and ``REMOVAL_FRACTION`` of the ops
    removing a random live rule.
    """

    def __init__(self, size: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = []
        for _ in range(max(64, size // 25)):
            plen = self.rng.randint(10, 24)
            span = 1 << (WIDTH - plen)
            lo = self.rng.randrange(1 << WIDTH) & ~(span - 1)
            self.pool.append((lo, lo + span))
        self.live: List[int] = []
        self.next_rid = 0

    def take(self, count: int, seed: Optional[int] = None) -> List[Op]:
        """The next ``count`` ops; ``seed`` restarts the draw from there,
        over the same pool and the rules that are live by now."""
        if seed is not None:
            self.rng = random.Random(seed)
        rng, pool, live, switches = self.rng, self.pool, self.live, SWITCHES
        ops: List[Op] = []
        while len(ops) < count:
            if live and rng.random() < REMOVAL_FRACTION:
                ops.append(Op.remove(live.pop(rng.randrange(len(live)))))
                continue
            lo, hi = pool[rng.randrange(len(pool))]
            source = rng.randrange(switches)
            target = (source + rng.randrange(1, switches)) % switches
            rid = self.next_rid
            ops.append(Op.insert(Rule.forward(
                rid, lo, hi, rid, f"s{source}", f"s{target}")))
            live.append(rid)
            self.next_rid += 1
        return ops


def update_stream(size: int, seed: int = DEFAULT_SEED) -> List[Op]:
    """The deterministic op stream for ``seed``: at the default seed,
    op for op what ``perf_gate.synthetic_update_workload`` generates."""
    return UpdateStream(size, seed).take(size)


def stream_hash(ops: List[Op]) -> str:
    """A fingerprint of an op stream (same seed, same hash)."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.to_line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def data_plane(sizes: "Plan"):
    """The fixed data plane: its generator and its ops.

    Like the paper's, the data plane is a fixed dataset — the stream the
    ``BENCH_*.json`` history measures — and ``--seed`` draws what happens
    to it in the timed phase.  A data plane drawn afresh per seed would
    move every metric by how many forwarding loops that draw happens to
    hold (churn-session: +-20 % between seeds), which no bound could
    tell from a regression.
    """
    stream = UpdateStream(sizes.state_ops, DEFAULT_SEED)
    return stream, stream.take(sizes.state_ops)


# -- run sizing ----------------------------------------------------------------

#: Timed operations per requested second of measurement, as a 2-core
#: shared box sustains them; ``--seconds`` times this sizes the run.  The
#: work is fixed by (seed, seconds), never by how fast the code is.
OPS_PER_SECOND = {
    "churn-core": 18_000,       # updates
    "churn-session": 1_000,     # updates
    "serve-hub": 1_400,         # requests, both controllers together
    "whatif-links": 120,        # queries
}


class Plan(NamedTuple):
    """Sizes of one replay."""

    state_ops: int      # ops built in set-up
    timed: int          # operations in the timed phase
    journaled: int      # restart only: journaled ops per cycle


def plan(name: str, seconds: float, scale: float) -> Plan:
    if name == "restart":
        timed = RESTART_CYCLES
    else:
        timed = max(2 * QUERY_EVERY, int(round(
            OPS_PER_SECOND[name] * seconds * scale / REPLAYS)))
    return Plan(state_ops=max(200, int(STATE_OPS * scale)), timed=timed,
                journaled=max(5, int(JOURNALED_OPS * scale)))


class Measured(NamedTuple):
    """What one timed phase produced."""

    start: float
    end: float
    #: Latencies in seconds, by kind of operation (update, query,
    #: checkpoint, recover).
    samples: Dict[str, List[float]]
    #: Timed operations as the workload counts them: every request on
    #: serve-hub, whole cycles on restart.
    ops: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


# -- shared helpers ------------------------------------------------------------


def apply_batched(target: Any, ops: List[Op]) -> None:
    """Ingest ``ops`` through ``target.apply_batch`` in safe chunks."""
    for batch in iter_batches(ops, BUILD_BATCH):
        target.apply_batch([op.rule for op in batch if op.is_insert],
                           [op.rid for op in batch if not op.is_insert])


def _drop_one_op(ops: List[Op]) -> List[Op]:
    """``ops`` without its last insert that is never removed again."""
    removed = {op.rid for op in ops if not op.is_insert}
    victim = max(index for index, op in enumerate(ops)
                 if op.is_insert and op.rid not in removed)
    return ops[:victim] + ops[victim + 1:]


def _loop_set(loops) -> set:
    return {(loop.atom, canonical_rotation(loop.cycle)) for loop in loops}


#: One oracle verdict: what must hold, and whether it did.
Verdict = Tuple[str, bool]


def _invariants_hold(net: DeltaNet) -> bool:
    try:
        net.check_invariants()
    except AssertionError:
        return False
    return True


def check_data_plane(net: DeltaNet, ops: List[Op],
                     fault: Optional[str]) -> List[Verdict]:
    """The churn oracle: four independent views of ``net`` must agree."""
    twin = DeltaNet(width=WIDTH)
    apply_batched(twin, _drop_one_op(ops) if fault == "drop-op" else ops)
    return [
        ("check_invariants passes", _invariants_hold(net)),
        ("incremental digest equals its recomputation",
         net.state_digest() == net.recompute_state_digest()),
        ("digest equals a batched rebuild of the same ops",
         twin.state_digest() == net.state_digest()),
        ("indexed loop set equals the sweep's",
         _loop_set(find_forwarding_loops(net))
         == _loop_set(sweep_find_forwarding_loops(net))),
    ]


def scratch_dir(prefix: str) -> str:
    """A fresh directory under :data:`OUT_DIR`; the caller removes it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Workload:
    """Base: options every workload takes, and defaults for the hooks."""

    def __init__(self, traced: bool = False,
                 fault: Optional[str] = None) -> None:
        self.traced = traced
        self.fault = fault

    #: The kinds of operation behind the ``op_*`` and ``alt_*`` metrics; a
    #: workload with one kind of operation has it in both.
    op = alt = "update"
    #: Unmeasured replays run first.
    warmups = 0
    #: Spans and boundary counts recorded outside this process (serve-hub's
    #: traced daemon hands them over as it exits).
    daemon_spans: List[list] = []
    daemon_counters: Dict[str, int] = {}

    def setup(self, seed: int, sizes: Plan) -> None:
        """Build the data plane and draw the timed work from ``seed``."""
        raise NotImplementedError

    def measure(self) -> Measured:
        raise NotImplementedError

    def check(self, full: bool) -> List[Verdict]:
        """The untimed oracle's verdicts.

        The replays of a run do the same work and must end in the same
        state, so only the first pays for the ``full`` oracle; the others
        hand down the verdicts on their own operations, if they have any.
        """
        raise NotImplementedError

    def digest(self) -> str:
        """The state the timed phase ended in: replays must agree on it."""
        raise NotImplementedError

    def facts(self) -> Dict[str, float]:
        """Counts read at the layer boundaries after the timed phase."""
        return {}

    def peak_rss_kb(self) -> int:
        return _rss_kb()

    def close(self) -> None:
        pass


def _net_facts(net: DeltaNet) -> Dict[str, float]:
    return {"core.deltanet.rules_end": net.num_rules,
            "core.deltanet.atoms_end": net.num_atoms,
            "core.findex.label_runs_end":
                net.findex.label_stats()["label_runs"]}


# -- churn-core ----------------------------------------------------------------


class ChurnCore(Workload):
    """One op at a time straight into DeltaNet + LoopChecker (Table 3)."""

    def setup(self, seed: int, sizes: Plan) -> None:
        stream, built = data_plane(sizes)
        self.timed_ops = stream.take(sizes.timed, seed)
        self.ops = built + self.timed_ops
        self.net = DeltaNet(width=WIDTH)
        apply_batched(self.net, built)
        self.checker = LoopChecker(self.net)

    def measure(self) -> Measured:
        insert, remove = self.net.insert_rule, self.net.remove_rule
        check = self.checker.check_update
        times: List[float] = []
        record = times.append
        begin = _clock()
        for op in self.timed_ops:
            start = _clock()
            delta = insert(op.rule) if op.is_insert else remove(op.rid)
            check(delta)
            record(_clock() - start)
        return Measured(begin, _clock(), {"update": times}, len(times))

    def check(self, full: bool) -> List[Verdict]:
        if not full:
            return []
        return check_data_plane(self.net, self.ops, self.fault)

    def digest(self) -> str:
        return self.net.state_digest()

    def facts(self) -> Dict[str, float]:
        return _net_facts(self.net)


# -- churn-session -------------------------------------------------------------


def build_session(ops: List[Op]) -> VerificationSession:
    """The loop-watching deltanet session holding ``ops``, batch-built."""
    session = VerificationSession("deltanet", properties=[LoopProperty()])
    apply_batched(session, ops)
    return session


class ChurnSession(Workload):
    """The same algorithm behind the facade every real caller uses."""

    def setup(self, seed: int, sizes: Plan) -> None:
        stream, built = data_plane(sizes)
        self.timed_ops = stream.take(sizes.timed, seed)
        self.ops = built + self.timed_ops
        self.session = build_session(built)

    def measure(self) -> Measured:
        apply = self.session.apply
        times: List[float] = []
        record = times.append
        begin = _clock()
        for op in self.timed_ops:
            start = _clock()
            apply(op)
            record(_clock() - start)
        return Measured(begin, _clock(), {"update": times}, len(times))

    def check(self, full: bool) -> List[Verdict]:
        if not full:
            return []
        return check_data_plane(self.session.native, self.ops, self.fault)

    def digest(self) -> str:
        return self.session.state_digest()

    def facts(self) -> Dict[str, float]:
        return _net_facts(self.session.native)

    def close(self) -> None:
        self.session.close()


# -- whatif-links --------------------------------------------------------------


class WhatIfLinks(Workload):
    """Link-failure what-if queries that *read* the labels churn writes."""

    op = alt = "query"

    def setup(self, seed: int, sizes: Plan) -> None:
        self.session = build_session(data_plane(sizes)[1])
        self.links = sorted(self.session.links(), key=repr)
        self.rng = random.Random(seed)
        self.sample = self.rng.sample(
            self.links, min(sizes.timed, len(self.links)))

    def measure(self) -> Measured:
        query = self.session.query
        times: List[float] = []
        record = times.append
        begin = _clock()
        for link in self.sample:
            start = _clock()
            query(LinkDown(link, loops=True))
            record(_clock() - start)
        return Measured(begin, _clock(), {"query": times}, len(times))

    def check(self, full: bool) -> List[Verdict]:
        """Planner answer == link label + undirected whole-network sweep."""
        if not full:
            return []
        net = self.session.native
        everywhere = sweep_find_forwarding_loops(net)
        verdicts = []
        for link in self.rng.sample(
                self.links, min(WHATIF_ORACLE_LINKS, len(self.links))):
            result = self.session.query(LinkDown(link, loops=True))
            affected = net.label_of(link)
            cycles = {canonical_rotation(loop.cycle) for loop in everywhere
                      if loop.atom in affected}
            verdicts.append((
                f"what-if {link}: spans equal the label, loops the sweep's",
                list(result.spans) == list(net.flows_on(link))
                and set(result.violations) == cycles))
        return verdicts

    def digest(self) -> str:
        return self.session.state_digest()

    def facts(self) -> Dict[str, float]:
        return _net_facts(self.session.native)

    def close(self) -> None:
        self.session.close()


# -- restart -------------------------------------------------------------------


class Restart(Workload):
    """Checkpoint, journal a few hundred updates, crash, recover."""

    op, alt = "checkpoint", "recover"

    def setup(self, seed: int, sizes: Plan) -> None:
        self.sizes = sizes
        stream, built = data_plane(sizes)
        self.ops = built + stream.take(sizes.timed * sizes.journaled, seed)
        self.applied = sizes.state_ops
        self.store_dir = scratch_dir("restart-")
        session = build_session(built)
        with SessionStore(self.store_dir) as store:
            store.checkpoint(session)
        session.close()
        self.server = StreamServer(self.store_dir)
        self.cycle_verdicts: List[Verdict] = []
        self.replayed = 0
        self.journal_bytes = 0

    def measure(self) -> Measured:
        checkpoints: List[float] = []
        recoveries: List[float] = []
        begin = _clock()
        for cycle in range(self.sizes.timed):
            server = self.server
            start = _clock()
            reply, _ = server.handle_request({"cmd": "checkpoint"})
            saved = _clock()
            replies = [server.apply_op(op) for op in self.ops[
                self.applied:self.applied + self.sizes.journaled]]
            self.applied += self.sizes.journaled
            digest = server.session.state_digest()
            self.journal_bytes += os.path.getsize(server.store.journal_path)
            # A crash, not a shutdown: close() would write a final
            # checkpoint and leave the journal tail nothing to replay.
            server.store.close()
            server.session.close()
            crashed = _clock()
            self.server = StreamServer(self.store_dir)
            done = _clock()
            checkpoints.append(saved - start)
            recoveries.append(done - crashed)
            recovery = self.server.recovery
            self.replayed += recovery.replayed
            self.cycle_verdicts += [
                (f"cycle {cycle}: every reply is ok",
                 bool(reply.get("ok")) and all(r.get("ok") for r in replies)),
                (f"cycle {cycle}: the whole journal tail is replayed",
                 recovery.replayed == self.sizes.journaled),
                (f"cycle {cycle}: recovered digest equals the one before "
                 f"the crash", self.server.session.state_digest() == digest)]
        return Measured(begin, _clock(), {
            "checkpoint": checkpoints, "recover": recoveries}, len(checkpoints))

    def check(self, full: bool) -> List[Verdict]:
        if not full:
            return self.cycle_verdicts
        session = self.server.session
        first = dumps_session(session)
        reloaded = load_session(io.BytesIO(first))
        round_trip = ("save(load(save(s))) is byte-identical",
                      dumps_session(reloaded) == first)
        reloaded.close()
        return self.cycle_verdicts + check_data_plane(
            session.native, self.ops[:self.applied], self.fault) + [round_trip]

    def digest(self) -> str:
        return self.server.session.state_digest()

    def facts(self) -> Dict[str, float]:
        out = _net_facts(self.server.session.native)
        journaled = self.sizes.timed * self.sizes.journaled
        out["persist.journal.bytes_per_op"] = self.journal_bytes / journaled
        out["persist.snapshot.bytes"] = os.path.getsize(
            self.server.store.snapshot_path)
        out["persist.store.replayed_ops"] = self.replayed
        return out

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


# -- serve-hub -----------------------------------------------------------------


def _frame(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request) + "\n").encode("utf-8")


def op_frame(op: Op) -> bytes:
    """The ndjson ``insert``/``remove`` frame for ``op``."""
    if not op.is_insert:
        return _frame({"cmd": "remove", "rid": op.rid})
    rule = op.rule
    return _frame({"cmd": "insert", "rule": {
        "rid": rule.rid, "priority": rule.priority, "lo": rule.lo,
        "hi": rule.hi, "source": rule.source, "target": rule.target}})


QUERY_FRAME = _frame({"cmd": "query", "what": "loops"})


def refused_replies(replies: List[bytes]) -> int:
    """How many reply frames are not ``ok``."""
    return sum(1 for line in replies if not json.loads(line).get("ok"))


class ServeHub(Workload):
    """Closed loop over loopback TCP against the multi-tenant hub.

    The hub runs in its own process with its store in a tmpdir; this
    process is the generator: one thread, ``CONTROLLERS`` lockstep
    ndjson controllers, each attached to its own session and sending its
    own stream (seed + i), every ``QUERY_EVERY``-th request a
    ``query what=loops``.  Closed loop because an SDN controller waits
    for the verdict before it commits the next update; two connections
    because that is what two cores can drive without measuring the
    scheduler.
    """

    op, alt = "update", "query"
    #: The one workload that keeps both cores busy.  A box that has been
    #: using one core lets it burst for its first seconds (measured:
    #: 1.6x), so a run right after a single-process workload would read a
    #: burst and the next one would not; an unmeasured replay spends it.
    warmups = 1

    def setup(self, seed: int, sizes: Plan) -> None:
        # The sessions start empty (the state is small on purpose), so
        # there is no data plane to fix: each controller's whole stream
        # is drawn from the seed.
        per_controller = max(QUERY_EVERY, sizes.timed // CONTROLLERS)
        writes = per_controller - per_controller // QUERY_EVERY
        self.streams = [update_stream(writes, seed + index)
                        for index in range(CONTROLLERS)]
        self.frames: List[List[bytes]] = []
        for stream in self.streams:
            pending = iter(stream)
            self.frames.append([
                QUERY_FRAME if number % QUERY_EVERY == QUERY_EVERY - 1
                else op_frame(next(pending))
                for number in range(per_controller)])
        self.root = scratch_dir("hub-")
        command = [sys.executable, HUB_DAEMON, self.root]
        if self.traced:
            command += ["--trace", os.path.join(self.root, HUB_SPANS_FILE)]
        self.daemon = subprocess.Popen(command, stdout=subprocess.PIPE,
                                       text=True)
        self.loop = asyncio.new_event_loop()
        try:
            ready = self.daemon.stdout.readline().split()
            if len(ready) != 3 or ready[0] != "READY":
                raise RuntimeError(f"hub daemon did not start: {ready!r}")
            self.address = (ready[1], int(ready[2]))
            self.connections = self.loop.run_until_complete(self._connect())
        except BaseException:
            # Nobody will call close() on a half-built workload.
            self.daemon.kill()
            self.daemon.wait()
            self.daemon.stdout.close()
            self.loop.close()
            shutil.rmtree(self.root, ignore_errors=True)
            raise
        self.replies: List[List[bytes]] = []

    async def _connect(self) -> list:
        connections = []
        for index in range(CONTROLLERS):
            reader, writer = await asyncio.open_connection(*self.address)
            connections.append((reader, writer))
            opened = await self._call(index, {
                "cmd": "open", "session": f"tenant-{index}"}, connections)
            if not opened.get("ok"):
                raise RuntimeError(f"open failed: {opened!r}")
        return connections

    async def _call(self, index: int, request: Dict[str, Any],
                    connections: Optional[list] = None) -> Dict[str, Any]:
        reader, writer = (connections or self.connections)[index]
        writer.write(_frame(request))
        await writer.drain()
        return json.loads(await reader.readline())

    def measure(self) -> Measured:
        async def controller(index: int):
            reader, writer = self.connections[index]
            times: List[float] = []
            replies: List[bytes] = []
            for frame in self.frames[index]:
                start = _clock()
                writer.write(frame)
                await writer.drain()
                replies.append(await reader.readline())
                times.append(_clock() - start)
            return times, replies

        async def drive():
            return await asyncio.gather(
                *[controller(index) for index in range(CONTROLLERS)])

        begin = _clock()
        results = self.loop.run_until_complete(drive())
        end = _clock()
        self.replies = [replies for _times, replies in results]
        timed = [(frame is QUERY_FRAME, rtt)
                 for frames, (times, _replies) in zip(self.frames, results)
                 for frame, rtt in zip(frames, times)]
        return Measured(begin, end, {
            "update": [rtt for query, rtt in timed if not query],
            "query": [rtt for query, rtt in timed if query]}, len(timed))

    def _stats(self, index: int) -> Dict[str, Any]:
        reply = self.loop.run_until_complete(
            self._call(index, {"cmd": "stats"}))
        return reply.get("stats", {})

    def check(self, full: bool) -> List[Verdict]:
        verdicts = []
        for index, replies in enumerate(self.replies):
            replies = list(replies)
            if self.fault == "bad-reply" and index == 0:
                replies[len(replies) // 2] = _frame(
                    {"ok": False, "error": "injected by --fault"})
            refused = refused_replies(replies)
            # One failed verdict per refused request: each is a failed
            # operation, not one failed check.
            every_reply_ok = f"controller {index}: every reply is ok"
            verdicts += ([(every_reply_ok, False)] * refused if refused
                         else [(every_reply_ok, True)])
            if not full:
                continue
            stats = self._stats(index)
            stream = self.streams[index]
            replay = VerificationSession("deltanet",
                                         properties=[LoopProperty()])
            for op in stream:
                replay.apply(op)
            verdicts += [
                (f"controller {index}: final seq equals the writes sent",
                 stats.get("sequence") == len(stream)),
                (f"controller {index}: digest equals a serial replay",
                 stats.get("state_digest") == replay.state_digest())]
            replay.close()
        return verdicts

    def digest(self) -> str:
        return " ".join(str(self._stats(index).get("state_digest"))
                        for index in range(CONTROLLERS))

    def facts(self) -> Dict[str, float]:
        out: Dict[str, float] = {"core.deltanet.rules_end": 0,
                                 "core.deltanet.atoms_end": 0}
        journal_bytes = journaled = 0
        for index in range(CONTROLLERS):
            stats = self._stats(index)
            out["core.deltanet.rules_end"] += stats.get("rules", 0)
            out["core.deltanet.atoms_end"] += stats.get("atoms", 0)
            health = self.loop.run_until_complete(
                self._call(index, {"cmd": "health"}))
            store = os.path.join(self.root, f"tenant-{index}")
            pending = health["seq"] - health["last_checkpoint"]
            if pending > 0:
                journal_bytes += os.path.getsize(
                    os.path.join(store, JOURNAL_NAME))
                journaled += pending
            out["persist.snapshot.bytes"] = os.path.getsize(
                os.path.join(store, SNAPSHOT_NAME))
        if journaled:
            out["persist.journal.bytes_per_op"] = journal_bytes / journaled
        sent = sum(len(frame) for frames in self.frames for frame in frames)
        received = sum(len(line) for replies in self.replies
                       for line in replies)
        requests = sum(len(frames) for frames in self.frames)
        out["serve.aio.frame_bytes_in_per_op"] = sent / requests
        out["serve.aio.frame_bytes_out_per_op"] = received / requests
        return out

    def peak_rss_kb(self) -> int:
        """The daemon's peak RSS, read from /proc while it is alive."""
        with open(f"/proc/{self.daemon.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    async def _hang_up(self) -> None:
        """Close the other connections first, then ask for shutdown: a
        hub that stops with a client still attached cancels that
        client's task and logs the traceback."""
        for _reader, writer in self.connections[1:]:
            writer.close()
            await writer.wait_closed()
        await self._call(0, {"cmd": "shutdown"})
        self.connections[0][1].close()

    def close(self) -> None:
        """Shut the daemon down, collect its spans, drop the tmpdir."""
        try:
            self.loop.run_until_complete(self._hang_up())
            self.daemon.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()
        self.loop.close()
        spans_path = os.path.join(self.root, HUB_SPANS_FILE)
        if os.path.exists(spans_path):
            with open(spans_path) as handle:
                written = json.load(handle)
            self.daemon_spans = written["spans"]
            self.daemon_counters = written["counters"]
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    "churn-core": ChurnCore,
    "churn-session": ChurnSession,
    "serve-hub": ServeHub,
    "whatif-links": WhatIfLinks,
    "restart": Restart,
}
