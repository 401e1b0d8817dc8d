#!/usr/bin/env python3
"""Update/check-latency benchmarks and performance-regression gate.

Suites, selected with ``--suite``:

* ``update_latency`` (default) — the full per-update verification
  pipeline (apply the rule operation + incremental loop check, Table 3's
  definition) for several engine configurations; baseline
  ``BENCH_update_latency.json``.
* ``check_latency`` — the *check path* head-to-head: per-update verify
  throughput of the persistent forwarding-index checker (``indexed``)
  against the seed's rebuild-per-check sweep (``sweep``,
  :mod:`repro.checkers.sweep`) at scale, plus the label-memory split
  (run-length ``AtomRuns`` vs the equivalent plain sets); baseline
  ``BENCH_check_latency.json``.
* ``warm_start`` — the recovery path: restoring a session from a
  :mod:`repro.persist` snapshot (``warm``) against rebuilding it by
  replaying the op stream from rule zero (``cold`` — per-op checked
  replay; ``cold-batched`` recorded for reference); baseline
  ``BENCH_warm_start.json``, with a machine-independent >=
  :data:`TARGET_WARM_SPEEDUP` x floor on cold/warm at every size.
* ``scenario_latency`` — per-update verification throughput of each
  :mod:`repro.scenarios` family replayed through a Delta-net session
  with the family's own property subscriptions; "size" is the scenario
  scale in percent (``100`` = scale 1.0).  Baseline
  ``BENCH_scenario_latency.json``.  This is the standing latency record
  for the lifecycles the differential fuzzer replays, so a slowdown in
  any property fast path shows up here per event pattern, not just on
  the synthetic stream.
* ``audit_overhead`` — the :mod:`repro.integrity` online-digest tax on
  the per-update path: the checked per-op replay with digest
  maintenance on (``digest``) vs ``DELTANET_DIGESTS=0`` (``nodigest``);
  baseline ``BENCH_audit_overhead.json``, with a machine-independent
  cap of :data:`MAX_AUDIT_OVERHEAD` on the throughput lost to digests.
* ``serve_throughput`` — the multi-tenant serving layer end to end:
  hundreds of concurrent ndjson controllers over asyncio TCP,
  interleaving rule updates with property queries against one
  (``single``) or eight (``multi``) named sessions; baseline
  ``BENCH_serve_throughput.json``.  This gates the daemon's request
  path — framing, hub routing, per-session writer queues, locking —
  not the verifier underneath (update_latency owns that).
* ``recovery_latency`` — the parallel backend's supervised worker
  recovery: SIGKILL one shard worker of a ``size``-rule instance and
  time restart + snapshot re-seed + replay to the next correct answer
  (``supervised``), against tearing the whole verifier down and
  rebuilding it from the rule stream (``cold-rebuild``, the
  pre-supervision response to a dead worker).  Baseline
  ``BENCH_recovery_latency.json``, with a machine-independent >=
  :data:`TARGET_RECOVERY_SPEEDUP` x floor on cold/supervised at the
  acceptance scale.
* ``whatif_latency`` — the Query API's what-if paths: goal-directed
  single-link queries (``goal``) vs an undirected whole-network loop
  sweep (``sweep``), and k-candidate speculative evaluation as
  copy-on-write forks (``spec``) vs clone-then-apply (``clone``).
  Baseline ``BENCH_whatif_latency.json``, with machine-independent >=
  :data:`TARGET_GOAL_SPEEDUP` x and :data:`TARGET_SPEC_SPEEDUP` x
  floors at the acceptance scale.

Each suite writes machine-readable results at the repo root.  The
committed copies are the performance baselines; the ``check`` subcommand
re-measures and fails on regressions, so the hot paths cannot silently
rot.

Cross-machine comparability: every run also measures a fixed pure-Python
calibration loop.  ``check`` scales the baseline's throughput by the
ratio of calibration speeds before applying the tolerance, so a slower
CI runner does not read as a regression (and a faster one does not mask
a real regression).

Each (variant, size) measurement runs in a fresh subprocess so peak-RSS
numbers are clean per configuration.

Usage::

    python benchmarks/perf_gate.py run [--sizes 10000,50000] [-o FILE]
    python benchmarks/perf_gate.py run --suite check_latency
    python benchmarks/perf_gate.py check [--sizes 10000] [--tolerance 0.30]
    python benchmarks/perf_gate.py check --suite check_latency
    python benchmarks/perf_gate.py measure --variant deltanet --size 10000
    python benchmarks/perf_gate.py measure --suite check_latency \\
        --variant indexed --size 10000
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_update_latency.json")
CHECK_BASELINE = os.path.join(REPO_ROOT, "BENCH_check_latency.json")
WARM_BASELINE = os.path.join(REPO_ROOT, "BENCH_warm_start.json")
SCENARIO_BASELINE = os.path.join(REPO_ROOT, "BENCH_scenario_latency.json")
RECOVERY_BASELINE = os.path.join(REPO_ROOT, "BENCH_recovery_latency.json")
AUDIT_BASELINE = os.path.join(REPO_ROOT, "BENCH_audit_overhead.json")
SERVE_BASELINE = os.path.join(REPO_ROOT, "BENCH_serve_throughput.json")
WHATIF_BASELINE = os.path.join(REPO_ROOT, "BENCH_whatif_latency.json")
WORKLOAD_SEED = 0xD31A
SCHEMA_VERSION = 1

#: Engine configurations: name -> (engine, replay batch size, check loops).
#: ``batch=None`` is the seed's per-op path.
VARIANTS: Dict[str, dict] = {
    "deltanet": dict(engine="deltanet", batch=None, check=True),
    "deltanet-batched": dict(engine="deltanet", batch=1000, check=True),
    "deltanet-nocheck": dict(engine="deltanet", batch=None, check=False),
    "deltanet-batched-nocheck": dict(engine="deltanet", batch=1000,
                                     check=False),
    "sharded": dict(engine="sharded", batch=None, check=True),
    "sharded-batched": dict(engine="sharded", batch=1000, check=True),
    "parallel-batched": dict(engine="parallel", batch=1000, check=True),
}

#: Variants the regression gate enforces.  The parallel variant is
#: recorded for trajectory but not gated: its throughput depends on the
#: host's core count, which calibration cannot normalize away.
GATED_VARIANTS = ("deltanet", "deltanet-batched", "deltanet-nocheck",
                  "deltanet-batched-nocheck", "sharded", "sharded-batched")

#: The headline acceptance ratio the baseline must demonstrate:
#: batched Delta-net vs. the sequential per-op path, ops/sec.  The
#: floor has moved twice, each time because the sequential
#: *denominator* got faster while every absolute throughput rose
#: (docs/performance.md, "Why the batched-speedup floor moved"):
#: 3x -> 2x when the forwarding index landed (a per-op check no longer
#: rebuilds O(E) state, ~2.6x), and 2x -> 1.2x when loop liveness moved
#: to atom space (the session path no longer re-derives every reported
#: cycle per commit, ~6x at 50k; measured ratio 1.3-1.8x).
TARGET_BATCH_SPEEDUP = 1.2

#: check_latency suite — per-update verify pipeline variants: apply one
#: rule op, then loop-check its delta-graph with either the persistent
#: forwarding index (``indexed``) or the seed's rebuild-per-check sweep
#: (``sweep``).  Measured over a window of ops at full scale so the
#: numbers reflect the steady state, not the ramp-up.
CHECK_VARIANTS = ("indexed", "sweep")

#: Ops measured (and timed individually) after building up to ``size``.
CHECK_WINDOW = 1000

#: The check_latency acceptance ratio: indexed vs sweep verify
#: throughput at the largest measured size.  Raised 3x -> 4x when the
#: chase took its hops from the owner structure (measured 6.7-10x at
#: 10k, 8-9x at 50k).
TARGET_CHECK_SPEEDUP = 4.0

#: warm_start suite — recovery-path variants: rebuild a session by
#: replaying the stream from rule zero with per-op checking (``cold``,
#: the pre-persistence recovery path), the batched equivalent
#: (``cold-batched``, reference), or load a :mod:`repro.persist`
#: snapshot (``warm``).
WARM_VARIANTS = ("cold", "cold-batched", "warm")

#: Batch size used to *build* the snapshot scaffolding for the warm
#: measurement (untimed) and for the cold-batched reference.
WARM_BUILD_BATCH = 1000

#: The warm_start acceptance ratio: snapshot restore must beat the
#: checked cold replay by this factor (machine-independent) at the
#: acceptance scale.  Smaller sizes are measured and reported but not
#: floor-gated: warm-start cost is dominated by a near-constant load
#: time, so the ratio shrinks as the stream shrinks (≈5.1x at 10k vs
#: ≈38x at 50k on the committed baseline) and gating there would flake
#: on noise without testing anything the acceptance criterion cares
#: about.
TARGET_WARM_SPEEDUP = 5.0
WARM_FLOOR_SIZE = 50000

#: recovery_latency suite — supervised worker recovery vs rebuilding
#: the whole parallel verifier from the rule stream.
RECOVERY_VARIANTS = ("supervised", "cold-rebuild")
RECOVERY_SHARDS = 4
#: Worker kills timed per supervised measurement (mean reported).
RECOVERY_ROUNDS = 5
#: The recovery acceptance ratio: one supervised restart + re-seed must
#: beat a full cold rebuild by this factor at the acceptance scale.
#: Machine-independent — both sides run on the same host.  Restart cost
#: is per-shard (snapshot restore + a bounded replay buffer) while the
#: rebuild is O(stream), so the ratio grows with size; gate only at
#: RECOVERY_FLOOR_SIZE for the same reason warm_start gates at 50k.
TARGET_RECOVERY_SPEEDUP = 3.0
RECOVERY_FLOOR_SIZE = 20000

#: audit_overhead suite — the online-digest tax on the per-update path:
#: the same checked per-op replay as ``update_latency``'s ``deltanet``
#: variant, once with digest maintenance on (``digest``, the default)
#: and once with ``DELTANET_DIGESTS=0`` (``nodigest``).  Both run on the
#: same host back to back, so the digest/nodigest throughput ratio is
#: machine-independent.
AUDIT_VARIANTS = ("digest", "nodigest")

#: The audit_overhead acceptance cap: digest maintenance may cost at
#: most this fraction of nodigest throughput on the per-update path
#: (digest >= (1 - cap) x nodigest, ops/sec, every measured size).
MAX_AUDIT_OVERHEAD = 0.10

#: whatif_latency suite — the Query API's two headline fast paths.
#: ``goal`` answers a single-link what-if (impact + loop check) through
#: the goal-directed planner, which restricts the loop check to the
#: affected atoms and links; ``sweep`` answers the same query the
#: undirected way — impact plus a whole-network loop sweep.  ``spec``
#: evaluates :data:`WHATIF_K` candidate updates as copy-on-write
#: speculative forks of one base session; ``clone`` evaluates the same
#: candidates by clone-then-apply (rebuild the base per candidate, the
#: pre-speculation recipe).
WHATIF_VARIANTS = ("goal", "sweep", "spec", "clone")

#: Single-link queries timed per run.  The sweep variant runs fewer:
#: each of its queries pays a whole-network loop check, and ops/sec
#: normalizes the counts away.
WHATIF_QUERIES = {"goal": 64, "sweep": 8}

#: Candidate fan-out and per-candidate batch size for spec/clone.
WHATIF_K = 8
WHATIF_CANDIDATE_OPS = 24

#: The whatif_latency acceptance ratios (machine-independent), gated at
#: the acceptance scale only; smaller sizes are recorded for trend.
TARGET_GOAL_SPEEDUP = 3.0
TARGET_SPEC_SPEEDUP = 5.0
WHATIF_FLOOR_SIZE = 50000

#: scenario_latency suite — one variant per scenario family; the seed is
#: fixed so the measured trace is identical across runs and machines.
SCENARIO_SEED = 11

#: Scenario "sizes" are the scenario scale in percent (100 = 1.0).
#: Variants come from the family registry, so a new family is measured
#: (and gains a baseline on the next `run`) without touching this file.
def _scenario_variants():
    from repro.scenarios import scenario_families

    return scenario_families()


def synthetic_update_workload(size: int, seed: int = WORKLOAD_SEED,
                              width: int = 32, switches: int = 40,
                              removal_fraction: float = 0.3):
    """A deterministic ops stream shaped like the paper's datasets.

    Prefixes come from a shared pool (so atoms << rules, the Table 3
    shape), rules land on random switches with globally unique
    priorities, and ~``removal_fraction`` of operations remove a random
    live rule.
    """
    from repro.core.rules import Rule
    from repro.datasets.format import Op

    rng = random.Random(seed)
    pool = []
    for _ in range(max(64, size // 25)):
        plen = rng.randint(10, 24)
        span = 1 << (width - plen)
        lo = rng.randrange(1 << width) & ~(span - 1)
        pool.append((lo, lo + span))
    ops: List[Op] = []
    live: List[int] = []
    next_rid = 0
    while len(ops) < size:
        if live and rng.random() < removal_fraction:
            ops.append(Op.remove(live.pop(rng.randrange(len(live)))))
            continue
        lo, hi = pool[rng.randrange(len(pool))]
        source = rng.randrange(switches)
        target = (source + rng.randrange(1, switches)) % switches
        ops.append(Op.insert(Rule.forward(
            next_rid, lo, hi, next_rid, f"s{source}", f"s{target}")))
        live.append(next_rid)
        next_rid += 1
    return ops


def calibration_score(rounds: int = 3) -> float:
    """Machine-speed probe: iterations/second of a fixed Python loop."""
    def one_round() -> float:
        total, value = 0, 0x9E3779B9
        start = time.perf_counter()
        for index in range(400_000):
            value = (value * 0x5DEECE66D + index) & 0xFFFFFFFFFFFF
            total += value >> 24
        return 400_000 / (time.perf_counter() - start)

    return max(one_round() for _ in range(rounds))


def measure_variant(variant: str, size: int) -> dict:
    """One (variant, size) measurement; runs inside its own process."""
    from repro.analysis.stats import percentile
    from repro.replay.engine import make_engine, replay

    spec = VARIANTS[variant]
    ops = synthetic_update_workload(size)
    engine = make_engine(spec["engine"], check_loops=spec["check"])
    try:
        start = time.perf_counter()
        result = replay(ops, engine, engine_name=variant,
                        batch_size=spec["batch"])
        elapsed = time.perf_counter() - start
        times = result.times
        atoms = engine.num_atoms
        if atoms is None:
            native = engine.session.native
            atoms = getattr(native, "total_atoms", None)
        return {
            "variant": variant,
            "engine": spec["engine"],
            "batch_size": spec["batch"],
            "check_loops": spec["check"],
            "ops": result.num_ops,
            "seconds": round(elapsed, 4),
            "ops_per_sec": round(result.num_ops / elapsed, 1),
            "p50_us": round(percentile(times, 50) * 1e6, 2),
            "p95_us": round(percentile(times, 95) * 1e6, 2),
            "p99_us": round(percentile(times, 99) * 1e6, 2),
            "atoms": atoms,
            "loops_found": result.loops_found,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    finally:
        engine.close()


def _label_memory_bytes(net) -> Dict[str, int]:
    """Container bytes of the label table, runs vs equivalent sets.

    Counts the bucket containers themselves (AtomRuns object + its two
    run arrays, or the hash table of an equivalent ``set``); the atom
    int objects are shared across buckets either way and excluded from
    both sides, so the comparison is apples-to-apples.
    """
    import sys as _sys

    runs_bytes = 0
    sets_bytes = 0
    for bucket in net.label.values():
        runs_bytes += bucket.container_bytes()
        sets_bytes += _sys.getsizeof(set(bucket))
    return {"label_bytes_runs": runs_bytes, "label_bytes_sets": sets_bytes}


def measure_check_variant(variant: str, size: int) -> dict:
    """One check_latency measurement; runs inside its own process.

    Builds a ``size``-op data plane (updates unchecked — the build is
    scaffolding), then times the full per-update verify pipeline (apply
    + loop check of the delta) over the final :data:`CHECK_WINDOW` ops
    with the chosen check implementation.
    """
    from repro.analysis.stats import percentile
    from repro.checkers import sweep as sweep_checkers
    from repro.checkers.loops import LoopChecker
    from repro.core.deltanet import DeltaNet

    ops = synthetic_update_workload(size)
    net = DeltaNet(width=32)
    window = min(CHECK_WINDOW, len(ops))
    for op in ops[:-window]:
        if op.is_insert:
            net.insert_rule(op.rule)
        else:
            net.remove_rule(op.rid)
    if variant == "indexed":
        check = LoopChecker(net).check_update
    else:
        check = lambda delta: sweep_checkers.sweep_check_update(net, delta)  # noqa: E731
    times: List[float] = []
    loops_found = 0
    clock = time.perf_counter
    for op in ops[-window:]:
        start = clock()
        if op.is_insert:
            delta = net.insert_rule(op.rule)
        else:
            delta = net.remove_rule(op.rid)
        loops_found += len(check(delta))
        times.append(clock() - start)
    elapsed = sum(times)
    stats = net.findex.label_stats()
    entry = {
        "variant": variant,
        "suite": "check_latency",
        "size": size,
        "window_ops": window,
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(window / elapsed, 1),
        "p50_us": round(percentile(times, 50) * 1e6, 2),
        "p95_us": round(percentile(times, 95) * 1e6, 2),
        "p99_us": round(percentile(times, 99) * 1e6, 2),
        "loops_found": loops_found,
        "rules": net.num_rules,
        "atoms": net.num_atoms,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    entry.update(stats)
    entry.update(_label_memory_bytes(net))
    return entry


def measure_warm_variant(variant: str, size: int) -> dict:
    """One warm_start measurement; runs inside its own process.

    ``cold``/``cold-batched`` time the replay-from-zero recovery path
    (per-op checked, or batched) over the full ``size``-op stream.
    ``warm`` builds the same session once (untimed scaffolding), saves a
    snapshot, then times :meth:`VerificationSession.load` — the restart
    path a production deployment takes.  ``ops_per_sec`` is recovered
    stream ops per second either way, so the numbers are directly
    comparable.
    """
    import tempfile

    from repro.api.session import VerificationSession
    from repro.replay.engine import make_engine, replay

    ops = synthetic_update_workload(size)
    if variant in ("cold", "cold-batched"):
        engine = make_engine("deltanet", check_loops=True)
        try:
            start = time.perf_counter()
            result = replay(ops, engine,
                            batch_size=(WARM_BUILD_BATCH
                                        if variant == "cold-batched"
                                        else None))
            elapsed = time.perf_counter() - start
            entry = {
                "rules": engine.session.num_rules,
                "atoms": engine.num_atoms,
                "loops_found": result.loops_found,
            }
        finally:
            engine.close()
    else:
        engine = make_engine("deltanet", check_loops=True)
        handle, snapshot_path = tempfile.mkstemp(suffix=".snap")
        os.close(handle)
        try:
            replay(ops, engine, batch_size=WARM_BUILD_BATCH)
            save_start = time.perf_counter()
            engine.session.save(snapshot_path)
            save_seconds = time.perf_counter() - save_start
            start = time.perf_counter()
            session = VerificationSession.load(snapshot_path)
            elapsed = time.perf_counter() - start
            entry = {
                "rules": session.num_rules,
                "atoms": session.native.num_atoms,
                "loops_found": len(session.violations()),
                "save_seconds": round(save_seconds, 4),
                "snapshot_bytes": os.path.getsize(snapshot_path),
            }
            session.close()
        finally:
            engine.close()
            if os.path.exists(snapshot_path):
                os.unlink(snapshot_path)
    entry.update({
        "variant": variant,
        "suite": "warm_start",
        "size": size,
        "ops": size,
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(size / elapsed, 1),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return entry


def measure_audit_variant(variant: str, size: int) -> dict:
    """One audit_overhead measurement; runs inside its own process.

    The environment knob must be set before :mod:`repro` constructs the
    engine — digest maintenance is chosen per structure at creation —
    which is exactly why each measurement gets a fresh interpreter.
    """
    if variant == "nodigest":
        os.environ["DELTANET_DIGESTS"] = "0"
    else:
        os.environ.pop("DELTANET_DIGESTS", None)
    from repro.analysis.stats import percentile
    from repro.replay.engine import make_engine, replay

    ops = synthetic_update_workload(size)
    engine = make_engine("deltanet", check_loops=True)
    try:
        start = time.perf_counter()
        result = replay(ops, engine, engine_name=variant, batch_size=None)
        elapsed = time.perf_counter() - start
        times = result.times
        digest = engine.session.state_digest()
        # Guard the measurement itself: a digest run that silently lost
        # its accumulators would measure the nodigest path twice and
        # the overhead cap would pass vacuously.
        if variant == "digest" and digest is None:
            raise RuntimeError("digest variant ran without digests")
        if variant == "nodigest" and digest is not None:
            raise RuntimeError("nodigest variant still maintained digests")
        return {
            "variant": variant,
            "suite": "audit_overhead",
            "size": size,
            "digests_enabled": digest is not None,
            "ops": result.num_ops,
            "seconds": round(elapsed, 4),
            "ops_per_sec": round(result.num_ops / elapsed, 1),
            "p50_us": round(percentile(times, 50) * 1e6, 2),
            "p95_us": round(percentile(times, 95) * 1e6, 2),
            "p99_us": round(percentile(times, 99) * 1e6, 2),
            "loops_found": result.loops_found,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    finally:
        engine.close()


def _recovery_apply_all(par, ops, batch: int = 1000) -> None:
    """Apply the ops stream in aggregated unchecked batches.

    Flushes before a removal of a rule still pending in the same batch
    (apply_batch removes first, so such a pair must not share one).
    """
    pending_rules: List = []
    pending_rids: List[int] = []
    pending_inserted: set = set()

    def flush() -> None:
        if pending_rules or pending_rids:
            par.apply_batch(pending_rules, pending_rids, check=False)
            pending_rules.clear()
            pending_rids.clear()
            pending_inserted.clear()

    for op in ops:
        if op.is_insert:
            pending_rules.append(op.rule)
            pending_inserted.add(op.rule.rid)
        else:
            if op.rid in pending_inserted:
                flush()
            pending_rids.append(op.rid)
        if len(pending_rules) + len(pending_rids) >= batch:
            flush()
    flush()


def measure_recovery_variant(variant: str, size: int) -> dict:
    """One recovery_latency measurement; runs inside its own process.

    ``supervised`` builds a process-mode parallel verifier (untimed
    scaffolding), then :data:`RECOVERY_ROUNDS` times SIGKILLs one shard
    worker and times the next fan-out query — detection, restart,
    snapshot re-seed, replay-buffer replay, and the answer itself.
    ``restart_backoff=0`` isolates the mechanism: the backoff sleep is
    a retry-storm policy constant, not a cost of recovery.

    ``cold-rebuild`` times the pre-supervision response to the same
    dead worker: tear everything down and rebuild the verifier from the
    rule stream (unchecked batches — alerts were already delivered),
    ending at the same answered query.
    """
    from repro.libra.parallel import ParallelShardedDeltaNet
    from repro.libra.sharding import even_shards

    ops = synthetic_update_workload(size)
    slices = even_shards(RECOVERY_SHARDS, 32)
    knobs = dict(width=32, deadline=60.0, restart_backoff=0.0,
                 reseed_every=512)
    clock = time.perf_counter
    if variant == "supervised":
        par = ParallelShardedDeltaNet(slices, **knobs)
        try:
            if not par.parallel:
                raise RuntimeError(
                    "recovery_latency needs real worker processes; "
                    "this host cannot spawn them")
            _recovery_apply_all(par, ops)
            reference = par.shard_sizes()
            times: List[float] = []
            for round_index in range(RECOVERY_ROUNDS):
                shard = round_index % RECOVERY_SHARDS
                endpoint = par._workers[shard]
                endpoint.process.kill()
                endpoint.process.join(timeout=5)
                start = clock()
                answer = par.shard_sizes()
                times.append(clock() - start)
                if answer != reference:
                    raise RuntimeError(
                        f"recovery diverged on round {round_index}: "
                        f"{answer} != {reference}")
            if par.restarts != RECOVERY_ROUNDS or par.degraded:
                raise RuntimeError(
                    f"expected {RECOVERY_ROUNDS} clean restarts, got "
                    f"{par.restarts} (degraded={par.degraded})")
            elapsed = sum(times) / len(times)
            entry = {
                "rounds": RECOVERY_ROUNDS,
                "restarts": par.restarts,
                "recovery_seconds_max": round(max(times), 4),
                "rules": par.num_rules,
            }
        finally:
            par.close()
    else:
        start = clock()
        par = ParallelShardedDeltaNet(slices, **knobs)
        try:
            if not par.parallel:
                raise RuntimeError(
                    "recovery_latency needs real worker processes; "
                    "this host cannot spawn them")
            _recovery_apply_all(par, ops)
            par.shard_sizes()
            elapsed = clock() - start
            entry = {"rules": par.num_rules}
        finally:
            par.close()
    entry.update({
        "variant": variant,
        "suite": "recovery_latency",
        "size": size,
        "shards": RECOVERY_SHARDS,
        "seconds": round(elapsed, 4),
        # recoveries (or rebuilds) per second — the gated throughput.
        "ops_per_sec": round(1.0 / elapsed, 2),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    return entry


def measure_scenario_variant(family: str, size: int) -> dict:
    """One scenario_latency measurement; runs inside its own process.

    Builds the family's trace at scale ``size``/100 (untimed), then
    replays it through a Delta-net session watching the scenario's own
    properties, timing each committed update end-to-end (backend apply
    + every subscription check).
    """
    from repro.analysis.stats import percentile
    from repro.api import VerificationSession
    from repro.scenarios import build_scenario

    scenario = build_scenario(family, seed=SCENARIO_SEED,
                              scale=size / 100.0)
    times: List[float] = []
    violations = 0
    clock = time.perf_counter
    with VerificationSession("deltanet", width=scenario.width,
                             properties=scenario.make_properties()) as session:
        for op in scenario.ops:
            start = clock()
            result = session.apply(op)
            times.append(clock() - start)
            violations += len(result.violations)
        atoms = getattr(session.native, "num_atoms", None)
    elapsed = sum(times)
    return {
        "variant": family,
        "suite": "scenario_latency",
        "size": size,
        "ops": len(times),
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(len(times) / elapsed, 1),
        "p50_us": round(percentile(times, 50) * 1e6, 2),
        "p95_us": round(percentile(times, 95) * 1e6, 2),
        "p99_us": round(percentile(times, 99) * 1e6, 2),
        "violations": violations,
        "properties": [spec.name for spec in scenario.property_specs],
        "atoms": atoms,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _measure_in_subprocess(variant: str, size: int,
                           suite: str = "update_latency") -> dict:
    """Fork a fresh interpreter so peak RSS is this measurement's own."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "measure",
         "--suite", suite, "--variant", variant, "--size", str(size)],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 [os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                  os.environ.get("PYTHONPATH", "")])})
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement {variant}@{size} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_benchmark(sizes, variants=None, echo=print) -> dict:
    """The full measurement matrix, as the JSON-serializable document."""
    chosen = list(variants) if variants is not None else list(VARIANTS)
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in chosen:
            echo(f"  measuring {variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size)
            results[f"{variant}@{size}"] = entry
            echo(f"    {entry['ops_per_sec']:,.0f} ops/s  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us "
                 f"rss={entry['peak_rss_kb']}KiB")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "update-latency",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "description": "synthetic prefix-pool rule updates, "
                           "~30% removals, per-update loop checking "
                           "per variant",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        seq = results.get(f"deltanet@{size}")
        bat = results.get(f"deltanet-batched@{size}")
        if seq and bat:
            document.setdefault("speedups", {})[f"batched@{size}"] = round(
                bat["ops_per_sec"] / seq["ops_per_sec"], 2)
    return document


def run_check_benchmark(sizes, echo=print) -> dict:
    """The check_latency matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in CHECK_VARIANTS:
            echo(f"  measuring check:{variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size,
                                           suite="check_latency")
            results[f"{variant}@{size}"] = entry
            echo(f"    {entry['ops_per_sec']:,.0f} verified ops/s  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us  "
                 f"label: {entry['label_runs']} runs / "
                 f"{entry['label_atoms']} atoms, "
                 f"{entry['label_bytes_runs'] / 1024:,.0f}KiB as runs vs "
                 f"{entry['label_bytes_sets'] / 1024:,.0f}KiB as sets")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "check-latency",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "window_ops": CHECK_WINDOW,
            "description": "per-update verify pipeline (apply + loop "
                           "check) over the final window of the "
                           "synthetic prefix-pool stream; indexed = "
                           "persistent forwarding index, sweep = "
                           "rebuild-per-check reference",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        indexed = results.get(f"indexed@{size}")
        swept = results.get(f"sweep@{size}")
        if indexed and swept:
            speedups = document.setdefault("speedups", {})
            speedups[f"indexed-vs-sweep@{size}"] = round(
                indexed["ops_per_sec"] / swept["ops_per_sec"], 2)
    return document


def run_warm_benchmark(sizes, echo=print) -> dict:
    """The warm_start matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in WARM_VARIANTS:
            echo(f"  measuring warm_start:{variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size, suite="warm_start")
            results[f"{variant}@{size}"] = entry
            extra = (f"  snapshot={entry['snapshot_bytes'] / 1024:,.0f}KiB "
                     f"save={entry['save_seconds']}s"
                     if variant == "warm" else "")
            echo(f"    {entry['seconds']}s "
                 f"({entry['ops_per_sec']:,.0f} recovered ops/s){extra}")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "warm-start",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "build_batch": WARM_BUILD_BATCH,
            "description": "session recovery: repro.persist snapshot "
                           "load (warm) vs checked replay from rule "
                           "zero (cold / cold-batched) on the synthetic "
                           "prefix-pool stream",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        warm = results.get(f"warm@{size}")
        speedups = document.setdefault("speedups", {})
        for reference in ("cold", "cold-batched"):
            entry = results.get(f"{reference}@{size}")
            if warm and entry:
                speedups[f"warm-vs-{reference}@{size}"] = round(
                    entry["seconds"] / warm["seconds"], 2)
    return document


def run_recovery_benchmark(sizes, echo=print) -> dict:
    """The recovery_latency matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in RECOVERY_VARIANTS:
            echo(f"  measuring recovery:{variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size,
                                           suite="recovery_latency")
            results[f"{variant}@{size}"] = entry
            if variant == "supervised":
                echo(f"    {entry['seconds']}s mean per recovery "
                     f"(max {entry['recovery_seconds_max']}s, "
                     f"{entry['rounds']} worker kills)")
            else:
                echo(f"    {entry['seconds']}s full rebuild")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "recovery-latency",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "shards": RECOVERY_SHARDS,
            "rounds": RECOVERY_ROUNDS,
            "description": "SIGKILL one shard worker of a process-mode "
                           "parallel verifier; supervised = restart + "
                           "snapshot re-seed + replay to the next "
                           "correct answer, cold-rebuild = rebuild the "
                           "verifier from the rule stream",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        supervised = results.get(f"supervised@{size}")
        cold = results.get(f"cold-rebuild@{size}")
        if supervised and cold:
            document.setdefault("speedups", {})[
                f"supervised-vs-rebuild@{size}"] = round(
                    cold["seconds"] / supervised["seconds"], 2)
    return document


def run_audit_benchmark(sizes, echo=print) -> dict:
    """The audit_overhead matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in AUDIT_VARIANTS:
            echo(f"  measuring audit:{variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size,
                                           suite="audit_overhead")
            results[f"{variant}@{size}"] = entry
            echo(f"    {entry['ops_per_sec']:,.0f} ops/s  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "audit-overhead",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "description": "per-op checked replay of the synthetic "
                           "prefix-pool stream with online digest "
                           "maintenance on (digest) vs "
                           "DELTANET_DIGESTS=0 (nodigest); the ratio "
                           "is the integrity tax on the update path",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        on = results.get(f"digest@{size}")
        off = results.get(f"nodigest@{size}")
        if on and off:
            document.setdefault("overheads", {})[f"digest-tax@{size}"] = (
                round(1.0 - on["ops_per_sec"] / off["ops_per_sec"], 4))
    return document


def compare_audit_to_baseline(current: dict, baseline_path: str,
                              tolerance: float, echo=print) -> List[str]:
    """Regressed keys of an audit_overhead run vs the baseline.

    Gates the ``digest`` variant's calibration-normalized throughput
    and the machine-independent overhead cap: digest maintenance may
    cost at most :data:`MAX_AUDIT_OVERHEAD` of nodigest throughput at
    every measured size.  The nodigest variant is recorded for the
    ratio but not gated — update_latency already owns the raw path.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if not key.startswith("digest@"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} ops/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    for size in current["workload"]["sizes"]:
        on = current["results"].get(f"digest@{size}")
        off = current["results"].get(f"nodigest@{size}")
        if on and off:
            overhead = 1.0 - on["ops_per_sec"] / off["ops_per_sec"]
            status = ("ok" if overhead <= MAX_AUDIT_OVERHEAD
                      else "REGRESSION")
            echo(f"  digest overhead @ {size}: {overhead:.1%} "
                 f"(cap {MAX_AUDIT_OVERHEAD:.0%}) {status}")
            if status != "ok":
                failures.append(f"audit-overhead@{size}")
    return failures


def run_scenario_benchmark(sizes, echo=print) -> dict:
    """The scenario_latency matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for family in _scenario_variants():
            echo(f"  measuring scenario:{family} @ scale {size}% ...")
            entry = _measure_in_subprocess(family, size,
                                           suite="scenario_latency")
            results[f"{family}@{size}"] = entry
            echo(f"    {entry['ops']} ops  "
                 f"{entry['ops_per_sec']:,.0f} verified ops/s  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us  "
                 f"violations={entry['violations']}")
    return {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "scenario-latency",
            "seed": SCENARIO_SEED,
            "sizes": list(sizes),
            "description": "each repro.scenarios family replayed "
                           "through a deltanet VerificationSession "
                           "watching the family's own properties; "
                           "sizes are scenario scale in percent",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }


def compare_scenario_to_baseline(current: dict, baseline_path: str,
                                 tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a scenario_latency run vs the baseline.

    Every family is gated on calibration-normalized per-update verify
    throughput; there is no cross-variant ratio floor (the families are
    workloads, not competing implementations).
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} verified ops/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    return failures


def compare_recovery_to_baseline(current: dict, baseline_path: str,
                                 tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a recovery_latency run vs the baseline.

    Gates the ``supervised`` variant's calibration-normalized recovery
    rate (recoveries/sec) and the machine-independent
    supervised-vs-rebuild speedup floor at the acceptance scale.  The
    cold rebuild is recorded for the ratio but not gated — the
    update_latency suite already owns raw replay throughput.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if not key.startswith("supervised@"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.2f} recoveries/s "
             f"(baseline-normalized {expected:,.2f}, floor {floor:,.2f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    for size in current["workload"]["sizes"]:
        supervised = current["results"].get(f"supervised@{size}")
        cold = current["results"].get(f"cold-rebuild@{size}")
        if supervised and cold:
            ratio = cold["seconds"] / supervised["seconds"]
            if size < RECOVERY_FLOOR_SIZE:
                echo(f"  supervised recovery speedup @ {size}: "
                     f"{ratio:.2f}x vs cold rebuild (recorded; floor "
                     f"gated at >= {RECOVERY_FLOOR_SIZE} rules only)")
                continue
            status = ("ok" if ratio >= TARGET_RECOVERY_SPEEDUP
                      else "REGRESSION")
            echo(f"  supervised recovery speedup @ {size}: {ratio:.2f}x "
                 f"vs cold rebuild (target >= "
                 f"{TARGET_RECOVERY_SPEEDUP}x) {status}")
            if status != "ok":
                failures.append(f"recovery-speedup@{size}")
    return failures


def compare_warm_to_baseline(current: dict, baseline_path: str,
                             tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a warm_start run vs the committed baseline.

    Gates the ``warm`` variant's calibration-normalized restore
    throughput and the machine-independent warm-vs-cold speedup floor
    (the headline: restarting must beat replaying from rule zero by
    >= :data:`TARGET_WARM_SPEEDUP` x).  The cold variants are recorded
    for the ratio but not gated individually — the update_latency suite
    already owns the replay path.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if not key.startswith("warm@"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} recovered ops/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    for size in current["workload"]["sizes"]:
        warm = current["results"].get(f"warm@{size}")
        cold = current["results"].get(f"cold@{size}")
        if warm and cold:
            ratio = cold["seconds"] / warm["seconds"]
            if size < WARM_FLOOR_SIZE:
                echo(f"  warm-start speedup @ {size}: {ratio:.2f}x vs "
                     f"cold replay (recorded; floor gated at "
                     f">= {WARM_FLOOR_SIZE} rules only)")
                continue
            status = "ok" if ratio >= TARGET_WARM_SPEEDUP else "REGRESSION"
            echo(f"  warm-start speedup @ {size}: {ratio:.2f}x vs cold "
                 f"replay (target >= {TARGET_WARM_SPEEDUP}x) {status}")
            if status != "ok":
                failures.append(f"warm-speedup@{size}")
    return failures


def compare_check_to_baseline(current: dict, baseline_path: str,
                              tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a check_latency run vs the committed baseline.

    Gates the ``indexed`` variant's calibration-normalized throughput
    and the machine-independent indexed-vs-sweep speedup floor.  The
    ``sweep`` variant is recorded for the ratio but not gated — it is
    the reference implementation, not a hot path.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if not key.startswith("indexed@"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} verified ops/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    for size in current["workload"]["sizes"]:
        indexed = current["results"].get(f"indexed@{size}")
        swept = current["results"].get(f"sweep@{size}")
        if indexed and swept:
            ratio = indexed["ops_per_sec"] / swept["ops_per_sec"]
            status = ("ok" if ratio >= TARGET_CHECK_SPEEDUP
                      else "REGRESSION")
            echo(f"  indexed speedup @ {size}: {ratio:.2f}x "
                 f"(target >= {TARGET_CHECK_SPEEDUP}x) {status}")
            if status != "ok":
                failures.append(f"check-speedup@{size}")
    return failures


def compare_to_baseline(current: dict, baseline_path: str,
                        tolerance: float, echo=print) -> List[str]:
    """Regressed result keys of ``current`` vs the committed baseline.

    Throughput comparisons are calibration-normalized (machine speed);
    the batched-vs-sequential speedup floor is machine-independent and
    checked unscaled.  Returns an empty list when everything holds.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if key.split("@")[0] not in GATED_VARIANTS:
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} ops/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    # The headline property must hold on this machine too: batching
    # beats the sequential path by a real margin, machine-independent.
    for size in current["workload"]["sizes"]:
        seq = current["results"].get(f"deltanet@{size}")
        bat = current["results"].get(f"deltanet-batched@{size}")
        if seq and bat:
            ratio = bat["ops_per_sec"] / seq["ops_per_sec"]
            status = "ok" if ratio >= TARGET_BATCH_SPEEDUP else "REGRESSION"
            echo(f"  batched speedup @ {size}: {ratio:.2f}x "
                 f"(target >= {TARGET_BATCH_SPEEDUP}x) {status}")
            if status != "ok":
                failures.append(f"batched-speedup@{size}")
    return failures


#: serve_throughput suite — multi-tenant daemon request-path throughput.
#: ``multi`` spreads the controllers over eight named sessions (each
#: with its own writer task and write lock), ``single`` funnels them
#: all into one; the contrast is recorded but not gated (it is a
#: scheduling property, not a machine-independent ratio).
SERVE_VARIANTS = ("multi", "single")
SERVE_SESSIONS = {"multi": 8, "single": 1}

#: Every Nth controller request is a ``query what=loops`` read; the
#: rest are inserts, so the stream exercises both the writer-queue
#: path and the concurrent-reader path.
SERVE_QUERY_EVERY = 10


def _serve_clients(size: int) -> int:
    """Concurrent controllers for a serve_throughput run of ``size``."""
    return 100 if size <= 5000 else 200


def measure_serve_variant(variant: str, size: int) -> dict:
    """One serve_throughput measurement; runs inside its own process.

    Boots an :class:`~repro.serve.AsyncSessionHub` on an ephemeral TCP
    port and drives it with hundreds of lockstep ndjson controllers
    (asyncio coroutines sharing the daemon's event loop, like the real
    transport), each attached to one of the hub's pre-opened sessions.
    ``size`` is the total request count across all controllers; every
    :data:`SERVE_QUERY_EVERY`-th request is a loop query, the rest are
    inserts with controller-unique rule ids.  Timed end to end from
    the first request to the last reply, so ops/sec includes framing,
    hub routing, writer queues and locking — the serving layer's own
    tax on top of the verifier the other suites gate.
    """
    import asyncio
    import tempfile

    from repro.analysis.stats import percentile
    from repro.serve import AsyncSessionHub, SessionManager, serve_hub_tcp

    sessions = SERVE_SESSIONS[variant]
    clients = _serve_clients(size)
    per_client = size // clients
    root = tempfile.mkdtemp(prefix="perf-serve-")
    clock = time.perf_counter
    times: List[float] = []

    async def controller(index: int, host: str, port: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)

        async def call(request: dict) -> None:
            start = clock()
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
            await writer.drain()
            line = await reader.readline()
            times.append(clock() - start)
            reply = json.loads(line)
            if not reply.get("ok", False):
                raise RuntimeError(f"controller {index}: {reply!r}")

        try:
            await call({"cmd": "attach",
                        "session": f"tenant-{index % sessions}"})
            base = (index + 1) * 1_000_000
            for n in range(per_client):
                if n % SERVE_QUERY_EVERY == SERVE_QUERY_EVERY - 1:
                    await call({"cmd": "query", "what": "loops"})
                else:
                    lo = (n % 64) << 20
                    await call({"cmd": "insert", "rule": {
                        "rid": base + n, "priority": base + n,
                        "lo": lo, "hi": lo + (1 << 20) - 1,
                        "source": f"s{index % 16}", "target": "sink"}})
        finally:
            writer.close()

    async def drive() -> float:
        # Big checkpoint_every: snapshot cadence belongs to the
        # warm_start suite, not this one.  Big max_queue: lockstep
        # controllers cannot legitimately overflow the writer queues,
        # so an "overloaded" here would be a bug, not backpressure.
        manager = SessionManager(root, defaults=dict(
            width=32, properties=("loops",), checkpoint_every=1 << 30,
            max_queue=4096))
        for number in range(sessions):
            manager.open(f"tenant-{number}")
        hub = AsyncSessionHub(manager)
        bound: Dict[str, tuple] = {}
        ready = asyncio.Event()

        def on_ready(host: str, port: int) -> None:
            bound["address"] = (host, port)
            ready.set()

        server = asyncio.ensure_future(serve_hub_tcp(hub, ready=on_ready))
        await ready.wait()
        host, port = bound["address"]
        start = clock()
        await asyncio.gather(*[controller(i, host, port)
                               for i in range(clients)])
        elapsed = clock() - start
        hub.request_stop()
        await server
        return elapsed

    elapsed = asyncio.run(drive())
    ops = len(times)
    return {
        "variant": variant,
        "suite": "serve_throughput",
        "size": size,
        "sessions": sessions,
        "clients": clients,
        "ops": ops,
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(ops / elapsed, 1),
        "p50_us": round(percentile(times, 50) * 1e6, 2),
        "p95_us": round(percentile(times, 95) * 1e6, 2),
        "p99_us": round(percentile(times, 99) * 1e6, 2),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_serve_benchmark(sizes, echo=print) -> dict:
    """The serve_throughput matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in SERVE_VARIANTS:
            echo(f"  measuring serve:{variant} @ {size} requests ...")
            entry = _measure_in_subprocess(variant, size,
                                           suite="serve_throughput")
            results[f"{variant}@{size}"] = entry
            echo(f"    {entry['ops_per_sec']:,.0f} requests/s over "
                 f"{entry['clients']} controllers x "
                 f"{entry['sessions']} sessions  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us "
                 f"rss={entry['peak_rss_kb']}KiB")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "serve-throughput",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "query_every": SERVE_QUERY_EVERY,
            "description": "lockstep ndjson controllers over asyncio "
                           "TCP against the multi-tenant hub; inserts "
                           "with per-controller rule ids, every "
                           f"{SERVE_QUERY_EVERY}th request a loop "
                           "query; multi = 8 sessions, single = 1",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        multi = results.get(f"multi@{size}")
        single = results.get(f"single@{size}")
        if multi and single:
            document.setdefault("speedups", {})[f"multi@{size}"] = round(
                multi["ops_per_sec"] / single["ops_per_sec"], 2)
    return document


def compare_serve_to_baseline(current: dict, baseline_path: str,
                              tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a serve_throughput run vs the baseline.

    Gates the ``multi`` variant's calibration-normalized request
    throughput — the tentpole configuration.  ``single`` and the
    multi/single contrast are recorded but not gated: under the GIL
    the contrast is a scheduling artifact of the host, and the
    single-session request path is already covered transitively
    (same code minus the routing fan-out).
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if not key.startswith("multi@"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.0f} requests/s "
             f"(baseline-normalized {expected:,.0f}, floor {floor:,.0f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    return failures


def _whatif_base_session(size: int):
    """A deltanet session holding the synthetic data plane, unchecked."""
    from repro.api import VerificationSession

    session = VerificationSession("deltanet", width=32)
    for op in synthetic_update_workload(size):
        if op.is_insert:
            session.insert(op.rule)
        else:
            session.remove(op.rid)
    return session


def _whatif_candidates(rng, switches: int = 40):
    """:data:`WHATIF_K` insert-only candidate batches, disjoint rids."""
    from repro.core.rules import Rule

    candidates = []
    for index in range(WHATIF_K):
        base = 10_000_000 + index * WHATIF_CANDIDATE_OPS
        batch = []
        for n in range(WHATIF_CANDIDATE_OPS):
            lo = rng.randrange(1 << 24) << 8
            source = rng.randrange(switches)
            target = (source + rng.randrange(1, switches)) % switches
            batch.append(Rule.forward(base + n, lo, lo + (1 << 8), base + n,
                                      f"s{source}", f"s{target}"))
        candidates.append(batch)
    return candidates


def measure_whatif_variant(variant: str, size: int) -> dict:
    """One whatif_latency measurement; runs inside its own process.

    goal/sweep time single-link what-if queries (with loop check) over
    the same deterministic link sample — goal through the planner's
    restricted evaluation, sweep with an undirected whole-network loop
    check.  spec/clone time the evaluation of one candidate batch each
    — spec as a :meth:`~repro.api.VerificationSession.speculate` fork
    (fork + checked candidate ops + discard), clone by rebuilding the
    base data plane from its live rules before applying the candidate.
    """
    from repro.analysis.stats import percentile
    from repro.api import LinkDown, LoopProperty, VerificationSession
    from repro.checkers.loops import find_forwarding_loops
    from repro.checkers.whatif import link_failure_impact

    rng = random.Random(WORKLOAD_SEED ^ size)
    session = _whatif_base_session(size)
    clock = time.perf_counter
    times: List[float] = []
    extra: Dict[str, int] = {}
    try:
        if variant in ("goal", "sweep"):
            links = sorted(set(session.links()), key=repr)
            sample = [links[rng.randrange(len(links))]
                      for _ in range(WHATIF_QUERIES[variant])]
            native = session.native
            violations = 0
            for link in sample:
                start = clock()
                if variant == "goal":
                    violations += len(
                        session.query(LinkDown(link, loops=True)).violations)
                else:
                    link_failure_impact(native, link)
                    violations += len(find_forwarding_loops(native))
                times.append(clock() - start)
            extra = {"links": len(links), "violations": violations}
        elif variant == "spec":
            session.watch(LoopProperty())
            violations = 0
            for batch in _whatif_candidates(rng):
                start = clock()
                child = session.speculate()
                try:
                    for rule in batch:
                        violations += len(child.insert(rule).violations)
                finally:
                    child.discard()
                times.append(clock() - start)
            extra = {"k": WHATIF_K, "candidate_ops": WHATIF_CANDIDATE_OPS,
                     "violations": violations}
        else:
            base_rules = list(session.rules().values())
            violations = 0
            for batch in _whatif_candidates(rng):
                start = clock()
                clone = VerificationSession("deltanet", width=32)
                try:
                    for rule in base_rules:
                        clone.insert(rule)
                    clone.watch(LoopProperty())
                    for rule in batch:
                        violations += len(clone.insert(rule).violations)
                finally:
                    clone.close()
                times.append(clock() - start)
            extra = {"k": WHATIF_K, "candidate_ops": WHATIF_CANDIDATE_OPS,
                     "violations": violations}
        elapsed = sum(times)
        return {
            "variant": variant,
            "suite": "whatif_latency",
            "size": size,
            "ops": len(times),
            "seconds": round(elapsed, 4),
            "ops_per_sec": round(len(times) / elapsed, 2),
            "p50_us": round(percentile(times, 50) * 1e6, 2),
            "p95_us": round(percentile(times, 95) * 1e6, 2),
            "p99_us": round(percentile(times, 99) * 1e6, 2),
            "rules": session.num_rules,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            **extra,
        }
    finally:
        session.close()


def run_whatif_benchmark(sizes, echo=print) -> dict:
    """The whatif_latency matrix, as the JSON-serializable document."""
    results: Dict[str, dict] = {}
    for size in sizes:
        for variant in WHATIF_VARIANTS:
            echo(f"  measuring whatif:{variant} @ {size} rules ...")
            entry = _measure_in_subprocess(variant, size,
                                           suite="whatif_latency")
            results[f"{variant}@{size}"] = entry
            unit = ("queries/s" if variant in ("goal", "sweep")
                    else "candidates/s")
            echo(f"    {entry['ops_per_sec']:,.2f} {unit}  "
                 f"p50={entry['p50_us']}us p99={entry['p99_us']}us "
                 f"rss={entry['peak_rss_kb']}KiB")
    document = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": "whatif-latency",
            "seed": WORKLOAD_SEED,
            "sizes": list(sizes),
            "k": WHATIF_K,
            "candidate_ops": WHATIF_CANDIDATE_OPS,
            "description": "single-link what-if queries with loop check "
                           "(goal = goal-directed planner, sweep = "
                           "whole-network loop check) and k-candidate "
                           "evaluation (spec = copy-on-write speculative "
                           "forks, clone = clone-then-apply) over the "
                           "synthetic prefix-pool data plane",
        },
        "calibration_score": round(calibration_score(), 1),
        "results": results,
    }
    for size in sizes:
        speedups = document.setdefault("speedups", {})
        for fast, slow in (("goal", "sweep"), ("spec", "clone")):
            lead = results.get(f"{fast}@{size}")
            trail = results.get(f"{slow}@{size}")
            if lead and trail:
                speedups[f"{fast}-vs-{slow}@{size}"] = round(
                    lead["ops_per_sec"] / trail["ops_per_sec"], 2)
    return document


def compare_whatif_to_baseline(current: dict, baseline_path: str,
                               tolerance: float, echo=print) -> List[str]:
    """Regressed keys of a whatif_latency run vs the baseline.

    Gates the ``goal`` and ``spec`` variants' calibration-normalized
    throughput and the two machine-independent acceptance ratios at the
    acceptance scale: goal-directed >= :data:`TARGET_GOAL_SPEEDUP` x the
    undirected sweep, and speculative forks >=
    :data:`TARGET_SPEC_SPEEDUP` x clone-then-apply.  The sweep and
    clone references are recorded for the ratios but not gated — they
    are the superseded recipes, not hot paths.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    factor = current["calibration_score"] / baseline["calibration_score"]
    echo(f"calibration: baseline={baseline['calibration_score']:,.0f} "
         f"current={current['calibration_score']:,.0f} "
         f"(machine factor {factor:.2f}x)")
    failures = []
    for key, entry in current["results"].items():
        if key.split("@")[0] not in ("goal", "spec"):
            continue
        reference = baseline["results"].get(key)
        if reference is None:
            echo(f"  {key}: no baseline entry, skipping")
            continue
        expected = reference["ops_per_sec"] * factor
        floor = expected * (1.0 - tolerance)
        status = "ok" if entry["ops_per_sec"] >= floor else "REGRESSION"
        echo(f"  {key}: {entry['ops_per_sec']:,.2f} evals/s "
             f"(baseline-normalized {expected:,.2f}, floor {floor:,.2f}) "
             f"{status}")
        if status != "ok":
            failures.append(key)
    for size in current["workload"]["sizes"]:
        for fast, slow, target in (
                ("goal", "sweep", TARGET_GOAL_SPEEDUP),
                ("spec", "clone", TARGET_SPEC_SPEEDUP)):
            lead = current["results"].get(f"{fast}@{size}")
            trail = current["results"].get(f"{slow}@{size}")
            if not (lead and trail):
                continue
            ratio = lead["ops_per_sec"] / trail["ops_per_sec"]
            if size < WHATIF_FLOOR_SIZE:
                echo(f"  {fast}-vs-{slow} speedup @ {size}: {ratio:.2f}x "
                     f"(recorded; floor gated at >= {WHATIF_FLOOR_SIZE} "
                     f"rules only)")
                continue
            status = "ok" if ratio >= target else "REGRESSION"
            echo(f"  {fast}-vs-{slow} speedup @ {size}: {ratio:.2f}x "
                 f"(target >= {target}x) {status}")
            if status != "ok":
                failures.append(f"{fast}-speedup@{size}")
    return failures


def check_regressions(baseline_path: str, sizes, tolerance: float,
                      suite: str = "update_latency", echo=print) -> int:
    """Re-measure the gated variants and compare against the baseline."""
    if suite == "warm_start":
        current = run_warm_benchmark(sizes, echo=echo)
        failures = compare_warm_to_baseline(current, baseline_path,
                                            tolerance, echo=echo)
    elif suite == "check_latency":
        current = run_check_benchmark(sizes, echo=echo)
        failures = compare_check_to_baseline(current, baseline_path,
                                             tolerance, echo=echo)
    elif suite == "scenario_latency":
        current = run_scenario_benchmark(sizes, echo=echo)
        failures = compare_scenario_to_baseline(current, baseline_path,
                                                tolerance, echo=echo)
    elif suite == "recovery_latency":
        current = run_recovery_benchmark(sizes, echo=echo)
        failures = compare_recovery_to_baseline(current, baseline_path,
                                                tolerance, echo=echo)
    elif suite == "audit_overhead":
        current = run_audit_benchmark(sizes, echo=echo)
        failures = compare_audit_to_baseline(current, baseline_path,
                                             tolerance, echo=echo)
    elif suite == "serve_throughput":
        current = run_serve_benchmark(sizes, echo=echo)
        failures = compare_serve_to_baseline(current, baseline_path,
                                             tolerance, echo=echo)
    elif suite == "whatif_latency":
        current = run_whatif_benchmark(sizes, echo=echo)
        failures = compare_whatif_to_baseline(current, baseline_path,
                                              tolerance, echo=echo)
    else:
        current = run_benchmark(sizes, variants=GATED_VARIANTS, echo=echo)
        failures = compare_to_baseline(current, baseline_path, tolerance,
                                       echo=echo)
    if failures:
        echo(f"PERF GATE FAILED: {', '.join(failures)}")
        return 1
    echo("perf gate passed")
    return 0


def _parse_sizes(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


#: Per-suite defaults: baseline path, run sizes, check sizes.  The
#: warm_start gate runs at 50k — the acceptance scale — because its
#: cold reference is measured anyway and the warm path is fast.
_SUITES = {
    "update_latency": (DEFAULT_BASELINE, [10000, 50000], [10000]),
    "check_latency": (CHECK_BASELINE, [10000, 50000], [10000]),
    "warm_start": (WARM_BASELINE, [10000, 50000], [50000]),
    # scenario sizes are scale percent; the PR gate re-checks 50%.
    "scenario_latency": (SCENARIO_BASELINE, [50, 100], [50]),
    "recovery_latency": (RECOVERY_BASELINE, [5000, 20000], [20000]),
    # the PR gate re-checks the digest tax at 10k; the committed
    # baseline demonstrates it at the 50k acceptance scale too.
    "audit_overhead": (AUDIT_BASELINE, [10000, 50000], [10000]),
    # serve sizes are total requests across all controllers; the PR
    # gate re-checks the 100-controller point, nightly runs both.
    "serve_throughput": (SERVE_BASELINE, [5000, 20000], [5000]),
    # the PR gate re-checks the query/speculation paths at 10k; the
    # committed baseline demonstrates the >= 3x goal-directed and
    # >= 5x speculative-fork floors at the 50k acceptance scale.
    "whatif_latency": (WHATIF_BASELINE, [10000, 50000], [10000]),
}


def _suite_default(value, args, index: int):
    return value if value is not None else _SUITES[args.suite][index]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    suites = tuple(_SUITES)

    run_cmd = sub.add_parser("run", help="measure and write the baseline")
    run_cmd.add_argument("--suite", choices=suites, default="update_latency")
    run_cmd.add_argument("--sizes", type=_parse_sizes, default=None)
    run_cmd.add_argument("-o", "--output", default=None,
                         help="baseline file (defaults to the suite's)")

    check_cmd = sub.add_parser("check", help="fail on perf regressions")
    check_cmd.add_argument("--suite", choices=suites,
                           default="update_latency")
    check_cmd.add_argument("--sizes", type=_parse_sizes, default=None)
    check_cmd.add_argument("--baseline", default=None,
                           help="baseline file (defaults to the suite's)")
    check_cmd.add_argument("--tolerance", type=float, default=0.30)

    measure_cmd = sub.add_parser(
        "measure", help="single measurement, JSON on stdout (internal)")
    measure_cmd.add_argument("--suite", choices=suites,
                             default="update_latency")
    measure_cmd.add_argument("--variant", required=True)
    measure_cmd.add_argument("--size", type=int, required=True)

    args = parser.parse_args(argv)
    if args.command == "measure":
        if args.suite == "warm_start":
            if args.variant not in WARM_VARIANTS:
                parser.error(f"--variant must be one of {WARM_VARIANTS} "
                             f"for the warm_start suite")
            entry = measure_warm_variant(args.variant, args.size)
        elif args.suite == "check_latency":
            if args.variant not in CHECK_VARIANTS:
                parser.error(f"--variant must be one of {CHECK_VARIANTS} "
                             f"for the check_latency suite")
            entry = measure_check_variant(args.variant, args.size)
        elif args.suite == "scenario_latency":
            if args.variant not in _scenario_variants():
                parser.error(f"--variant must be one of "
                             f"{_scenario_variants()} for the "
                             f"scenario_latency suite")
            entry = measure_scenario_variant(args.variant, args.size)
        elif args.suite == "recovery_latency":
            if args.variant not in RECOVERY_VARIANTS:
                parser.error(f"--variant must be one of "
                             f"{RECOVERY_VARIANTS} for the "
                             f"recovery_latency suite")
            entry = measure_recovery_variant(args.variant, args.size)
        elif args.suite == "audit_overhead":
            if args.variant not in AUDIT_VARIANTS:
                parser.error(f"--variant must be one of {AUDIT_VARIANTS} "
                             f"for the audit_overhead suite")
            entry = measure_audit_variant(args.variant, args.size)
        elif args.suite == "serve_throughput":
            if args.variant not in SERVE_VARIANTS:
                parser.error(f"--variant must be one of {SERVE_VARIANTS} "
                             f"for the serve_throughput suite")
            entry = measure_serve_variant(args.variant, args.size)
        elif args.suite == "whatif_latency":
            if args.variant not in WHATIF_VARIANTS:
                parser.error(f"--variant must be one of {WHATIF_VARIANTS} "
                             f"for the whatif_latency suite")
            entry = measure_whatif_variant(args.variant, args.size)
        else:
            if args.variant not in VARIANTS:
                parser.error(f"--variant must be one of "
                             f"{sorted(VARIANTS)} for the update_latency "
                             f"suite")
            entry = measure_variant(args.variant, args.size)
        json.dump(entry, sys.stdout)
        return 0
    if args.command == "run":
        output = _suite_default(args.output, args, 0)
        sizes = _suite_default(args.sizes, args, 1)
        if args.suite == "warm_start":
            document = run_warm_benchmark(sizes)
        elif args.suite == "check_latency":
            document = run_check_benchmark(sizes)
        elif args.suite == "scenario_latency":
            document = run_scenario_benchmark(sizes)
        elif args.suite == "recovery_latency":
            document = run_recovery_benchmark(sizes)
        elif args.suite == "audit_overhead":
            document = run_audit_benchmark(sizes)
        elif args.suite == "serve_throughput":
            document = run_serve_benchmark(sizes)
        elif args.suite == "whatif_latency":
            document = run_whatif_benchmark(sizes)
        else:
            document = run_benchmark(sizes)
        with open(output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
        for key, value in document.get("speedups", {}).items():
            print(f"  speedup {key}: {value}x")
        return 0
    baseline = _suite_default(args.baseline, args, 0)
    sizes = _suite_default(args.sizes, args, 2)
    return check_regressions(baseline, sizes, args.tolerance,
                             suite=args.suite)


if __name__ == "__main__":
    sys.exit(main())
