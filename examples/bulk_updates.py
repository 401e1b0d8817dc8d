#!/usr/bin/env python3
"""Bulk rule pushes: batched updates and the parallel-sharded engine.

An SDN controller rarely gets one rule at a time — link failures and BGP
convergence push thousands of updates at once.  This example applies the
same update stream three ways through the one
:class:`repro.api.VerificationSession` surface:

1. the classic per-op path (one incremental check per rule),
2. ``session.apply_batch`` on the ``deltanet`` backend (one aggregated
   delta-graph, one check per batch),
3. the ``parallel`` backend — one worker process per header-space shard,
   Libra's map/reduce with real OS processes.

All three must agree on the final loop verdict; the throughput spread is
the point.

Run:  PYTHONPATH=src python examples/bulk_updates.py
"""

import random
import time

from repro.api import LoopProperty, Loops, VerificationSession
from repro.core.rules import Rule


def build_rules(count=4000, switches=24, prefixes=400, seed=42):
    """A synthetic convergence burst over a shared prefix pool."""
    rng = random.Random(seed)
    pool = []
    for _ in range(prefixes):
        plen = rng.randint(10, 22)
        span = 1 << (32 - plen)
        lo = rng.randrange(1 << 32) & ~(span - 1)
        pool.append((lo, lo + span))
    rules = []
    for rid in range(count):
        lo, hi = pool[rng.randrange(prefixes)]
        source = rng.randrange(switches)
        target = (source + rng.randrange(1, switches)) % switches
        rules.append(Rule.forward(rid, lo, hi, rid, f"s{source}",
                                  f"s{target}"))
    # a deliberate three-switch cycle so every engine has a loop to find
    wide = (0, 1 << 32)
    for offset, (src, dst) in enumerate((("s0", "s1"), ("s1", "s2"),
                                         ("s2", "s0"))):
        rules.append(Rule.forward(count + offset, wide[0], wide[1],
                                  10**9 + offset, src, dst))
    return rules


def run_per_op(rules):
    session = VerificationSession("deltanet", properties=(LoopProperty(),))
    start = time.perf_counter()
    for rule in rules:
        session.insert(rule)
    return session, time.perf_counter() - start


def run_batched(rules, backend="deltanet", batch_size=1000, **options):
    session = VerificationSession(backend, properties=(LoopProperty(),),
                                  **options)
    start = time.perf_counter()
    for index in range(0, len(rules), batch_size):
        session.apply_batch(rules[index:index + batch_size])
    return session, time.perf_counter() - start


def main():
    rules = build_rules()
    print(f"pushing {len(rules)} rules through three engines\n")

    per_op, seconds = run_per_op(rules)
    base_rate = len(rules) / seconds
    print(f"deltanet, per-op     : {base_rate:>9,.0f} ops/s   "
          f"loops found: {len(per_op.violations())}")

    batched, seconds = run_batched(rules)
    rate = len(rules) / seconds
    print(f"deltanet, batched    : {rate:>9,.0f} ops/s   "
          f"loops found: {len(batched.violations())}   "
          f"({rate / base_rate:.1f}x)")

    with VerificationSession("parallel", shards=4,
                             properties=(LoopProperty(),)) as parallel:
        start = time.perf_counter()
        for index in range(0, len(rules), 1000):
            parallel.apply_batch(rules[index:index + 1000])
        seconds = time.perf_counter() - start
        rate = len(rules) / seconds
        mode = ("worker processes" if parallel.stats()["parallel"]
                else "inline fallback")
        print(f"parallel, batched    : {rate:>9,.0f} ops/s   "
              f"loops found: {len(parallel.violations())}   ({mode})")

        verdicts = {
            "per-op": sorted(map(repr, per_op.query(Loops()).violations)),
            "batched": sorted(map(repr, batched.query(Loops()).violations)),
            "parallel": sorted(map(repr, parallel.query(Loops()).violations)),
        }
    assert verdicts["per-op"] == verdicts["batched"] == verdicts["parallel"]
    print(f"\nall engines agree: {len(verdicts['per-op'])} forwarding "
          f"loop(s) in the final data plane")
    print("  " + verdicts["per-op"][0])


if __name__ == "__main__":
    main()
