#!/usr/bin/env python3
"""Bulk rule pushes: per-op against batched updates.

An SDN controller rarely gets one rule at a time — link failures and BGP
convergence push thousands of updates at once.  This example applies the
same update stream two ways through the one
:class:`repro.api.VerificationSession` surface:

1. the classic per-op path (one incremental check per rule),
2. ``session.apply_batch`` on the ``deltanet`` backend (one aggregated
   delta-graph, one check per batch).

Both must agree on the final loop verdict; the throughput spread is the
point.

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
    # a deliberate three-switch cycle so both paths have a loop to find
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


def run_batched(rules, batch_size=1000):
    session = VerificationSession("deltanet", properties=(LoopProperty(),))
    start = time.perf_counter()
    for index in range(0, len(rules), batch_size):
        session.apply_batch(rules[index:index + batch_size])
    return session, time.perf_counter() - start


def main():
    rules = build_rules()
    print(f"pushing {len(rules)} rules through two paths\n")

    per_op, seconds = run_per_op(rules)
    base_rate = len(rules) / seconds
    print(f"deltanet, per-op     : {base_rate:>9,.0f} ops/s   "
          f"loops found: {len(per_op.violations())}")

    batched, seconds = run_batched(rules)
    rate = len(rules) / seconds
    print(f"deltanet, batched    : {rate:>9,.0f} ops/s   "
          f"loops found: {len(batched.violations())}   "
          f"({rate / base_rate:.1f}x)")

    verdicts = {
        "per-op": sorted(map(repr, per_op.query(Loops()).violations)),
        "batched": sorted(map(repr, batched.query(Loops()).violations)),
    }
    assert verdicts["per-op"] == verdicts["batched"]
    print(f"\nboth paths agree: {len(verdicts['per-op'])} forwarding "
          f"loop(s) in the final data plane")
    print("  " + verdicts["per-op"][0])


if __name__ == "__main__":
    main()
