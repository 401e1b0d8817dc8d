#!/usr/bin/env python3
"""Quickstart: verify a tiny data plane in real time.

Builds the forwarding table of the paper's Table 1 (a high-priority drop
rule shadowing part of a low-priority forward rule), inserts a few more
rules, and runs the per-update checks every SDN controller would want:
forwarding loops, black holes, and reachability — all through the
unified :class:`repro.VerificationSession` API, so swapping the paper's
verifier for any baseline is a one-word change.

Run:  python examples/quickstart.py            (Delta-net)
      BACKEND=veriflow python examples/quickstart.py
"""

import os

from repro import (
    BlackholeProperty, FlowsOn, LoopProperty, Reachable,
    ReachabilityProperty, VerificationSession,
)
from repro.core.rules import Action


def main() -> None:
    backend = os.environ.get("BACKEND", "deltanet")
    session = VerificationSession(backend)     # IPv4: 32-bit dst addresses
    session.watch(LoopProperty())

    # -- Table 1: two rules on switch s1 ------------------------------------
    # High priority: drop 0.0.0.10/31.  Low priority: forward 0.0.0.0/28.
    r_high = session.make_rule(0, "0.0.0.10/31", priority=20, source="s1",
                               action=Action.DROP)
    r_low = session.make_rule(1, "0.0.0.0/28", priority=10, source="s1",
                              target="s2")
    for rule in (r_high, r_low):
        result = session.insert(rule)
        print(f"inserted {rule}: {len(result.violations)} violations "
              f"({result.latency * 1e6:.0f}us)")

    stats = session.stats()
    if "atoms" in stats:
        print(f"\natoms: {stats['atoms']} "
              f"(the paper's Figure 5 segmentation plus the tail atom)")
    print("flows on s1->s2:", session.query(FlowsOn(("s1", "s2"))).spans)
    print("dropped at s1:  ", session.query(FlowsOn(("s1", "__drop__"))).spans)

    # -- grow the network ----------------------------------------------------
    session.insert(session.make_rule(2, "0.0.0.0/28", 10, "s2", "s3"))
    result = session.insert(session.make_rule(3, "0.0.0.0/30", 30, "s3", "s1"))
    print(f"\nafter closing s3->s1 for 0.0.0.0/30: "
          f"{len(result.violations)} violation(s)")
    for violation in result.violations:
        print(f"  {violation}")
        cycling = session.query(FlowsOn(("s3", "s1"))).spans
        print(f"    (cycling packet space: {cycling})")

    # -- reachability and black holes ---------------------------------------
    spans = session.query(Reachable("s1", "s3")).spans
    print(f"\npackets reaching s3 from s1: {spans}")
    holes = session.check(BlackholeProperty(expected_sinks=["s3"]))
    print(f"black holes: {[str(v) for v in holes] or 'none'}")
    unreached = session.check(ReachabilityProperty("s1", "s3"))
    print(f"reachability s1->s3: {'violated' if unreached else 'holds'}")


if __name__ == "__main__":
    main()
