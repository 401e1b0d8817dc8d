#!/usr/bin/env python3
"""Extensions beyond the paper's core: NAT rewriting and port matching.

Demonstrates the two extension mechanisms the paper sketches:

* §4.1 — composite matches: rules that also match the switch *input
  port*, encoded as separate graph nodes (one per ``(switch, port)``),
* §6 (future work) — stateless packet modification: a NAT boundary that
  rewrites a private destination prefix onto a public one, with
  reachability answered in the sender's original address space.

The NAT demo drives its Delta-net through the unified
:class:`repro.VerificationSession`; the rewrite analysis itself needs
the native atom structures (``session.native``), and the multi-field
graph is a separate structure outside the single-field backend protocol.

Run:  python examples/nat_and_multifield.py
"""

from repro import Reachable, VerificationSession
from repro.core.multifield import FieldSchema, MultiFieldDeltaNet
from repro.core.prefix import prefix_to_interval
from repro.core.rewrite import (
    PrefixRewrite, RewriteTable, reachable_intervals_with_rewrites,
)
from repro.core.rules import Rule


def port_matching_demo() -> None:
    print("=" * 72)
    print("Composite matches: (in_port, dst prefix) rules  (paper §4.1)")
    print("=" * 72)
    schema = FieldSchema(["in_port"], domains=[(1, 2, 3)])
    mf = MultiFieldDeltaNet(schema, width=32)

    lo, hi = prefix_to_interval("10.0.0.0/8")
    # Port-agnostic baseline route...
    mf.insert_rule(0, lo, hi, priority=8, switch="edge", fields=[None],
                   target="core")
    # ...but traffic arriving on port 3 (the scrubbing appliance uplink)
    # is steered to a monitor instead.
    mf.insert_rule(1, lo, hi, priority=100, switch="edge", fields=[3],
                   target="monitor")

    for port in (1, 2, 3):
        flows = mf.flows_on("edge", (port,), "core")
        steered = mf.flows_on("edge", (port,), "monitor")
        print(f"  port {port}: to core {flows or '—'}, "
              f"to monitor {steered or '—'}")
    print(f"  graph encodes {mf.num_nodes} nodes for 3 switches "
          f"(one per (switch, port)) and {mf.num_atoms} atoms\n")


def nat_demo() -> None:
    print("=" * 72)
    print("NAT-style prefix rewriting on a link  (paper §6, future work)")
    print("=" * 72)
    session = VerificationSession("deltanet")
    private_lo, private_hi = prefix_to_interval("192.168.0.0/16")
    public_lo, public_hi = prefix_to_interval("203.0.113.0/24")

    # Inside: the gateway forwards private-destined traffic to the NAT.
    # The NAT's egress link translates 192.168.0.0/24 -> 203.0.113.0/24.
    # Outside: the WAN router only carries public space.
    nat_match_lo, nat_match_hi = prefix_to_interval("192.168.0.0/24")
    rewrites = RewriteTable()
    rewrites.add(("nat", "wan"), PrefixRewrite(nat_match_lo, nat_match_hi,
                                               public_lo))
    with session.batch():
        session.insert(Rule.forward(0, private_lo, private_hi, 10,
                                    "lan", "nat"))
        session.insert(Rule.forward(1, private_lo, private_hi, 10,
                                    "nat", "wan"))
        session.insert(Rule.forward(2, public_lo, public_hi, 10,
                                    "wan", "internet"))

    # Without the rewrite, the uniform query sees the private space die
    # at the WAN router; the rewrite-aware analysis runs on the native
    # Delta-net underneath the session.
    print(f"  plain reachability lan->internet (no rewrite semantics): "
          f"{session.query(Reachable('lan', 'internet')).spans or 'nothing'}")
    reach = reachable_intervals_with_rewrites(session.native, rewrites,
                                              "lan", "internet")
    print("  packets the LAN can address to reach the internet "
          "(original coordinates):")
    for lo, hi in reach.spans:
        print(f"    [{lo}:{hi})  (= 192.168.0.0/24 pre-NAT)")
    without = reachable_intervals_with_rewrites(session.native, RewriteTable(),
                                                "lan", "internet")
    print(f"  without the NAT rewrite: {without.spans or 'nothing'} — the "
          f"WAN router never matches private space")


if __name__ == "__main__":
    port_matching_demo()
    nat_demo()
