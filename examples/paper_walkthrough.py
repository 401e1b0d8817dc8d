#!/usr/bin/env python3
"""The paper's running example, end to end (Figures 1, 2, 4 and Table 1).

Reproduces, with printed state at each step:

  1. the four-switch network with rules r1, r2, r3 and the atom
     segmentation of their overlapping prefixes (Figure 2, top),
  2. the insertion of higher-priority rule r4 at s1: the atom split, the
     label transfer from edge s1->s2 to s1->s4 (Figure 2, bottom), and
     the fact that only s1's rules are touched (Figure 4b),
  3. the Table 1 / §3.2.1 atom-splitting walkthrough (rH, rL, then rM,
     with CREATE_ATOMS+ returning the delta pair alpha0 -> alpha4).

Updates flow through :class:`repro.VerificationSession` (whose
``UpdateResult.delta`` is exactly the paper's delta-graph); the atom
table internals the figures visualize are reached through
``session.native``, the documented escape hatch for Delta-net-specific
introspection.

Run:  python examples/paper_walkthrough.py
"""

from repro import FlowsOn, VerificationSession
from repro.core.rules import Rule


def show_labels(session: VerificationSession, title: str) -> None:
    net = session.native
    print(f"\n{title}")
    for link in sorted(session.links(), key=repr):
        atoms = net.label_of(link)
        if not atoms:
            continue
        spans = session.query(FlowsOn(link)).spans
        names = ", ".join(f"a{a}" for a in sorted(atoms))
        print(f"  {link}: {{{names}}}  = {spans}")


def figure_2_and_4() -> None:
    print("=" * 72)
    print("Figures 1/2/4 — transforming a single edge-labelled graph")
    print("=" * 72)
    session = VerificationSession("deltanet", width=8)
    # Overlapping prefixes drawn as the parallel lines of Figure 1.
    session.insert(Rule.forward(1, 10, 60, 1, "s1", "s2"))  # r1
    session.insert(Rule.forward(2, 20, 70, 1, "s2", "s3"))  # r2
    session.insert(Rule.forward(3, 30, 50, 1, "s3", "s4"))  # r3
    show_labels(session, "before r4 (Figure 2, top): rules r1, r2, r3")

    result = session.insert(Rule.forward(4, 15, 60, 9, "s1", "s4"))  # r4
    delta = result.delta
    show_labels(session, "after inserting high-priority r4 at s1 "
                         "(Figure 2, bottom)")
    print("\ndelta-graph of the update (only s1's edges change — Fig. 4b):")
    for link, atom, sign in sorted(delta.changes(), key=repr):
        print(f"  {'+' if sign > 0 else '-'} {link}: a{atom}")
    print(f"affected switches: {sorted(map(str, delta.affected_sources()))} "
          f"(Veriflow would traverse rules on every switch, Fig. 4a)")


def table_1_walkthrough() -> None:
    print("\n" + "=" * 72)
    print("Table 1 / §3.2.1 — atoms and CREATE_ATOMS+")
    print("=" * 72)
    session = VerificationSession("deltanet")  # 32-bit space, as in the paper
    net = session.native
    r_h = session.make_rule(0, "0.0.0.10/31", 30, "s", "hop_h")   # [10:12)
    r_l = session.make_rule(1, "0.0.0.0/28", 10, "s", "hop_l")    # [0:16)
    session.insert(r_h)
    session.insert(r_l)
    print("\nafter rH and rL, M's boundaries:", net.atoms.boundaries()[:-1],
          "(plus MAX)")
    print("atoms:", [(f"a{a}", span) for a, span in net.atoms.intervals()][:4])

    # rM = 0.0.0.8/30 = [8:12): priority between rL and rH.
    r_m = session.make_rule(2, "0.0.0.8/30", 20, "s", "hop_m")
    splits = net.atoms.peek_splits(r_m.lo, r_m.hi)
    print(f"\nCREATE_ATOMS+(rM) will split: "
          f"{[(f'a{atom}', span) for atom, span in splits]} "
          f"(the paper's alpha0 -> alpha4 split)")
    session.insert(r_m)
    show_labels(session, "labels after inserting rM")
    print("\nrH keeps [10:12); rM owns [8:10); rL keeps [0:8) and [12:16).")


if __name__ == "__main__":
    figure_2_and_4()
    table_1_walkthrough()
