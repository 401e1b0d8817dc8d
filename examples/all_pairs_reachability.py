#!/usr/bin/env python3
"""Pre-deployment analysis: Algorithm 3 and policy checks (paper §3.3).

Design goal 3: when real-time constraints are relaxed (pre-deployment
testing), Delta-net's lattice-theoretic representation supports broader
queries.  This example builds a fat-tree data plane through a
:class:`repro.VerificationSession` and runs:

  * Algorithm 3 — the atom-labelled Floyd–Warshall transitive closure
    answering *all-pairs* reachability for *all* packets at once (a
    Delta-net-specific analysis, reached through ``session.native``),
  * a waypoint policy check (must all cross-pod traffic pass the core?)
    via the backend-agnostic :class:`repro.WaypointProperty`,
  * a tenant-isolation check over two prefix slices via
    :class:`repro.IsolationProperty`.

Run:  python examples/all_pairs_reachability.py
"""

from repro import (
    IsolationProperty, Reachable, VerificationSession, WaypointProperty,
)
from repro.bgp.prefixes import PrefixPool
from repro.checkers.allpairs import (
    all_pairs_reachability, loops_from_closure, reachability_matrix,
)
from repro.routing.rulegen import ShortestPathRuleGenerator
from repro.topology.generators import fat_tree


def main() -> None:
    topology = fat_tree(4)
    pool = PrefixPool(seed=11)
    generator = ShortestPathRuleGenerator(topology, seed=11)
    session = VerificationSession("deltanet")

    # Route 40 prefixes to edge switches across the pods (one batch —
    # pre-deployment loading needs no per-rule checking).
    edges = sorted(n for n in topology.nodes if str(n).startswith("e"))
    prefixes = pool.sample(40)
    with session.batch():
        for index, prefix in enumerate(prefixes):
            destination = edges[index % len(edges)]
            for rule in generator.rules_for_prefix(
                    prefix, destination=destination, priority=prefix[1]):
                session.insert(rule)
    stats = session.stats()
    print(f"fat-tree(4): {topology.num_nodes} switches, "
          f"{stats['rules']} rules, {stats['atoms']} atoms")

    # -- Algorithm 3 (Delta-net-specific; session.native escape hatch) --------
    net = session.native
    closure = all_pairs_reachability(net)
    print(f"\nAlgorithm 3 closure: {len(closure)} reachable (src, dst) pairs")
    src, dst = "e0_0", "e3_1"
    atoms = reachability_matrix(closure, src, dst)
    spans = sorted(net.atoms.atom_interval(a) for a in atoms)[:3]
    print(f"  {src} -> {dst}: {len(atoms)} packet classes; "
          f"first intervals {spans}")
    print(f"  forwarding loops on the diagonal: "
          f"{len(loops_from_closure(closure))}")
    print(f"  (uniform query agrees: session.reachable gives "
          f"{len(session.query(Reachable(src, dst)).spans)} interval(s))")

    # -- waypoint policy --------------------------------------------------------
    bypassing = session.check(WaypointProperty("e0_0", "e1_0", "a0_0"))
    print(f"\nwaypoint check (e0_0 -> e1_0 must pass a0_0): "
          f"{'violated' if bypassing else 'holds'}")
    for violation in bypassing:
        print(f"  {violation}")

    # -- tenant isolation --------------------------------------------------------
    slice_a = [PrefixPool.to_interval(p) for p in prefixes[:5]]
    slice_b = [PrefixPool.to_interval(p) for p in prefixes[5:10]]
    offenders = session.check(IsolationProperty(slice_a, slice_b))
    print(f"isolation check (tenant A: 5 prefixes, tenant B: 5 prefixes): "
          f"{len(offenders)} links carry both tenants")
    for violation in offenders[:3]:
        print(f"  shared: {violation.signature[1]}")
    print("\n(shared core links are expected in a fat-tree unless slices "
          "are pinned to disjoint paths)")


if __name__ == "__main__":
    main()
