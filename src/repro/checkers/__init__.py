"""Network-wide invariant checkers on Delta-net's edge-labelled graph.

Every checker answers one atom at a time (§3.3) by reading the owner
structure Algorithms 1/2 maintain: :meth:`DeltaNet.next_hop
<repro.core.deltanet.DeltaNet.next_hop>` for one hop and
:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.atom_links>` for
an atom's links.  Loops run incrementally on the delta-graph of one rule
update; black holes, reachability, waypoints, isolation, the full loop
sweep and what-if queries run over the atoms in question — every live
atom, a slice's atoms, or a failed link's.  Only Algorithm 3's all-pairs
closure (:mod:`repro.checkers.allpairs`) works on label bitmasks, and the
label-derived implementations in :mod:`repro.checkers.sweep` are the
equivalence oracle that keeps the owner reads honest.
"""

from repro.checkers.loops import LoopChecker, find_forwarding_loops, Loop
from repro.checkers.reachability import reachable_atoms, reachable_nodes, find_path
from repro.checkers.allpairs import all_pairs_reachability, all_pairs_reference
from repro.checkers.blackholes import find_blackholes
from repro.checkers.waypoint import check_waypoint
from repro.checkers.isolation import check_isolation
from repro.checkers.whatif import link_failure_impact, LinkFailureImpact

__all__ = [
    "LoopChecker", "find_forwarding_loops", "Loop",
    "reachable_atoms", "reachable_nodes", "find_path",
    "all_pairs_reachability", "all_pairs_reference",
    "find_blackholes", "check_waypoint", "check_isolation",
    "link_failure_impact", "LinkFailureImpact",
]
