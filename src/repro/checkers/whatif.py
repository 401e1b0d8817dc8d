"""The "what if" link-failure query (paper §4.3.2, Table 4).

*What is the fate of packets that are using a link that fails?*  The
verification task is to represent, via one or multiple graphs, all flows
through the network that would be affected by the failure.

With Delta-net this is almost free: the affected packets are exactly
``label[failed_link]`` (a constant-time lookup), and the affected flow
graph is the part of the edge-labelled graph those atoms use.  An atom
flows on exactly one out-link per source that owns it, so that part is
read off ``owner[atom]`` for the affected atoms alone
(:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.atom_links>`):
O(Σ |owner[a]|) over the affected atoms — the size of the answer —
however many links the network labels.  Veriflow, by contrast, must
recompute equivalence classes and construct a forwarding graph *per EC*
(see :meth:`repro.veriflow.verifier.VeriflowRI.whatif_link_failure`),
which is where the orders-of-magnitude gap of Table 4 comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple, Union

from repro.checkers.loops import Loop, find_forwarding_loops
from repro.core.deltanet import DeltaNet
from repro.core.rules import Link


@dataclass
class LinkFailureImpact:
    """Result of a what-if query on one link."""

    failed_link: Link
    #: Packet classes that were using the failed link.
    affected_atoms: Set[int] = field(default_factory=set)
    #: Restriction of the edge-labelled graph to the affected atoms:
    #: every link that carries at least one affected atom, with the
    #: affected atoms it carries.
    affected_subgraph: Dict[Link, Set[int]] = field(default_factory=dict)
    #: Forwarding loops the affected atoms run into (optional check),
    #: ordered by atom, then cycle.
    loops: List[Loop] = field(default_factory=list)

    @property
    def num_affected_flows(self) -> int:
        return len(self.affected_atoms)

    def affected_intervals(self, deltanet: DeltaNet) -> List[Tuple[int, int]]:
        """The affected packet space as canonical header intervals."""
        from repro.core.atomset import atoms_to_interval_set

        return atoms_to_interval_set(self.affected_atoms, deltanet.atoms)


def link_failure_impact(deltanet: DeltaNet,
                        link: Union[Link, Tuple[object, object]],
                        check_loops: bool = False) -> LinkFailureImpact:
    """Answer the what-if query for failing ``link`` (Delta-net side).

    Each affected atom adds itself to the link every owning source sends
    it on.  With ``check_loops=True`` the affected atoms are additionally
    chased for forwarding loops from those same sources, mirroring
    Table 4's "+Loops" column.
    """
    if not isinstance(link, Link):
        link = Link(*link)
    impact = LinkFailureImpact(failed_link=link)
    affected = deltanet.label.get(link)
    if not affected:
        return impact
    impact.affected_atoms = set(affected)
    subgraph = impact.affected_subgraph
    atom_links = deltanet.atom_links
    for atom in affected:
        for carrier in atom_links(atom):
            bucket = subgraph.get(carrier)
            if bucket is None:
                bucket = subgraph[carrier] = set()
            bucket.add(atom)
    if check_loops:
        impact.loops = find_forwarding_loops(deltanet, atoms=affected)
    return impact


def sweep_all_links(deltanet: DeltaNet, check_loops: bool = False) -> Dict[Link, LinkFailureImpact]:
    """Run the what-if query for every labelled link (Table 4 workload)."""
    return {link: link_failure_impact(deltanet, link, check_loops=check_loops)
            for link in list(deltanet.label)}
