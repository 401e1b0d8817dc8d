"""Black-hole detection: traffic that arrives at a node and silently dies.

An atom is *black-holed* at node ``n`` when some link delivers it to ``n``
but no rule at ``n`` forwards (or explicitly drops) it.  Explicit drop
rules are not black holes — they are intended policy and appear in the
graph as edges to the :data:`~repro.core.rules.DROP` sink.

One pass over the live atoms, reading ``owner[atom]`` (§3.3, one atom at
a time): each owning source's link
(:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.atom_links>`)
delivers the atom to its target, and the atom is lost there when
:meth:`DeltaNet.next_hop <repro.core.deltanet.DeltaNet.next_hop>` finds
no owner at that target.  The cost is O(live atoms · owners · log M);
the label table is never read.

Expected traffic sinks (e.g. egress border switches in the SDN-IP
scenario, or hosts) can be excluded via ``expected_sinks``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.core.deltanet import DeltaNet
from repro.core.rules import DROP


def find_blackholes(deltanet: DeltaNet,
                    expected_sinks: Iterable[object] = ()) -> Dict[object, Set[int]]:
    """Map each black-holing node to the set of atoms it swallows."""
    sinks = set(expected_sinks)
    atom_links = deltanet.atom_links
    next_hop = deltanet.next_hop
    holes: Dict[object, Set[int]] = {}
    for atom, _interval in deltanet.atoms.intervals():
        for link in atom_links(atom):
            target = link.target
            if target == DROP or target in sinks:
                continue
            if next_hop(target, atom) is None:
                holes.setdefault(target, set()).add(atom)
    return holes
