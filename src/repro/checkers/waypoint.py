"""Waypoint (service-chaining) invariant: flows must traverse a middlebox.

``check_waypoint(dn, src, dst, waypoint)`` returns the atoms that reach
``dst`` from ``src`` *without* passing through ``waypoint`` — i.e. the
violations of "all src->dst traffic goes through the firewall".  It is
:func:`~repro.checkers.reachability.reachable_atoms`' per-atom walk with
the walk cut at the waypoint: an atom violates when its ``next_hop``
path from ``src`` meets ``dst`` before ``waypoint`` — O(live atoms ·
path · log M), reading ``owner[atom]`` only.
"""

from __future__ import annotations

from typing import Set

from repro.checkers.reachability import _walk
from repro.core.deltanet import DeltaNet


def check_waypoint(deltanet: DeltaNet, src: object, dst: object,
                   waypoint: object) -> Set[int]:
    """Atoms reaching ``dst`` from ``src`` while bypassing ``waypoint``."""
    if waypoint in (src, dst):
        raise ValueError("waypoint must differ from the endpoints")
    leaked: Set[int] = set()
    for atom, _interval in deltanet.atoms.intervals():
        for node in _walk(deltanet, src, atom):
            if node == dst:
                leaked.add(atom)
                break
            if node == waypoint:
                break
    return leaked
