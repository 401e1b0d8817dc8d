"""Traffic-isolation invariant between network slices (paper §3.3).

Two slices — e.g. two tenants, each owning a set of IP prefixes — are
isolated when no link carries traffic of both.  Only the atoms that
overlap a slice can put it on a link, so each slice's atoms are read
one at a time through
:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.atom_links>`
(``owner[atom]``'s top rule per source): O(slice atoms · owners · log M),
whatever the size of the label table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.core.deltanet import DeltaNet
from repro.core.rules import Link


def _slice_links(deltanet: DeltaNet, prefixes: Iterable[Tuple[int, int]]
                 ) -> Dict[Link, Set[int]]:
    """``link -> the slice's atoms it carries``, for the atoms
    overlapping any of the slice's ``(lo, hi)`` intervals."""
    carried: Dict[Link, Set[int]] = {}
    for lo, hi in prefixes:
        for atom in deltanet.atoms_overlapping(lo, hi):
            for link in deltanet.atom_links(atom):
                carried.setdefault(link, set()).add(atom)
    return carried


def check_isolation(deltanet: DeltaNet,
                    slice_a: Iterable[Tuple[int, int]],
                    slice_b: Iterable[Tuple[int, int]]) -> Dict[Link, Set[int]]:
    """Links carrying traffic of both slices, with the offending atoms.

    Slices are given as iterables of ``(lo, hi)`` header-space intervals.
    An empty result means the slices are isolated.  Note: an atom that
    overlaps both slices (possible when a rule interval straddles both)
    is reported wherever it flows — atoms are refined by *rule* bounds,
    so if the slices themselves are rule prefixes this cannot happen.
    """
    carried_a = _slice_links(deltanet, slice_a)
    carried_b = _slice_links(deltanet, slice_b)
    return {link: atoms | carried_b[link]
            for link, atoms in carried_a.items() if link in carried_b}
