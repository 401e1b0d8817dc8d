"""Core data structures built from scratch for the Delta-net reproduction.

The paper's complexity analysis (Theorem 1) assumes two balanced
binary-search-tree structures.  One ordered-map structure lives here:

* per ``(atom, source)`` priority-ordered rule containers that support
  arbitrary removal and O(1) logical copy on atom splits
  (:mod:`repro.structures.ptreap`, a persistent treap).  Persistence is
  its point — an atom split and a speculative fork share whole trees —
  which a sorted array cannot give.

The other, the ordered map ``M`` from interval boundaries to atom
identifiers, needs only floor, successor and in-order range queries and
no sharing, so it is blocked sorted lists searched with ``bisect``,
private to :mod:`repro.core.atoms`.

On top of those, edge labels are stored run-length compressed
(:class:`~repro.structures.atomruns.AtomRuns`): sorted runs of
contiguous atom ids with O(log runs) membership and O(runs) bulk
algebra, the representation behind the forwarding index's memory model.

Neither ``sortedcontainers`` nor any other third-party structure is used;
everything here depends only on the standard library.
"""

from repro.structures.atomruns import AtomRuns
from repro.structures.ptreap import PTreap

__all__ = ["AtomRuns", "PTreap"]
