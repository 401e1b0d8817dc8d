"""The forwarding index: the edge labels and their digest, kept together.

:class:`ForwardingIndex` owns the edge labels (``by_link``: one
:class:`~repro.structures.atomruns.AtomRuns` per link, absent when
empty) and the incremental ``(link, atom)`` membership digest.  Both are
written only by :meth:`~ForwardingIndex.add` /
:meth:`~ForwardingIndex.discard`, which
:class:`~repro.core.deltanet.DeltaNet` calls from every label change —
single-op and batched alike.

The index answers "which atoms does this link carry" — flows on a link,
a what-if's failed label, a reported cycle's liveness.  Every question
about where atoms *go* (loops, black holes, reachability, waypoints,
isolation) reads the owner structure instead, one atom at a time
(:meth:`DeltaNet.next_hop <repro.core.deltanet.DeltaNet.next_hop>`,
:meth:`DeltaNet.atom_links <repro.core.deltanet.DeltaNet.atom_links>`),
so the labels keep no second arrangement for them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.rules import Link
from repro.integrity.digest import LabelDigest, digests_enabled
from repro.structures.atomruns import AtomRuns


class ForwardingIndex:
    """Edge labels plus their membership digest, maintained together."""

    __slots__ = ("by_link", "digest")

    def __init__(self) -> None:
        #: ``link -> AtomRuns`` — THE label table (links with empty
        #: labels are absent, as in the seed's label dict).
        self.by_link: Dict[Link, AtomRuns] = {}
        #: Incremental ``(link, atom)`` membership digest, maintained by
        #: every writer below in O(changed entries); ``None`` when
        #: ``DELTANET_DIGESTS=0`` (the digest-free perf baseline).
        self.digest = LabelDigest() if digests_enabled() else None

    # -- label mutation (the only writers) -------------------------------------

    def add(self, link: Link, atom: int) -> None:
        """``atom`` starts flowing along ``link``."""
        runs = self.by_link.get(link)
        if runs is None:
            runs = self.by_link[link] = AtomRuns()
        if runs.add(atom) and self.digest is not None:
            self.digest.add(link, atom)

    def discard(self, link: Link, atom: int) -> None:
        """``atom`` stops flowing along ``link``; drops emptied entries."""
        runs = self.by_link.get(link)
        if runs is None:
            return
        if runs.discard(atom) and self.digest is not None:
            self.digest.remove(link, atom)
        if not runs:
            del self.by_link[link]

    def apply_delta(self, delta_graph) -> None:
        """Replay a :class:`~repro.core.delta_graph.DeltaGraph` into the
        index — for indexes maintained *outside* a DeltaNet (mirrors,
        tests).  DeltaNet itself publishes per label change instead.

        Splits replay first (a split's new atom inherits every label of
        the old atom; that is not a flow change, so the delta records it
        only in ``splits``), then removed/added flows, then GC'd atoms
        are erased everywhere.  Exact for single-op and
        ``apply_batch`` deltas, whose records are at final atom
        granularity; a hand-``merge``-d multi-op aggregate may interleave
        splits and GC in ways a linear replay cannot reconstruct.
        """
        digest = self.digest
        for old_atom, new_atom in delta_graph.splits:
            for link, runs in self.by_link.items():
                if old_atom in runs and runs.add(new_atom) and \
                        digest is not None:
                    digest.add(link, new_atom)
        for link, atoms in delta_graph.removed.items():
            for atom in atoms:
                self.discard(link, atom)
        for link, atoms in delta_graph.added.items():
            for atom in atoms:
                self.add(link, atom)
        for dead_atom in delta_graph.collected:
            for link in list(self.by_link):
                self.discard(link, dead_atom)

    def set_label(self, link: Link, runs: AtomRuns) -> None:
        """Install a whole label bucket at once (snapshot restore).

        Empty buckets are rejected — emptiness is represented by absence.
        """
        if not runs:
            raise ValueError(f"refusing to install empty label for {link}")
        if self.digest is not None:
            old = self.by_link.get(link)
            if old is not None:
                for start, end in old.runs():
                    for atom in range(start, end):
                        self.digest.remove(link, atom)
            self.digest.add_runs(link, runs.runs())
        self.by_link[link] = runs

    # -- bulk construction / diagnostics ---------------------------------------

    @classmethod
    def from_labels(cls, labels: Iterable[Tuple[Link, Iterable[int]]]
                    ) -> "ForwardingIndex":
        """Build an index from ``(link, atoms)`` pairs (tests, mirrors)."""
        index = cls()
        for link, atoms in labels:
            for atom in atoms:
                index.add(link, atom)
        return index

    def recompute_digest(self) -> LabelDigest:
        """A from-scratch :class:`LabelDigest` of the current labels.

        The scrubber's reference value: iterates every ``(link, atom)``
        membership entry into a fresh accumulator, independent of the
        incrementally maintained :attr:`digest`.
        """
        fresh = LabelDigest()
        for link, runs in self.by_link.items():
            fresh.add_runs(link, runs.runs())
        return fresh

    def label_stats(self) -> Dict[str, int]:
        """Size counters for the memory table: links, atoms, runs."""
        links = len(self.by_link)
        atom_entries = sum(len(runs) for runs in self.by_link.values())
        runs = sum(runs.num_runs for runs in self.by_link.values())
        return {"links": links, "label_atoms": atom_entries,
                "label_runs": runs}

    def check_consistency(self) -> None:
        """Assert emptiness is represented by absence (tests/debugging)."""
        for link, runs in self.by_link.items():
            assert runs, f"empty label bucket for {link} was not dropped"

    def __repr__(self) -> str:
        stats = self.label_stats()
        return (f"ForwardingIndex(links={stats['links']}, "
                f"atoms={stats['label_atoms']}, runs={stats['label_runs']})")
