"""The persistent forwarding index: the labels, arranged for the checkers.

Delta-net's update path is incremental by construction (Algorithms 1/2
touch only the modified atoms), but the seed's *check* path was not: on
every update the loop checker rebuilt a ``source -> out-links`` map from
the whole label table — O(E) per check.

:class:`ForwardingIndex` removes that rebuild.  It owns the edge labels
(``by_link``: one :class:`~repro.structures.atomruns.AtomRuns` per link)
and, sharing those exact AtomRuns objects, a per-source view
(``by_source``: ``node -> {link: AtomRuns}``).  Both views are mutated
together by :meth:`add` / :meth:`discard`, which is what
:class:`~repro.core.deltanet.DeltaNet` calls from every label change —
single-op and batched alike.  The set-at-a-time checkers (reachability
masks, black holes, link-failure impact) read a node's out-links in one
dict lookup and never touch the full edge set again.

The index answers "which atoms does this link carry", not "where does
this atom go next": following ONE atom hop by hop is
:meth:`DeltaNet.next_hop <repro.core.deltanet.DeltaNet.next_hop>`, a
direct read of the owner structure, because finding the hop here would
mean searching every out-link of the node for the atom.

Because the per-source view stores *references* to the label AtomRuns,
the index costs O(nodes + links) extra words on top of the labels — it
is a second key arrangement, not a second copy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.rules import Link
from repro.integrity.digest import LabelDigest, digests_enabled
from repro.structures.atomruns import AtomRuns


class ForwardingIndex:
    """Edge labels plus their per-source arrangement, maintained together."""

    __slots__ = ("by_link", "by_source", "digest")

    def __init__(self) -> None:
        #: ``link -> AtomRuns`` — THE label table (links with empty
        #: labels are absent, as in the seed's label dict).
        self.by_link: Dict[Link, AtomRuns] = {}
        #: ``source -> {link: AtomRuns}`` — same AtomRuns objects,
        #: grouped by the node the traffic leaves.
        self.by_source: Dict[object, Dict[Link, AtomRuns]] = {}
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
            bucket = self.by_source.get(link.source)
            if bucket is None:
                bucket = self.by_source[link.source] = {}
            bucket[link] = runs
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
            bucket = self.by_source[link.source]
            del bucket[link]
            if not bucket:
                del self.by_source[link.source]

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

        Both views adopt the same ``runs`` object, preserving the
        shared-reference invariant :meth:`check_consistency` asserts.
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
        bucket = self.by_source.get(link.source)
        if bucket is None:
            bucket = self.by_source[link.source] = {}
        bucket[link] = runs

    # -- readers ---------------------------------------------------------------

    def out_links(self, node: object) -> Dict[Link, AtomRuns]:
        """The labelled out-edges of ``node`` (possibly empty, read-only)."""
        return self.by_source.get(node) or {}

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
        """Assert the two views agree exactly (tests/debugging)."""
        flattened = {link: runs
                     for bucket in self.by_source.values()
                     for link, runs in bucket.items()}
        assert set(flattened) == set(self.by_link), (
            "by_source and by_link index different link sets")
        for link, runs in self.by_link.items():
            assert flattened[link] is runs, (
                f"by_source holds a different AtomRuns for {link}")
            assert runs, f"empty label bucket for {link} was not dropped"
            assert link.source in self.by_source
        for source, bucket in self.by_source.items():
            assert bucket, f"empty out-link bucket for {source} not dropped"
            for link in bucket:
                assert link.source == source

    def __repr__(self) -> str:
        stats = self.label_stats()
        return (f"ForwardingIndex(links={stats['links']}, "
                f"atoms={stats['label_atoms']}, runs={stats['label_runs']}, "
                f"sources={len(self.by_source)})")
