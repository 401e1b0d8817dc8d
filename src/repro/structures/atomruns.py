"""Run-length compressed atom sets: the edge-label representation.

Atoms are the disjoint intervals induced by rule boundaries (§3.1), and
a link's label is the union of whole rule intervals — so the atom ids on
a label cluster into *runs* of consecutive identifiers whenever ids were
allocated in address order (the common case: a batch of rules over one
prefix pool mints its boundary atoms in one left-to-right sweep).

:class:`AtomRuns` stores a label as two parallel sorted arrays of run
``starts`` and half-open run ``ends``:

* membership is one ``bisect`` — O(log runs),
* iteration, union, intersection, difference and bitmask conversion are
  linear merges over runs — O(runs), not O(atoms),
* ``add``/``discard`` at a run boundary (the incremental Algorithms 1/2
  shape: sweeps walk an interval's atoms in order) extend or trim a run
  in place; only a mid-run hit pays an O(runs) array shift.

Memory is O(runs) machine words instead of one hash-table slot (plus a
boxed int) per atom, which is where the Table 5-style label memory drop
comes from; see ``docs/performance.md`` for the measured table.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple


class AtomRuns:
    """A set of non-negative atom ids as sorted half-open runs."""

    __slots__ = ("_starts", "_ends", "_count")

    def __init__(self, atoms: Iterable[int] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._count = 0
        for atom in atoms:
            self.add(atom)

    @classmethod
    def from_runs(cls, runs: Iterable[Tuple[int, int]]) -> "AtomRuns":
        """Build from ``(start, end)`` half-open pairs.

        Pairs may arrive unsorted or touching; they are normalized.
        Empty or inverted pairs are rejected.
        """
        out = cls()
        starts, ends = out._starts, out._ends
        for start, end in sorted(runs):
            if start >= end:
                raise ValueError(f"empty run [{start}:{end})")
            if start < 0:
                raise ValueError(f"negative atom id in run [{start}:{end})")
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    out._count += end - ends[-1]
                    ends[-1] = end
                continue
            starts.append(start)
            ends.append(end)
            out._count += end - start
        return out

    # -- set-like reads --------------------------------------------------------

    def __contains__(self, atom: int) -> bool:
        index = bisect_right(self._starts, atom) - 1
        return index >= 0 and atom < self._ends[index]

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[int]:
        for start, end in zip(self._starts, self._ends):
            yield from range(start, end)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AtomRuns):
            return self._starts == other._starts and self._ends == other._ends
        if isinstance(other, (set, frozenset)):
            return self._count == len(other) and all(a in other for a in self)
        return NotImplemented

    def __hash__(self) -> None:  # mutable container
        raise TypeError("AtomRuns is unhashable")

    @property
    def num_runs(self) -> int:
        return len(self._starts)

    def runs(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` half-open runs, ascending."""
        return list(zip(self._starts, self._ends))

    def columns(self) -> Tuple[List[int], List[int]]:
        """The ``starts`` and ``ends`` arrays themselves (read-only)."""
        return self._starts, self._ends

    def copy(self) -> "AtomRuns":
        out = AtomRuns()
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        out._count = self._count
        return out

    def container_bytes(self) -> int:
        """Bytes held by this container (object + run arrays).

        Excludes the atom int objects themselves — they are shared
        across containers — so the number is directly comparable with
        ``sys.getsizeof(set(...))`` of an equivalent plain set (the
        label-memory table in ``docs/performance.md``).
        """
        import sys

        return (sys.getsizeof(self) + sys.getsizeof(self._starts)
                + sys.getsizeof(self._ends))

    def to_bitmask(self) -> int:
        """The label as an int bitmask — O(runs) shifts, not O(atoms)."""
        mask = 0
        for start, end in zip(self._starts, self._ends):
            mask |= ((1 << (end - start)) - 1) << start
        return mask

    # -- single-atom updates (the Algorithms 1/2 hot path) ---------------------

    def add(self, atom: int) -> bool:
        """Insert ``atom``; returns whether membership actually changed
        (``False`` when already present) so callers maintaining derived
        state — the integrity digests — toggle only on real mutations."""
        if atom < 0:
            raise ValueError(f"negative atom id {atom}")
        starts, ends = self._starts, self._ends
        index = bisect_right(starts, atom) - 1
        if index >= 0 and atom < ends[index]:
            return False  # already inside run ``index``
        self._count += 1
        grows_left = index >= 0 and atom == ends[index]
        nxt = index + 1
        grows_right = nxt < len(starts) and atom + 1 == starts[nxt]
        if grows_left and grows_right:
            # The new atom bridges two runs into one.
            ends[index] = ends.pop(nxt)
            del starts[nxt]
        elif grows_left:
            ends[index] = atom + 1
        elif grows_right:
            starts[nxt] = atom
        else:
            starts.insert(nxt, atom)
            ends.insert(nxt, atom + 1)
        return True

    def discard(self, atom: int) -> bool:
        """Remove ``atom``; returns whether it was present (see
        :meth:`add` for why the membership delta is reported)."""
        starts, ends = self._starts, self._ends
        index = bisect_right(starts, atom) - 1
        if index < 0 or atom >= ends[index]:
            return False
        self._count -= 1
        start, end = starts[index], ends[index]
        if end - start == 1:
            del starts[index]
            del ends[index]
        elif atom == start:
            starts[index] = atom + 1
        elif atom == end - 1:
            ends[index] = atom
        else:
            # Mid-run hit: split into [start:atom) and [atom+1:end).
            ends[index] = atom
            starts.insert(index + 1, atom + 1)
            ends.insert(index + 1, end)
        return True

    # -- O(runs) bulk algebra ---------------------------------------------------

    def union(self, other: "AtomRuns") -> "AtomRuns":
        """Two-pointer linear merge — O(runs), no re-sort."""
        out = AtomRuns()
        starts, ends = out._starts, out._ends
        a_s, a_e = self._starts, self._ends
        b_s, b_e = other._starts, other._ends
        i = j = 0
        while i < len(a_s) or j < len(b_s):
            if j >= len(b_s) or (i < len(a_s) and a_s[i] <= b_s[j]):
                start, end = a_s[i], a_e[i]
                i += 1
            else:
                start, end = b_s[j], b_e[j]
                j += 1
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    out._count += end - ends[-1]
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
                out._count += end - start
        return out

    def union_update(self, other: "AtomRuns") -> None:
        """Merge ``other`` in — one O(runs) merge, not per-atom adds."""
        merged = self.union(other)
        self._starts = merged._starts
        self._ends = merged._ends
        self._count = merged._count

    def intersection(self, other: "AtomRuns") -> "AtomRuns":
        out = AtomRuns()
        starts, ends = out._starts, out._ends
        i = j = 0
        a_s, a_e = self._starts, self._ends
        b_s, b_e = other._starts, other._ends
        while i < len(a_s) and j < len(b_s):
            lo = max(a_s[i], b_s[j])
            hi = min(a_e[i], b_e[j])
            if lo < hi:
                starts.append(lo)
                ends.append(hi)
                out._count += hi - lo
            if a_e[i] <= b_e[j]:
                i += 1
            else:
                j += 1
        return out

    def difference(self, other: "AtomRuns") -> "AtomRuns":
        out = AtomRuns()
        starts, ends = out._starts, out._ends
        j = 0
        b_s, b_e = other._starts, other._ends
        for lo, hi in zip(self._starts, self._ends):
            cursor = lo
            while cursor < hi:
                while j < len(b_s) and b_e[j] <= cursor:
                    j += 1
                if j >= len(b_s) or b_s[j] >= hi:
                    starts.append(cursor)
                    ends.append(hi)
                    out._count += hi - cursor
                    break
                if b_s[j] > cursor:
                    starts.append(cursor)
                    ends.append(b_s[j])
                    out._count += b_s[j] - cursor
                cursor = b_e[j]
            # Re-scan ``other`` from the same j for the next run: runs
            # are ascending, so j never needs to move backwards.
        return out

    def isdisjoint(self, other: "AtomRuns") -> bool:
        i = j = 0
        a_s, a_e = self._starts, self._ends
        b_s, b_e = other._starts, other._ends
        while i < len(a_s) and j < len(b_s):
            if max(a_s[i], b_s[j]) < min(a_e[i], b_e[j]):
                return False
            if a_e[i] <= b_e[j]:
                i += 1
            else:
                j += 1
        return True

    def __repr__(self) -> str:
        shown = ", ".join(f"[{s}:{e})" for s, e in list(zip(
            self._starts, self._ends))[:6])
        more = f", +{self.num_runs - 6} runs" if self.num_runs > 6 else ""
        return f"AtomRuns({self._count} atoms: {shown}{more})"
