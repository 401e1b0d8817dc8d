"""The atom table: Delta-net's dynamically refined abstract domain (§3.1).

Atoms are the disjoint half-closed intervals induced by the lower/upper
bounds of every rule's IP prefix.  They are maintained in an ordered map
``M`` from boundary value to atom identifier: the pair ``n -> alpha`` means
atom ``alpha`` is the interval ``[n : n')`` where ``n'`` is the next
greater key in ``M``.

``M`` is stored as blocks of two parallel sorted lists — boundaries, and
the atom id beside each — of at most ``2 * LOAD`` entries, under a sorted
list of the blocks' least boundaries.  A search is two C ``bisect`` calls,
the atoms of an interval are a list slice, and a split shifts one block.

Identifiers are consecutive integers starting at zero, which lets edge
labels be plain sets (or bitmasks) of small ints.  ``M`` is seeded with
``MIN -> alpha_0`` and ``MAX -> alpha_inf`` where :data:`ATOM_INF` is a
sentinel that never participates in labels.

``create_atoms`` implements ``CREATE_ATOMS+`` from Algorithm 1: it inserts
the (at most two) missing boundaries of a new rule and returns the list of
*delta pairs* ``(alpha, alpha')`` — each meaning the interval previously
represented by ``alpha`` alone is now split between ``alpha`` and the new
atom ``alpha'``.

The optional garbage collector implements the §3.2.2 remark: when the last
rule with a bound at value ``b`` is removed, the atom starting at ``b`` can
be merged back into its predecessor and its identifier recycled.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.integrity.digest import BoundaryDigest, digests_enabled

#: Sentinel identifier for the greatest atom (paper's alpha-infinity).
ATOM_INF = -1

#: A block of ``M`` holds at most ``2 * LOAD`` boundaries; one that grows
#: past that halves.  Bounds what a split shifts, whatever ``M``'s size.
LOAD = 512


class AtomTable:
    """Maintains the ordered boundary map ``M`` and atom identities."""

    def __init__(self, width: int = 32) -> None:
        if width <= 0:
            raise ValueError(f"field width must be positive, got {width}")
        self.width = width
        self.min = 0
        self.max = 1 << width
        # M: block b holds boundaries _keys[b] (sorted) with the atom ids
        # _vals[b] beside them; _mins[b] == _keys[b][0].  MIN stays in
        # the first block and MAX in the last, so neither ever empties.
        self._keys: List[List[int]] = [[self.min, self.max]]
        self._vals: List[List[int]] = [[0, ATOM_INF]]
        self._mins: List[int] = [self.min]
        #: Incremental ``(boundary, atom)`` digest over ``M`` (sentinels
        #: included); ``None`` when ``DELTANET_DIGESTS=0``.
        self.digest = BoundaryDigest() if digests_enabled() else None
        if self.digest is not None:
            self.digest.add(self.min, 0)
            self.digest.add(self.max, ATOM_INF)
        self._start: List[int] = [self.min]  # atom id -> start boundary
        self._free: List[int] = []           # recycled ids (GC mode)
        self._bound_refs: Dict[int, int] = {}  # boundary -> #rules using it

    # -- the ordered map ---------------------------------------------------------

    def _floor(self, bound: int) -> Tuple[int, int]:
        """``(block, position)`` of the greatest boundary ``<= bound``."""
        block = bisect_right(self._mins, bound) - 1
        return block, bisect_right(self._keys[block], bound) - 1

    def _succ(self, block: int, pos: int) -> int:
        """The boundary after the one at ``(block, pos)``."""
        keys = self._keys[block]
        return keys[pos + 1] if pos + 1 < len(keys) else self._mins[block + 1]

    def _items(self) -> Iterator[Tuple[int, int]]:
        """Every ``(boundary, atom)`` of ``M``, ascending, MAX included."""
        for keys, vals in zip(self._keys, self._vals):
            yield from zip(keys, vals)

    # -- basic accessors -----------------------------------------------------

    @property
    def num_atoms(self) -> int:
        """Number of live atoms (size of ``M`` minus the MAX sentinel)."""
        return len(self._start) - len(self._free)

    @property
    def num_ids_allocated(self) -> int:
        """Total identifiers ever allocated (dense upper bound for arrays)."""
        return len(self._start)

    def atom_interval(self, atom: int) -> Tuple[int, int]:
        """The half-closed interval currently denoted by ``atom``."""
        start = self._start[atom]
        block, pos = self._floor(start)
        if self._keys[block][pos] != start or self._vals[block][pos] != atom:
            raise KeyError(f"atom {atom} is dead")
        return start, self._succ(block, pos)

    def atom_at(self, point: int) -> int:
        """Identifier of the atom containing ``point``."""
        if not self.min <= point < self.max:
            raise ValueError(f"point {point} outside [{self.min}, {self.max})")
        block, pos = self._floor(point)
        return self._vals[block][pos]

    def atoms_in(self, lo: int, hi: int) -> List[int]:
        """Atoms collectively representing ``[lo : hi)``, in address order.

        ``lo`` and ``hi`` must already be boundaries in ``M`` (i.e. after
        ``create_atoms(lo, hi)``); this is exactly ``[[interval(r)]]``.
        """
        block = bisect_right(self._mins, lo) - 1
        keys = self._keys[block]
        pos = bisect_left(keys, lo)
        end = bisect_left(keys, hi, pos)
        atoms = self._vals[block][pos:end]
        if end == len(keys):  # the interval runs on into later blocks
            for block in range(block + 1, len(self._keys)):
                keys = self._keys[block]
                end = bisect_left(keys, hi)
                atoms += self._vals[block][:end]
                if end < len(keys):
                    break
        return atoms

    def overlapping(self, lo: int, hi: int) -> List[int]:
        """All atoms whose interval intersects ``[lo : hi)``.

        Unlike :meth:`atoms_in`, the bounds need not be existing
        boundaries: the atom containing ``lo`` is included even when its
        start lies below ``lo``.
        """
        if not self.min <= lo < hi <= self.max:
            raise ValueError(f"interval [{lo}:{hi}) out of range")
        block, pos = self._floor(lo)
        return self.atoms_in(self._keys[block][pos], hi)

    def intervals(self) -> Iterator[Tuple[int, Tuple[int, int]]]:
        """All live ``(atom, (lo, hi))`` pairs in ascending interval order."""
        items = list(self._items())
        for (lo, atom), (hi, _next_atom) in zip(items, items[1:]):
            yield atom, (lo, hi)

    def boundaries(self) -> List[int]:
        return [bound for keys in self._keys for bound in keys]

    def live_atoms(self) -> List[int]:
        """Every live atom id, in address order."""
        return list(chain.from_iterable(self._vals))[:-1]

    # -- CREATE_ATOMS+ (Algorithm 1, line 2) ----------------------------------

    def peek_splits(self, lo: int, hi: int) -> List[Tuple[int, Tuple[int, int]]]:
        """Preview the splits ``create_atoms(lo, hi)`` would make.

        Returns one ``(atom, (atom_lo, atom_hi))`` per boundary that is
        missing — the atom it would cut and the interval that atom has at
        that moment — in :meth:`create_atoms`' order and with its ids,
        *without* mutating the table: when both bounds fall inside one
        atom, ``hi`` cuts the fresh atom ``lo`` has just split off.
        Useful for inspection; unlike :meth:`create_atoms` it is safe to
        call on a table owned by a live
        :class:`~repro.core.deltanet.DeltaNet`.
        """
        if not self.min <= lo < hi <= self.max:
            raise ValueError(
                f"interval [{lo}:{hi}) outside [{self.min}, {self.max})")
        splits: List[Tuple[int, Tuple[int, int]]] = []
        for bound in (lo, hi):
            block, pos = self._floor(bound)
            start = self._keys[block][pos]
            if start == bound:
                continue
            atom = self._vals[block][pos]
            if splits and splits[0][0] == atom:
                atom = self._free[-1] if self._free else len(self._start)
                start = lo
            splits.append((atom, (start, self._succ(block, pos))))
        return splits

    def create_atoms(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Insert missing boundaries for ``[lo : hi)``; return delta pairs.

        Each returned pair ``(alpha, alpha')`` records that existing atom
        ``alpha`` was split and the upper part is the fresh atom ``alpha'``.
        At most two pairs are returned (|delta| <= 2, paper §3.2.1).

        .. warning:: When the table is owned by a live
           :class:`~repro.core.deltanet.DeltaNet`, never call this
           directly — rule insertion keeps the owner/label structures in
           sync with splits.  Use :meth:`peek_splits` to inspect instead.
        """
        if not self.min <= lo < hi <= self.max:
            raise ValueError(
                f"interval [{lo}:{hi}) outside [{self.min}, {self.max})")
        delta: List[Tuple[int, int]] = []
        for bound in (lo, hi):
            pair = self._split_at(bound)
            if pair is not None:
                delta.append(pair)
        return delta

    def create_atoms_many(self, intervals: Iterable[Tuple[int, int]]
                          ) -> List[Tuple[int, int]]:
        """``CREATE_ATOMS+`` for a whole batch of rule intervals.

        One deduplicated pass over the batch's boundaries: each distinct
        missing boundary costs a single ordered-map probe + insert, no
        matter how many rules of the batch share it.  Identifiers are
        allocated in first-encounter order, so the resulting atom ids are
        exactly those sequential :meth:`create_atoms` calls would have
        produced.  Returns the concatenated delta pairs in creation order.

        .. warning:: Same caveat as :meth:`create_atoms` — on a table
           owned by a live DeltaNet, only
           :meth:`~repro.core.deltanet.DeltaNet.apply_batch` may call
           this.
        """
        amin, amax = self.min, self.max
        split_at = self._split_at
        delta: List[Tuple[int, int]] = []
        seen = set()
        for lo, hi in intervals:
            if not amin <= lo < hi <= amax:
                raise ValueError(
                    f"interval [{lo}:{hi}) outside [{amin}, {amax})")
            for bound in (lo, hi):
                if bound in seen:
                    continue
                seen.add(bound)
                pair = split_at(bound)
                if pair is not None:
                    delta.append(pair)
        return delta

    def _split_at(self, bound: int) -> Optional[Tuple[int, int]]:
        """Add ``bound`` to ``M`` unless present; the delta pair if added."""
        block, pos = self._floor(bound)
        keys, vals = self._keys[block], self._vals[block]
        if keys[pos] == bound:
            return None
        old_atom = vals[pos]
        pos += 1
        if self._free:
            new_atom = self._free.pop()
            self._start[new_atom] = bound
        else:
            new_atom = len(self._start)
            self._start.append(bound)
        keys.insert(pos, bound)
        vals.insert(pos, new_atom)
        if len(keys) > 2 * LOAD:
            self._keys.insert(block + 1, keys[LOAD:])
            self._vals.insert(block + 1, vals[LOAD:])
            self._mins.insert(block + 1, keys[LOAD])
            del keys[LOAD:], vals[LOAD:]
        if self.digest is not None:
            self.digest.add(bound, new_atom)
        return old_atom, new_atom

    # -- reference counting & garbage collection (§3.2.2 remark) --------------

    def ref_bounds(self, lo: int, hi: int) -> None:
        """Record that a rule with interval ``[lo : hi)`` now exists."""
        for bound in (lo, hi):
            self._bound_refs[bound] = self._bound_refs.get(bound, 0) + 1

    def unref_bounds(self, lo: int, hi: int) -> List[int]:
        """Drop a rule's boundary references; return now-unused boundaries.

        A returned boundary is one no remaining rule starts or ends at
        (``MIN``/``MAX`` are never returned).  The caller decides whether
        to actually collect the corresponding atoms via :meth:`collect`.
        """
        dead: List[int] = []
        for bound in (lo, hi):
            count = self._bound_refs.get(bound, 0) - 1
            if count > 0:
                self._bound_refs[bound] = count
            else:
                self._bound_refs.pop(bound, None)
                if bound not in (self.min, self.max):
                    dead.append(bound)
        return dead

    def collect(self, bound: int) -> Tuple[int, int]:
        """Remove boundary ``bound``, merging its atom into the predecessor.

        Returns ``(dead_atom, surviving_atom)``.  The caller must erase
        ``dead_atom`` from all labels/owner structures before the next
        split recycles its id (see
        :meth:`repro.core.deltanet.DeltaNet._collect_atom`).
        """
        if not self.min < bound < self.max:
            raise KeyError(f"boundary {bound} not collectable")
        block, pos = self._floor(bound)
        keys, vals = self._keys[block], self._vals[block]
        if keys[pos] != bound:
            raise KeyError(f"boundary {bound} not collectable")
        atom = vals[pos]
        survivor = vals[pos - 1] if pos else self._vals[block - 1][-1]
        del keys[pos], vals[pos]
        if not keys:
            del self._keys[block], self._vals[block], self._mins[block]
        elif pos == 0:
            self._mins[block] = keys[0]
        if self.digest is not None:
            self.digest.remove(bound, atom)
        self._free.append(atom)
        return atom, survivor

    def copy(self) -> "AtomTable":
        """An independent copy in O(boundaries) — the speculative-fork path.

        Block lists, allocation and GC bookkeeping are duplicated (so a
        committed speculation replays into identical atom ids), and the
        incremental digest's accumulator rides along when enabled.
        """
        dup = AtomTable.__new__(AtomTable)
        dup.width = self.width
        dup.min = self.min
        dup.max = self.max
        dup._keys = [list(keys) for keys in self._keys]
        dup._vals = [list(vals) for vals in self._vals]
        dup._mins = list(self._mins)
        if self.digest is None:
            dup.digest = None
        else:
            dup.digest = BoundaryDigest()
            dup.digest.count = self.digest.count
            dup.digest.xor = self.digest.xor
            dup.digest.total = self.digest.total
        dup._start = list(self._start)
        dup._free = list(self._free)
        dup._bound_refs = dict(self._bound_refs)
        return dup

    def recompute_digest(self) -> BoundaryDigest:
        """A from-scratch :class:`BoundaryDigest` of ``M`` (scrub
        reference), independent of the incremental :attr:`digest`."""
        fresh = BoundaryDigest()
        for bound, atom in self._items():
            fresh.add(bound, atom)
        return fresh

    def check_blocks(self) -> None:
        """Assert the block layout's invariants (test oracles only)."""
        assert len(self._keys) == len(self._vals) == len(self._mins)
        for keys, vals, least in zip(self._keys, self._vals, self._mins):
            assert 0 < len(keys) == len(vals) <= 2 * LOAD, len(keys)
            assert keys[0] == least, "minima index out of step with a block"
        bounds = self.boundaries()
        assert bounds[0] == self.min and bounds[-1] == self.max
        assert all(a < b for a, b in zip(bounds, bounds[1:])), "M not sorted"
        assert len(bounds) - 1 == self.num_atoms

    # -- persistence (see repro.persist) ---------------------------------------

    def state_dict(self) -> dict:
        """The table's full state as packed int columns
        (:mod:`repro.persist.columns`).

        Boundaries are emitted in ascending order and the free-id stack
        in stack order, so restored id recycling matches exactly.
        """
        from repro.persist.columns import pack_chunks, pack_columns, pack_ints

        ref_bounds = sorted(self._bound_refs)
        return {
            "width": self.width,
            "boundaries": {"bound": pack_chunks(self._keys),
                           "atom": pack_chunks(self._vals)},
            "allocated": len(self._start),
            "free": pack_ints(self._free),
            "bound_refs": pack_columns({
                "bound": ref_bounds,
                "count": [self._bound_refs[bound] for bound in ref_bounds]}),
        }

    @classmethod
    def from_state(cls, state: dict) -> "AtomTable":
        """Rebuild a table; exact inverse of :meth:`state_dict`.

        The blocks are cut from the stored boundary column in one pass,
        so its order is trusted and therefore checked first: a malformed
        field raises :class:`ValueError` naming it.  The v1-v3 list
        forms are read through the same checks; their ``"rng"`` entry
        (written up to snapshot v2) is ignored.
        """
        from repro.persist.columns import unpack_column, unpack_columns

        table = cls(width=state["width"])
        bounds, atoms = unpack_columns(state["boundaries"], ("bound", "atom"),
                                       "boundaries")
        allocated = state["allocated"]
        free = unpack_column(state["free"], "free")
        ref_bounds, ref_counts = unpack_columns(
            state["bound_refs"], ("bound", "count"), "bound_refs")
        if (len(bounds) < 2
                or (bounds[0], atoms[0]) != (table.min, 0)
                or (bounds[-1], atoms[-1]) != (table.max, ATOM_INF)
                or any(a >= b for a, b in zip(bounds, bounds[1:]))):
            raise ValueError("boundaries: must ascend strictly from "
                             "MIN -> 0 to MAX -> ATOM_INF")
        live = set(atoms[:-1])
        if len(live) != len(atoms) - 1:
            raise ValueError("boundaries: an atom id appears twice")
        if not all(0 <= atom < allocated for atom in live):
            raise ValueError(f"allocated: {allocated} ids do not cover "
                             f"the live atoms")
        if sorted(free) != sorted(set(range(allocated)) - live):
            raise ValueError("free: must hold exactly the allocated ids "
                             "that are not live")
        cuts = range(0, len(bounds), LOAD)
        table._keys = [bounds[cut:cut + LOAD] for cut in cuts]
        table._vals = [atoms[cut:cut + LOAD] for cut in cuts]
        table._mins = [keys[0] for keys in table._keys]
        table._start = [table.min] * allocated
        for bound, atom in zip(bounds, atoms[:-1]):
            table._start[atom] = bound
        if table.digest is not None:
            for bound, atom in zip(bounds[1:-1], atoms[1:-1]):
                table.digest.add(bound, atom)
        table._free = free
        table._bound_refs = dict(zip(ref_bounds, ref_counts))
        return table

    def __repr__(self) -> str:
        return (f"AtomTable(width={self.width}, atoms={self.num_atoms}, "
                f"allocated={self.num_ids_allocated})")
