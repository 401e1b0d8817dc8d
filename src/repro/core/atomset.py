"""Atom-set representations for edge labels.

Incremental rule updates (Algorithms 1/2) add and discard single atoms,
which the run-length :class:`~repro.structures.atomruns.AtomRuns` labels
absorb at their run boundaries.  Algorithm 3's all-pairs closure is
dominated by unions/intersections over whole labels, for which
arbitrary-precision integers used as bitmasks are far faster
(word-parallel ``&``/``|`` in C).

This module converts between the representations and provides the
handful of bitmask primitives the closure (and the label-derived sweep
oracle) need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set, Tuple

_CHUNK_BITS = 64
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


def atoms_to_bitmask(atoms: Iterable[int]) -> int:
    """Pack atom identifiers into an int bitmask."""
    mask = 0
    for atom in atoms:
        if atom < 0:
            raise ValueError(f"cannot pack sentinel atom {atom}")
        mask |= 1 << atom
    return mask


def _scan_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` ascending (the one bit-scan
    loop behind :func:`bitmask_to_atoms` and :func:`iter_bits`)."""
    if mask < 0:
        raise ValueError("negative bitmask")
    position = 0
    while mask:
        chunk = mask & _CHUNK_MASK
        while chunk:
            low = chunk & -chunk
            yield position + low.bit_length() - 1
            chunk ^= low
        mask >>= _CHUNK_BITS
        position += _CHUNK_BITS


def bitmask_to_atoms(mask: int) -> Set[int]:
    """Unpack an int bitmask into a set of atom identifiers."""
    if mask < 0:
        raise ValueError("negative bitmask")
    return set(_scan_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in ascending order."""
    return _scan_bits(mask)


if hasattr(int, "bit_count"):  # Python >= 3.10: one CPython opcode away
    def popcount(mask: int) -> int:
        """Number of set bits (atoms) in the mask."""
        return mask.bit_count()
else:  # pragma: no cover - exercised only on Python 3.9
    def popcount(mask: int) -> int:
        """Number of set bits (atoms) in the mask (pre-3.10 fallback)."""
        return bin(mask).count("1")


def label_bitmask(bucket) -> int:
    """A label bucket as a bitmask.

    Run-length buckets convert in O(runs) via ``AtomRuns.to_bitmask``;
    anything else (plain sets, frozensets, iterables) is packed atom by
    atom.
    """
    to_bitmask = getattr(bucket, "to_bitmask", None)
    if to_bitmask is not None:
        return to_bitmask()
    return atoms_to_bitmask(bucket)


def atoms_to_interval_set(atoms: Iterable[int], atom_table) -> List[Tuple[int, int]]:
    """Merge a set of atoms back into canonical disjoint intervals.

    Useful for reporting: a set of atoms is a union of half-closed
    intervals of the header space (e.g. "which packets does this link
    carry?").
    """
    from repro.core.intervals import normalize

    return normalize(atom_table.atom_interval(a) for a in atoms)
