"""Tests for atom-set <-> bitmask conversions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import AtomTable
from repro.core.atomset import (
    atoms_to_bitmask, atoms_to_interval_set, bitmask_to_atoms, iter_bits,
    popcount,
)

atom_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


class TestBitmasks:
    def test_empty(self):
        assert atoms_to_bitmask([]) == 0
        assert bitmask_to_atoms(0) == set()
        assert popcount(0) == 0

    def test_simple(self):
        assert atoms_to_bitmask([0, 2]) == 0b101
        assert bitmask_to_atoms(0b101) == {0, 2}
        assert popcount(0b101) == 2

    def test_sentinel_rejected(self):
        with pytest.raises(ValueError):
            atoms_to_bitmask([-1])
        with pytest.raises(ValueError):
            bitmask_to_atoms(-5)

    @settings(max_examples=200, deadline=None)
    @given(atom_sets)
    def test_roundtrip(self, atoms):
        mask = atoms_to_bitmask(atoms)
        assert bitmask_to_atoms(mask) == atoms
        assert popcount(mask) == len(atoms)
        assert list(iter_bits(mask)) == sorted(atoms)

    @settings(max_examples=100, deadline=None)
    @given(atom_sets, atom_sets)
    def test_bit_ops_mirror_set_ops(self, a, b):
        ma, mb = atoms_to_bitmask(a), atoms_to_bitmask(b)
        assert bitmask_to_atoms(ma | mb) == a | b
        assert bitmask_to_atoms(ma & mb) == a & b
        assert bitmask_to_atoms(ma & ~mb) == a - b

    def test_cross_word_boundary(self):
        atoms = {0, 63, 64, 127, 128, 200}
        assert bitmask_to_atoms(atoms_to_bitmask(atoms)) == atoms


class TestLabelHelpers:
    def test_atoms_to_interval_set_merges_adjacent(self):
        table = AtomTable(width=4)
        table.create_atoms(4, 8)
        table.create_atoms(8, 12)
        atoms = set(table.atoms_in(4, 12))
        assert len(atoms) == 2
        assert atoms_to_interval_set(atoms, table) == [(4, 12)]

    def test_atoms_to_interval_set_keeps_gaps(self):
        table = AtomTable(width=4)
        table.create_atoms(2, 4)
        table.create_atoms(8, 12)
        atoms = set(table.atoms_in(2, 4)) | set(table.atoms_in(8, 12))
        assert atoms_to_interval_set(atoms, table) == [(2, 4), (8, 12)]
