"""Tests for the atom table (§3.1, Figures 5 and 6)."""

import random
import typing
from bisect import bisect_left, bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import atoms as atoms_module
from repro.core.atoms import ATOM_INF, LOAD, AtomTable
from repro.core.prefix import prefix_to_interval
from repro.persist.columns import pack_columns, pack_ints


def interval_strategy(width):
    space = 1 << width
    return st.tuples(st.integers(0, space - 1), st.integers(0, space)).map(
        lambda p: (min(p), max(p) if max(p) > min(p) else min(p) + 1))


class TestInitialState:
    def test_one_initial_atom(self):
        table = AtomTable(width=4)
        assert table.num_atoms == 1
        assert table.atom_interval(0) == (0, 16)
        assert table.boundaries() == [0, 16]

    def test_bad_width(self):
        with pytest.raises(ValueError):
            AtomTable(width=0)


class TestPaperExample:
    """Table 1 / Figures 5-6: rules rH=[10:12), rL=[0:16), then rM=[8:12)."""

    def setup_method(self):
        self.table = AtomTable(width=4)

    def test_rh_then_rl_yields_figure5_atoms(self):
        """With a 4-bit space, Figure 5's three atoms appear exactly."""
        self.table.create_atoms(10, 12)   # rH
        self.table.create_atoms(0, 16)    # rL ([0:16) is the whole space)
        atoms = dict(self.table.intervals())
        assert atoms == {0: (0, 10), 1: (10, 12), 2: (12, 16)}
        assert self.table.num_atoms == 3

    def test_rh_rl_atom_ids_with_32bit_space(self):
        table = AtomTable(width=32)
        delta_h = table.create_atoms(10, 12)
        delta_l = table.create_atoms(0, 16)
        # rH splits [0, MAX) twice: at 10 and at 12.
        assert delta_h == [(0, 1), (1, 2)]
        # rL adds only the boundary 16 (0 already present).
        assert delta_l == [(2, 3)]
        assert set(table.atoms_in(10, 12)) == {1}
        # After the split at 16, [12:16) keeps id 2 and [16:MAX) is new id 3.
        assert set(table.atoms_in(0, 16)) == {0, 1, 2}
        assert table.atom_interval(3) == (16, 1 << 32)

    def test_rm_split_matches_figure6(self):
        """CREATE_ATOMS+(rM) returns exactly {alpha0 -> alpha4}."""
        table = AtomTable(width=32)
        table.create_atoms(10, 12)
        table.create_atoms(0, 16)
        delta_m = table.create_atoms(8, 12)
        assert delta_m == [(0, 4)]
        assert table.atom_interval(0) == (0, 8)
        assert table.atom_interval(4) == (8, 10)


class TestCreateAtoms:
    def test_at_most_two_deltas(self):
        table = AtomTable(width=8)
        rng = random.Random(1)
        for _ in range(200):
            lo = rng.randrange(256)
            hi = rng.randrange(lo + 1, 257)
            assert len(table.create_atoms(lo, hi)) <= 2

    def test_idempotent(self):
        table = AtomTable(width=8)
        assert len(table.create_atoms(10, 20)) == 2
        assert table.create_atoms(10, 20) == []

    def test_shared_lower_bound_paper_remark(self):
        """1.2.0.0/16 and 1.2.0.0/24 share a lower bound => 3 atoms, not 4."""
        table = AtomTable(width=32)
        table.create_atoms(*prefix_to_interval("1.2.0.0/16"))
        table.create_atoms(*prefix_to_interval("1.2.0.0/24"))
        assert table.num_atoms == 4  # [0:lo), /24, rest-of-/16, [hi16:MAX)

    def test_out_of_range_rejected(self):
        table = AtomTable(width=4)
        with pytest.raises(ValueError):
            table.create_atoms(0, 17)
        with pytest.raises(ValueError):
            table.create_atoms(5, 5)

    def test_full_universe_interval_no_new_atoms(self):
        table = AtomTable(width=4)
        assert table.create_atoms(0, 16) == []

    def test_signatures_resolve(self):
        hints = typing.get_type_hints(AtomTable.create_atoms_many)
        assert hints["intervals"] == typing.Iterable[typing.Tuple[int, int]]

    def test_peek_splits_inside_one_atom_reports_the_fresh_atom(self):
        """Both bounds in atom 0: ``lo`` cuts it, ``hi`` cuts what ``lo``
        split off — each once, with the interval it has at that moment."""
        table = AtomTable(width=8)
        assert table.peek_splits(10, 20) == [(0, (0, 256)), (1, (10, 256))]
        assert table.boundaries() == [0, 256]  # nothing was created
        assert table.create_atoms(10, 20) == [(0, 1), (1, 2)]
        assert table.peek_splits(10, 20) == []
        assert table.peek_splits(12, 30) == [(1, (10, 20)), (2, (20, 256))]
        assert table.peek_splits(10, 15) == [(1, (10, 20))]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(interval_strategy(6), min_size=1, max_size=20),
           st.lists(st.integers(0, 63), max_size=8))
    def test_peek_splits_previews_create_atoms(self, intervals, collects):
        """Equal to cutting one bound at a time on a copy — same atoms,
        same order, recycled ids included."""
        table = AtomTable(width=6)
        for lo, hi in intervals[:-1]:
            table.create_atoms(lo, hi)
        for bound in collects:
            if bound in table.boundaries()[1:-1]:
                table.collect(bound)
        lo, hi = intervals[-1]
        peeked = table.peek_splits(lo, hi)
        replay, expected = table.copy(), []
        for bound in (lo, hi):
            if bound not in replay.boundaries():
                atom = replay.atom_at(bound)
                expected.append((atom, replay.atom_interval(atom)))
                replay.create_atoms(bound, replay.max)  # cuts at bound only
        assert peeked == expected
        assert [atom for atom, _span in peeked] == \
            [old for old, _new in table.create_atoms(lo, hi)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(interval_strategy(6), min_size=1, max_size=30))
    def test_final_boundaries_order_invariant(self, intervals):
        """§3.1: the generated atom *set* is insertion-order invariant."""
        forward, backward = AtomTable(width=6), AtomTable(width=6)
        for lo, hi in intervals:
            forward.create_atoms(lo, hi)
        for lo, hi in reversed(intervals):
            backward.create_atoms(lo, hi)
        assert forward.boundaries() == backward.boundaries()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(interval_strategy(6), min_size=1, max_size=30))
    def test_atoms_partition_universe(self, intervals):
        table = AtomTable(width=6)
        for lo, hi in intervals:
            table.create_atoms(lo, hi)
        covered = []
        for _atom, (lo, hi) in table.intervals():
            covered.append((lo, hi))
        covered.sort()
        assert covered[0][0] == 0
        assert covered[-1][1] == 64
        for (l1, h1), (l2, h2) in zip(covered, covered[1:]):
            assert h1 == l2  # contiguous, disjoint

    @settings(max_examples=100, deadline=None)
    @given(st.lists(interval_strategy(6), min_size=1, max_size=20))
    def test_atoms_in_covers_exactly(self, intervals):
        table = AtomTable(width=6)
        for lo, hi in intervals:
            table.create_atoms(lo, hi)
        for lo, hi in intervals:
            atoms = list(table.atoms_in(lo, hi))
            assert ATOM_INF not in atoms
            spans = sorted(table.atom_interval(a) for a in atoms)
            assert spans[0][0] == lo and spans[-1][1] == hi
            for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
                assert h1 == l2


class TestAtomQueries:
    def test_atom_at(self):
        table = AtomTable(width=4)
        table.create_atoms(4, 8)
        assert table.atom_at(0) == 0
        assert table.atom_at(5) == table.atom_at(7)
        assert table.atom_at(5) != table.atom_at(8)
        with pytest.raises(ValueError):
            table.atom_at(16)

    def test_num_atoms_is_map_size_minus_one(self):
        """§3.1: number of atoms == |M| - 1."""
        table = AtomTable(width=8)
        table.create_atoms(10, 20)
        table.create_atoms(15, 30)
        assert table.num_atoms == len(table.boundaries()) - 1


class TestGarbageCollection:
    def test_refcounting(self):
        table = AtomTable(width=8)
        table.create_atoms(10, 20)
        table.ref_bounds(10, 20)
        table.ref_bounds(10, 30)
        assert table.unref_bounds(10, 20) == [20]
        assert table.unref_bounds(10, 30) == [10, 30]

    def test_collect_merges_into_predecessor(self):
        table = AtomTable(width=8)
        table.create_atoms(10, 20)
        dead, survivor = table.collect(10)
        assert survivor == 0
        assert table.atom_interval(0) == (0, 20)
        with pytest.raises(KeyError):
            table.atom_interval(dead)

    def test_collect_rejects_min_max(self):
        table = AtomTable(width=8)
        with pytest.raises(KeyError):
            table.collect(0)
        with pytest.raises(KeyError):
            table.collect(256)

    def test_recycled_id_reused(self):
        table = AtomTable(width=8)
        (_, new_atom), = table.create_atoms(10, 256)
        dead, _ = table.collect(10)
        assert dead == new_atom
        (_, reused), = table.create_atoms(99, 256)
        assert reused == dead


# -- the blocked store against a naive model --------------------------------------


class NaiveTable:
    """Reference ``M``: one sorted list, every query a linear scan."""

    def __init__(self, width):
        self.items = [(0, 0), (1 << width, ATOM_INF)]
        self.allocated = 1
        self.free = []

    def split(self, bound):
        if any(bound == b for b, _atom in self.items):
            return None
        if self.free:
            new = self.free.pop()
        else:
            new, self.allocated = self.allocated, self.allocated + 1
        below = max(item for item in self.items if item[0] < bound)
        self.items.insert(self.items.index(below) + 1, (bound, new))
        return below[1], new

    def create_many(self, intervals):
        pairs = [self.split(bound) for span in intervals for bound in span]
        return [pair for pair in pairs if pair is not None]

    def collect(self, bound):
        index = [b for b, _atom in self.items].index(bound)
        dead = self.items.pop(index)[1]
        self.free.append(dead)
        return dead, self.items[index - 1][1]

    def intervals(self):
        return [(atom, (lo, hi)) for (lo, atom), (hi, _next)
                in zip(self.items, self.items[1:])]

    def atoms_in(self, lo, hi):
        return [atom for bound, atom in self.items if lo <= bound < hi]

    def overlapping(self, lo, hi):
        return [atom for atom, (start, end) in self.intervals()
                if start < hi and lo < end]


class BlockCoverage:
    """Which block-layout cases a run of the model test has reached."""

    def __init__(self):
        self.halved = self.emptied = self.three_blocks = self.at_minimum = 0

    def query(self, table, lo, hi):
        mins = table._mins
        if bisect_left(mins, hi) - bisect_right(mins, lo) >= 2:
            self.three_blocks += 1
        if lo in mins[1:] or hi in mins[1:]:
            self.at_minimum += 1


def check_against_model(table, model, lo, hi, coverage):
    table.check_blocks()
    assert list(table.intervals()) == model.intervals()
    assert table.boundaries() == [bound for bound, _atom in model.items]
    assert table.num_atoms == len(model.items) - 1
    assert table.num_ids_allocated == model.allocated
    for atom, span in model.intervals():
        assert table.atom_interval(atom) == span
    for dead in model.free:
        with pytest.raises(KeyError):
            table.atom_interval(dead)
    assert table.overlapping(lo, hi) == model.overlapping(lo, hi)
    for point in (lo, hi - 1):
        assert [table.atom_at(point)] == model.overlapping(point, point + 1)
    present = [bound for bound, _atom in model.items]
    lo = max(bound for bound in present if bound <= lo)
    hi = min(bound for bound in present if bound >= hi)
    assert table.atoms_in(lo, hi) == model.atoms_in(lo, hi)
    coverage.query(table, lo, hi)


def run_model(width, ops, coverage):
    """Drive an :class:`AtomTable` and the naive model through ``ops``,
    comparing every answer; forks taken on the way must stay frozen."""
    table, model = AtomTable(width=width), NaiveTable(width)
    forks = []
    for kind, spans, pick in ops:
        lo, hi = spans[0]
        blocks = len(table._mins)
        if kind == "create":
            assert table.create_atoms(lo, hi) == model.create_many(spans[:1])
        elif kind == "many":
            assert table.create_atoms_many(spans) == model.create_many(spans)
        elif kind == "collect":
            inner = table.boundaries()[1:-1]
            for bound in inner[pick % (len(inner) or 1):][:len(spans) * 3]:
                assert table.collect(bound) == model.collect(bound)
        else:
            forks.append((table.copy(), list(table.intervals()),
                          table.state_dict()))
        coverage.halved += len(table._mins) > blocks
        coverage.emptied += len(table._mins) < blocks
        check_against_model(table, model, lo, hi, coverage)
    for fork, intervals, state in forks:
        fork.check_blocks()
        assert list(fork.intervals()) == intervals
        assert fork.state_dict() == state
        fork.create_atoms(1, (1 << width) - 1)
        fork.check_blocks()
    assert list(table.intervals()) == model.intervals()
    rebuilt = AtomTable.from_state(table.state_dict())
    rebuilt.check_blocks()
    assert rebuilt.state_dict() == table.state_dict()
    if table.digest is not None:
        assert rebuilt.digest.as_tuple() == table.digest.as_tuple() \
            == table.recompute_digest().as_tuple()


def model_ops(width):
    return st.lists(st.tuples(
        st.sampled_from(["create", "create", "many", "collect", "copy"]),
        st.lists(interval_strategy(width), min_size=1, max_size=6),
        st.integers(0, 1 << width)), max_size=60)


class TestBlockedStore:
    @settings(max_examples=150, deadline=None)
    @given(model_ops(7))
    def test_model_based_with_small_blocks(self, ops):
        """``LOAD`` shrunk to 2, so a few dozen keys halve blocks, empty
        them and make queries span many."""
        with mock.patch.object(atoms_module, "LOAD", 2):
            run_model(7, ops, BlockCoverage())

    def test_model_run_reaches_every_block_case(self):
        """The same driver on a fixed trace, with the cases it must
        reach counted: halving, emptying by GC, queries over three or
        more blocks, and bounds that are block minima."""
        rng = random.Random(2017)
        space = 1 << 7

        def spans():
            out = []
            for _ in range(rng.randint(1, 6)):
                lo = rng.randrange(space)
                out.append((lo, rng.randrange(lo + 1, space + 1)))
            return out

        ops = [(rng.choice(["create", "many", "collect", "copy"]), spans(),
                rng.randrange(space)) for _ in range(400)]
        coverage = BlockCoverage()
        with mock.patch.object(atoms_module, "LOAD", 2):
            run_model(7, ops, coverage)
        assert min(coverage.halved, coverage.emptied,
                   coverage.three_blocks, coverage.at_minimum) >= 10, \
            vars(coverage)

    def test_block_bounds_after_200k_inserts_and_100k_collects(self):
        """At the real ``LOAD``: no block empty or over ``2 * LOAD``, the
        minima index sorted and in step, content equal to a sorted set."""
        rng = random.Random(0xB10C)
        table = AtomTable(width=32)
        keys = rng.sample(range(1, 1 << 32), 200_000)
        for start in range(0, len(keys), 2):
            lo, hi = sorted(keys[start:start + 2])
            table.create_atoms(lo, hi)
        assert max(map(len, table._keys)) > LOAD  # blocks did fill and halve
        blocks_at_peak = len(table._mins)
        # Half the collects sweep whole address ranges (emptying blocks),
        # half are scattered.
        ordered = sorted(keys)
        swept = ordered[20_000:70_000]
        scattered = rng.sample(ordered[:20_000] + ordered[70_000:], 50_000)
        for bound in swept + scattered:
            table.collect(bound)
        table.check_blocks()
        assert len(table._mins) < blocks_at_peak  # emptied blocks were dropped
        assert table._mins == sorted(table._mins)
        assert table._mins == [block[0] for block in table._keys]
        assert all(0 < len(block) <= 2 * LOAD for block in table._keys)
        left = sorted(set(keys) - set(swept) - set(scattered))
        assert table.boundaries() == [0] + left + [1 << 32]
        assert table.num_atoms == len(left) + 1
        lo, hi = left[10], left[-10]
        assert len(table.atoms_in(lo, hi)) == len(left) - 20


class TestFromStateValidation:
    """``from_state`` cuts blocks from the columns as given, so it checks
    them — and the v1-v3 row lists, read through the same checks."""

    def state(self, **changes):
        table = AtomTable(width=8)
        table.create_atoms(10, 20)
        table.create_atoms(30, 40)
        table.collect(30)
        state = table.state_dict()
        assert AtomTable.from_state(state).state_dict() == state
        state.update(changes)
        return state

    @staticmethod
    def columns(boundaries):
        return pack_columns({"bound": [bound for bound, _ in boundaries],
                             "atom": [atom for _, atom in boundaries]})

    @pytest.mark.parametrize("boundaries", [
        [(0, 0), (20, 2), (10, 1), (40, 4), (256, ATOM_INF)],   # unsorted
        [(0, 0), (10, 1), (10, 2), (40, 4), (256, ATOM_INF)],   # repeated
        [(5, 0), (10, 1), (20, 2), (40, 4), (256, ATOM_INF)],   # no MIN
        [(0, 1), (10, 0), (20, 2), (40, 4), (256, ATOM_INF)],   # MIN not 0
        [(0, 0), (10, 1), (20, 2), (40, 4)],                    # no MAX
        [(0, 0), (10, 1), (20, 2), (40, 4), (256, 5)],          # MAX not INF
        [(0, 0), (10, 1), (20, 1), (40, 4), (256, ATOM_INF)],   # id twice
        [],
    ])
    def test_malformed_boundaries(self, boundaries):
        with pytest.raises(ValueError, match="boundaries"):
            AtomTable.from_state(self.state(
                boundaries=self.columns(boundaries)))
        with pytest.raises(ValueError, match="boundaries"):
            AtomTable.from_state(self.state(boundaries=boundaries))

    @pytest.mark.parametrize("field,columns", [
        ("boundaries", {"bound": [0, 10, 20, 40, 256],
                        "atom": [0, 1, 2, 4]}),
        ("bound_refs", {"bound": [10, 20], "count": [1]}),
    ])
    def test_columns_of_unequal_length(self, field, columns):
        with pytest.raises(ValueError,
                           match=f"{field}: columns of unequal length"):
            AtomTable.from_state(self.state(**{field: pack_columns(columns)}))

    def test_malformed_column_bytes(self):
        with pytest.raises(ValueError, match="free: malformed int column"):
            AtomTable.from_state(self.state(free=b"\x02\x01\x00\x00\x00!"))

    def test_live_id_beyond_allocated(self):
        with pytest.raises(ValueError, match="allocated"):
            AtomTable.from_state(self.state(allocated=4))

    @pytest.mark.parametrize("free", [
        [3, 2],     # 2 is live
        [],         # 3 is neither live nor free
        [3, 3],     # twice
        [3, 7],     # never allocated
    ])
    def test_malformed_free_list(self, free):
        with pytest.raises(ValueError, match="free"):
            AtomTable.from_state(self.state(free=pack_ints(free)))
        with pytest.raises(ValueError, match="free"):
            AtomTable.from_state(self.state(free=free))

    def test_v3_row_lists_restore_the_same_table(self):
        state = self.state()
        rows = dict(state, boundaries=[(0, 0), (10, 1), (20, 2), (40, 4),
                                       (256, ATOM_INF)],
                    free=[3], bound_refs=[])
        assert AtomTable.from_state(rows).state_dict() == state

    def test_stored_rng_is_ignored(self):
        state = self.state(rng=(3, (1, 2, 3), None))
        assert AtomTable.from_state(state).boundaries() == [0, 10, 20, 40, 256]
