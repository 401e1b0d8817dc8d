"""Packed int columns: the version-4 form of Delta-net's bulk state.

Round trips at every item width (and past 64 bits), the checks a
malformed column trips, the v1-v3 row lists read through the same
path, and the allocation bound that made packing worth doing: saving a
session must not cost more than a few times the snapshot it writes.
"""

import io
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import LoopProperty, VerificationSession
from repro.core.rules import DROP, Link, Rule
from repro.persist.columns import (
    pack_chunks, pack_columns, pack_ints, pack_rules, unpack_column,
    unpack_columns, unpack_ints, unpack_rules,
)
from repro.persist.snapshot import dumps_session, load_session, read_snapshot

# -- pack_ints / unpack_ints ------------------------------------------------------


@given(st.lists(st.integers(-(2 ** 200), 2 ** 200)))
def test_any_int_list_round_trips(values):
    assert unpack_ints(pack_ints(values)) == values


@pytest.mark.parametrize("values,item_size", [
    ([0, 255], 1),
    ([-128, 127], 1),
    ([0, 256], 2),
    ([-1, 40_000], 4),
    ([0, 2 ** 32], 8),
    ([-(2 ** 63), 2 ** 63 - 1], 8),
    ([0, 2 ** 64], 16),
    ([-1, 2 ** 64], 16),
    ([0, 2 ** 128], 24),
    ([-(2 ** 127), 2 ** 127 - 1], 16),
])
def test_item_width_comes_from_the_value_range(values, item_size):
    packed = pack_ints(values * 3)
    assert len(packed) == 5 + item_size * len(values) * 3
    assert unpack_ints(packed) == values * 3


def test_byte_order_is_explicit():
    assert pack_ints([1, 0x0203]) == b"\x02\x01\x00\x00\x00\x01\x00\x03\x02"
    assert pack_ints([-2]) == b"\x81\x01\x00\x00\x00\xfe"
    # Past 64 bits: two little-endian limbs, low limb first.
    assert pack_ints([2 ** 64 + 5]) == (
        b"\x08\x02\x00\x00\x00" + (5).to_bytes(8, "little")
        + (1).to_bytes(8, "little"))


def test_chunks_pack_like_their_concatenation():
    chunks = [[3, 4], [], [5, 2 ** 70], [-9]]
    assert pack_chunks(chunks) == pack_ints([3, 4, 5, 2 ** 70, -9])
    assert pack_chunks([]) == pack_ints([]) == pack_chunks([[], []])


@pytest.mark.parametrize("data", [
    b"",                                    # no header
    b"\x01\x01\x00",                        # short header
    b"\x03\x01\x00\x00\x00\x00\x00\x00",    # item size 3
    b"\x02\x01\x00\x00\x00\x00",            # half an item
    b"\x04\x02\x00\x00\x00" + bytes(8),     # limbs of 4 bytes
    b"\x08\x00\x00\x00\x00",                # zero limbs
    b"\x08\xff\xff\xff\xff",                # 2**32 - 1 limbs, no values
    "not bytes",
])
def test_malformed_columns_raise_value_error(data):
    with pytest.raises(ValueError, match="malformed int column"):
        unpack_ints(data)


def test_unpack_columns_checks_lengths_and_names():
    field = pack_columns({"a": [1, 2], "b": [3]})
    with pytest.raises(ValueError, match="pairs: columns of unequal length"):
        unpack_columns(field, ("a", "b"), "pairs")
    with pytest.raises(ValueError, match="pairs: missing column 'c'"):
        unpack_columns(field, ("a", "c"), "pairs")
    with pytest.raises(ValueError, match="pairs: malformed int column"):
        unpack_columns({"a": b"\x03"}, ("a",), "pairs")
    with pytest.raises(ValueError, match="free: malformed int column"):
        unpack_column(b"\x03", "free")


def test_v3_row_lists_read_as_columns():
    rows = [(0, 0), (10, 1), (2 ** 64, -1)]
    assert unpack_columns(rows, ("bound", "atom"), "boundaries") == \
        [[0, 10, 2 ** 64], [0, 1, -1]]
    assert unpack_columns([], ("bound", "atom"), "boundaries") == [[], []]
    assert unpack_column([3, 1, 2], "free") == [3, 1, 2]
    with pytest.raises(ValueError, match="boundaries: rows must have 2"):
        unpack_columns([(0, 0, 0)], ("bound", "atom"), "boundaries")


# -- rules ------------------------------------------------------------------------


def odd_rules():
    return [
        Rule.forward(-7, 0, 16, 3, "a", "b"),
        Rule.forward(2 ** 70, 16, 32, 2 ** 65, 1, "a"),
        Rule.drop(5, 0, 64, 1, "b"),
        Rule(9, 32, 48, 0, Link("a", None)),
    ]


def test_rules_round_trip_with_their_own_node_table():
    rules = odd_rules()
    field = pack_rules(rules)
    assert field["nodes"] == ["a", 1, "b", DROP, None]
    back = unpack_rules(field)
    assert [(r.rid, r.lo, r.hi, r.priority, r.link, r.action) for r in back] \
        == [(r.rid, r.lo, r.hi, r.priority, r.link, r.action) for r in rules]


def test_v3_rule_rows_read_as_columns():
    rules = odd_rules()
    nodes = ["a"]
    back = unpack_rules([rule.to_state() for rule in rules], nodes)
    assert [r.to_state() for r in back] == [r.to_state() for r in rules]
    assert nodes == ["a", 1, "b", DROP, None]  # interned in place


@pytest.mark.parametrize("column,values,message", [
    ("source", [0, 0, 0, 7], "rules: node index out of range"),
    ("target", [0, 0, -1, 0], "rules: node index out of range"),
    ("action", [0, 0, 2, 0], "rules: unknown action code"),
    ("rid", [1, 2, 3], "rules: columns of unequal length"),
])
def test_malformed_rule_columns(column, values, message):
    field = pack_rules(odd_rules())
    field[column] = pack_ints(values)
    with pytest.raises(ValueError, match=message):
        unpack_rules(field)


def test_rule_checks_still_apply_to_unpacked_rules():
    field = pack_rules(odd_rules())
    field["lo"] = pack_ints([0, 16, 64, 32])  # drop rule: lo == hi
    with pytest.raises(ValueError, match="empty interval"):
        unpack_rules(field)


# -- whole sessions at every width ----------------------------------------------

BACKENDS = [
    ("deltanet", {}),
    ("deltanet", {"gc": True}),
    ("sharded", {"shards": 3}),
    ("parallel", {"shards": 2, "force_inline": True}),
    ("veriflow", {}),
]


def width_rules(width):
    """Rules at the edges of a ``width``-bit space: a negative and a
    wider-than-64-bit rule id, a drop rule and a target-less rule."""
    top = 1 << width
    quarter = top >> 2
    return [
        Rule.forward(-3, 0, top, 1, "s0", "s1"),
        Rule.forward(2 ** 64 + 11, quarter, 2 * quarter, 5, "s1", "s0"),
        Rule.drop(7, 3 * quarter, top, 4, "s1"),
        Rule.forward(8, quarter, quarter + 1, 9, 17, "s0"),
        Rule(2 ** 100, 2 * quarter, top - 1, 2, Link("s0", None)),
    ]


@pytest.mark.parametrize("width", [8, 32, 64, 128])
@pytest.mark.parametrize("backend,options", BACKENDS,
                         ids=[f"{b}-{sorted(o)}" for b, o in BACKENDS])
def test_save_load_save_at_every_width(backend, options, width):
    session = VerificationSession(backend, width=width,
                                  properties=(LoopProperty(),), **options)
    for rule in width_rules(width):
        session.insert(rule)
    session.remove(8)
    blob = dumps_session(session)
    restored = load_session(io.BytesIO(blob), verify=True)
    try:
        assert dumps_session(restored) == blob
        assert sorted(restored.rules()) == sorted(session.rules())
        assert restored.state_digest() == session.state_digest()
        restored.check_invariants()
    finally:
        session.close()
        restored.close()


def test_deltanet_state_is_columns_over_one_node_table():
    session = VerificationSession("deltanet", width=64)
    for rule in width_rules(64):
        session.insert(rule)
    native = read_snapshot(io.BytesIO(dumps_session(session)))["backend"][
        "native"]
    assert native["nodes"] == ["__drop__", "s0", "s1", 17, None]
    assert all(type(column) is bytes for column in native["rules"].values())
    assert all(type(column) is bytes for column in native["labels"].values())
    atoms = native["atoms"]
    assert unpack_ints(atoms["boundaries"]["bound"])[-1] == 2 ** 64
    assert unpack_ints(atoms["boundaries"]["atom"])[-1] == -1


# -- the allocation bound -----------------------------------------------------------


def ten_thousand_op_plane():
    """10 000 ops of the layer ledger's shape: a pool of 400 prefixes of
    length 10-24 on 40 switches, 30 % of the ops removing a live rule."""
    rng = random.Random(0x5A7E)
    pool = []
    for _ in range(400):
        span = 1 << (32 - rng.randint(10, 24))
        lo = rng.randrange(1 << 32) & ~(span - 1)
        pool.append((lo, lo + span))
    inserts, removals, live = [], [], []
    for rid in range(10_000):
        if live and rng.random() < 0.3:
            removals.append(live.pop(rng.randrange(len(live))))
            continue
        lo, hi = pool[rng.randrange(len(pool))]
        source = rng.randrange(40)
        target = (source + rng.randrange(1, 40)) % 40
        inserts.append(Rule.forward(rid, lo, hi, rid, f"s{source}",
                                    f"s{target}"))
        live.append(rid)
    removed = set(removals)
    return [rule for rule in inserts if rule.rid not in removed]


def test_saving_allocates_at_most_three_times_the_snapshot():
    session = VerificationSession("deltanet", properties=(LoopProperty(),))
    session.apply_batch(ten_thousand_op_plane())
    size = len(dumps_session(session))
    tracemalloc.start()
    try:
        blob = dumps_session(session)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == size
    assert peak <= 3 * size, (peak, size)
