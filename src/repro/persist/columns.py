"""Packed integer columns: the snapshot form of Delta-net's bulk state.

Since snapshot version 4, the three structures that grow with the data
plane — the rule store, the run-length labels and the atom table — are
stored column-wise instead of as one codec value per int:

* **rules** — parallel columns ``rid``, ``lo``, ``hi``, ``priority``,
  ``source``, ``target`` and ``action`` (0 forward, 1 drop), where
  ``source``/``target`` index an interned **node table**: a plain list
  holding each node exactly as the codec encodes it (strings, ints,
  :data:`~repro.core.rules.DROP`, and ``None`` for a target-less rule),
* **labels** — per link a ``source`` and ``target`` node index and a run
  count ``runs``; then every link's runs back to back in flat ``starts``
  and ``ends`` columns,
* **atom table** — ``boundaries`` as a ``bound`` and an ``atom`` column,
  the free-id stack ``free`` as one column, and ``bound_refs`` as a
  ``bound`` and a ``count`` column.

A column is one :func:`pack_ints` ``bytes`` value, so the codec writes
and reads it in one call and the ints are copied in C (``array``).  The
layout of a packed column::

    flags   u8      item size in bytes (1, 2, 4 or 8), | 0x80 if signed
    limbs   u32 LE  64-bit limbs per value (1 unless a value needs > 64 bits)
    data            the items, little-endian; limb-major when limbs > 1

The item size is the narrowest that holds the column's own value range,
so no knob picks it, and values wider than 64 bits (``MAX = 2**width``
for ``width >= 64``, 128-bit headers, unchecked rule ids) take the same
path split into two's-complement 64-bit limbs.

Version 1-3 snapshots stored the same fields as lists of rows.  Each
reader here converts such a list to the column form where it reads it,
so the restore code has one path and no other module knows the layout.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.rules import DROP, Action, Link, Rule

#: The ``array`` typecode for each ``(item size, signed)`` pair.
_TYPECODES: Dict[Tuple[int, bool], str] = {}
for _code in "bBhHiIlLqQ":
    _TYPECODES.setdefault((array(_code).itemsize, _code.islower()), _code)

_HEADER = struct.Struct("<BI")
_SIGNED = 0x80
_LIMB_BITS = 64
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_BIG_ENDIAN_HOST = sys.byteorder == "big"

RULE_COLUMNS = ("rid", "lo", "hi", "priority", "source", "target", "action")
LABEL_COLUMNS = ("source", "target", "runs")
RUN_COLUMNS = ("starts", "ends")
_ACTIONS = (Action.FORWARD, Action.DROP)


def _layout(lo: int, hi: int) -> Tuple[int, bool, int]:
    """``(item size, signed, limbs)`` of the narrowest form holding
    every value in ``[lo, hi]``."""
    signed = lo < 0
    for size in (1, 2, 4, 8):
        bits = 8 * size - signed
        if hi < 1 << bits and lo >= -(1 << bits):
            return size, signed, 1
    bits = max(hi.bit_length(), (~lo).bit_length() if signed else 0) + signed
    return 8, signed, -(-bits // _LIMB_BITS)


def _packed(header: bytes, items: array) -> bytes:
    if _BIG_ENDIAN_HOST and items.itemsize > 1:
        items.byteswap()
    return b"".join((header, items))


def pack_ints(values: Sequence[int]) -> bytes:
    """``values`` as one packed column (see the module docstring)."""
    return pack_chunks((values,))


def pack_chunks(chunks: Iterable[Sequence[int]]) -> bytes:
    """The concatenation of ``chunks`` as one packed column, built
    without the flat list: the items go straight into one ``array``."""
    chunks = [chunk for chunk in chunks if chunk]
    if not chunks:
        return _HEADER.pack(1, 1)
    size, signed, limbs = _layout(min(map(min, chunks)),
                                  max(map(max, chunks)))
    header = _HEADER.pack(size | (_SIGNED if signed else 0), limbs)
    if limbs == 1:
        items = array(_TYPECODES[size, signed])
        for chunk in chunks:
            items.extend(chunk)
        return _packed(header, items)
    # Two's complement over ``limbs`` 64-bit words, low limb first.
    mask = (1 << limbs * _LIMB_BITS) - 1
    wide = [value & mask for chunk in chunks for value in chunk]
    items = array(_TYPECODES[8, False])
    for limb in range(limbs):
        shift = limb * _LIMB_BITS
        items.extend([value >> shift & _LIMB_MASK for value in wide])
    return _packed(header, items)


def unpack_ints(data: bytes) -> List[int]:
    """The ints of a :func:`pack_ints` column; ``ValueError`` if malformed."""
    if type(data) is not bytes or len(data) < _HEADER.size:
        raise ValueError("malformed int column")
    flags, limbs = _HEADER.unpack_from(data)
    size, signed = flags & ~_SIGNED, bool(flags & _SIGNED)
    code = _TYPECODES.get((size, signed if limbs == 1 else False))
    body = memoryview(data)[_HEADER.size:]
    # A wide column holds at least one value, which bounds ``limbs`` by
    # the bytes present: a corrupt count cannot make the loop below long.
    if (code is None or limbs < 1 or len(body) % (size * limbs)
            or (limbs > 1 and (size != 8 or not body))):
        raise ValueError("malformed int column")
    items = array(code)
    items.frombytes(body)
    if _BIG_ENDIAN_HOST and size > 1:
        items.byteswap()
    if limbs == 1:
        return items.tolist()
    count = len(items) // limbs
    values = items[:count].tolist()
    for limb in range(1, limbs):
        shift = limb * _LIMB_BITS
        values = [value | high << shift for value, high in
                  zip(values, items[limb * count:(limb + 1) * count])]
    if signed:
        top = 1 << limbs * _LIMB_BITS
        half = top >> 1
        values = [value - top if value >= half else value
                  for value in values]
    return values


def pack_columns(columns: Dict[str, Sequence[int]]) -> Dict[str, bytes]:
    """Each named int column packed; key order is kept."""
    return {name: pack_ints(values) for name, values in columns.items()}


def unpack_column(field: Any, what: str) -> List[int]:
    """One packed int column, or the v1-v3 int list it replaced."""
    if isinstance(field, list):
        field = pack_ints(field)
    try:
        return unpack_ints(field)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def unpack_columns(field: Any, names: Sequence[str],
                   what: str) -> List[List[int]]:
    """The int columns ``names`` of ``field``, all of one length.

    ``field`` is a v4 mapping of packed columns, or the list of rows
    ``(names[0], names[1], ...)`` a v1-v3 snapshot stored, which is
    packed here first so both forms read through the same checks.
    Problems raise ``ValueError`` naming ``what``.
    """
    if isinstance(field, list):
        field = pack_columns(dict(zip(names, _transpose(field, len(names),
                                                        what))))
    if not isinstance(field, dict):
        raise ValueError(f"{what}: expected packed columns")
    try:
        columns = [unpack_ints(field[name]) for name in names]
    except KeyError as exc:
        raise ValueError(f"{what}: missing column {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError(f"{what}: columns of unequal length")
    return columns


def _transpose(rows: Sequence[Sequence[Any]], width: int,
               what: str) -> List[List[Any]]:
    if any(len(row) != width for row in rows):
        raise ValueError(f"{what}: rows must have {width} fields")
    return [list(column) for column in zip(*rows)] or [[]] * width


def _check_nodes(column: Sequence[int], nodes: Sequence[Any],
                 what: str) -> None:
    if column and not 0 <= min(column) <= max(column) < len(nodes):
        raise ValueError(f"{what}: node index out of range")


class NodeTable:
    """Graph nodes interned to dense indices, in first-seen order.

    ``nodes`` is the table a snapshot stores; it is extended in place,
    so a table wrapped around a restored list grows that list.
    """

    __slots__ = ("nodes", "_index")

    def __init__(self, nodes: Optional[List[Any]] = None) -> None:
        self.nodes: List[Any] = [] if nodes is None else nodes
        self._index: Dict[Any, int] = {
            node: index for index, node in enumerate(self.nodes)}

    def index(self, node: Any) -> int:
        """``node``'s index, appending it to the table if it is new."""
        found = self._index.get(node)
        if found is None:
            found = self._index[node] = len(self.nodes)
            self.nodes.append(node)
        return found


# -- rules -------------------------------------------------------------------


def pack_rules(rules: Sequence[Rule],
               table: Optional[NodeTable] = None) -> Dict[str, Any]:
    """``rules`` (in the given order) as packed columns.

    With a shared ``table`` the node indices point into it; without one
    the result carries its own table under ``"nodes"``.  Each column is
    packed before the next is listed, so one list is alive at a time.
    """
    own = table is None
    if own:
        table = NodeTable()
    index = table.index
    out: Dict[str, Any] = {
        "rid": pack_ints([rule.rid for rule in rules]),
        "lo": pack_ints([rule.lo for rule in rules]),
        "hi": pack_ints([rule.hi for rule in rules]),
        "priority": pack_ints([rule.priority for rule in rules]),
        "source": pack_ints([index(rule.link.source) for rule in rules]),
        "target": pack_ints([index(rule.link.target) for rule in rules]),
        "action": pack_ints([rule.action is Action.DROP for rule in rules]),
    }
    if own:
        out["nodes"] = table.nodes
    return out


def unpack_rules(field: Any,
                 nodes: Optional[List[Any]] = None) -> List[Rule]:
    """The rules of a :func:`pack_rules` field, in stored order.

    ``nodes`` is the shared node table, if the field was packed against
    one.  A v1-v3 list of :meth:`Rule.to_state` tuples is packed first,
    its nodes interned into ``nodes`` (extended in place).
    """
    if nodes is None:
        nodes = field.get("nodes", []) if isinstance(field, dict) else []
    if isinstance(field, list):
        rows = _transpose(field, len(RULE_COLUMNS), "rules")
        table = NodeTable(nodes)
        rows[4] = [table.index(node) for node in rows[4]]
        rows[5] = [table.index(node) for node in rows[5]]
        rows[6] = [action == Action.DROP.value for action in rows[6]]
        field = pack_columns(dict(zip(RULE_COLUMNS, rows)))
    rids, los, his, priorities, sources, targets, actions = unpack_columns(
        field, RULE_COLUMNS, "rules")
    _check_nodes(sources, nodes, "rules")
    _check_nodes(targets, nodes, "rules")
    if actions and not 0 <= min(actions) <= max(actions) <= 1:
        raise ValueError("rules: unknown action code")
    # Equal values share one int object, as rules built from one prefix
    # (or with priority == rid) do, so a restored rule store is no larger
    # than the one that was saved.
    share = {}.setdefault
    out = []
    for rid, lo, hi, priority, source, target, drop in zip(
            map(share, rids, rids), map(share, los, los),
            map(share, his, his), map(share, priorities, priorities),
            sources, targets, actions):
        if drop:
            link = Link(nodes[source], DROP)
        else:
            link = Link(nodes[source], nodes[target])
        out.append(Rule(rid, lo, hi, priority, link, _ACTIONS[drop]))
    return out


# -- labels ------------------------------------------------------------------


def pack_labels(labels: Dict[Link, Any],
                table: NodeTable) -> Dict[str, bytes]:
    """Every non-empty ``link -> AtomRuns`` label as packed columns, in
    ``(source, target)`` node-table order, so equal states pack equal.

    Links are ordered by one int key each (not a tuple of reprs) and
    each link's runs are packed straight from its run arrays, so saving
    allocates little beyond the columns themselves.
    """
    index = table.index
    live = [link for link, runs in labels.items() if runs]
    for link in live:
        index(link.source)
        index(link.target)
    nodes = table.nodes
    count = len(nodes)
    keys = sorted(index(link.source) * count + index(link.target)
                  for link in live)
    del live
    starts: List[List[int]] = []
    ends: List[List[int]] = []
    for key in keys:
        run_starts, run_ends = labels[Link(nodes[key // count],
                                           nodes[key % count])].columns()
        starts.append(run_starts)
        ends.append(run_ends)
    return {
        "source": pack_ints([key // count for key in keys]),
        "target": pack_ints([key % count for key in keys]),
        "runs": pack_ints([len(run_starts) for run_starts in starts]),
        "starts": pack_chunks(starts),
        "ends": pack_chunks(ends),
    }


def unpack_labels(field: Any, nodes: List[Any]
                  ) -> Iterator[Tuple[Link, Iterator[Tuple[int, int]]]]:
    """``(link, runs)`` per stored label, ``runs`` as ``(start, end)``
    pairs; a v1-v3 list of ``(source, target, runs)`` rows is packed
    first, its nodes interned into ``nodes`` (extended in place).  The
    columns are checked before the first label is yielded."""
    if isinstance(field, list):
        table = NodeTable(nodes)
        field = pack_columns({
            "source": [table.index(row[0]) for row in field],
            "target": [table.index(row[1]) for row in field],
            "runs": [len(row[2]) for row in field],
            "starts": [start for row in field for start, _end in row[2]],
            "ends": [end for row in field for _start, end in row[2]]})
    sources, targets, counts = unpack_columns(field, LABEL_COLUMNS, "labels")
    starts, ends = unpack_columns(field, RUN_COLUMNS, "labels")
    _check_nodes(sources, nodes, "labels")
    _check_nodes(targets, nodes, "labels")
    if (counts and min(counts) < 0) or sum(counts) != len(starts):
        raise ValueError("labels: run counts do not cover the runs")
    # Runs of many links start and end at the same atoms: one int each.
    share = {}.setdefault
    starts = list(map(share, starts, starts))
    ends = list(map(share, ends, ends))
    return _labels(sources, targets, counts, starts, ends, nodes)


def _labels(sources: List[int], targets: List[int], counts: List[int],
            starts: List[int], ends: List[int], nodes: List[Any]
            ) -> Iterator[Tuple[Link, Iterator[Tuple[int, int]]]]:
    cut = 0
    for source, target, count in zip(sources, targets, counts):
        yield (Link(nodes[source], nodes[target]),
               zip(starts[cut:cut + count], ends[cut:cut + count]))
        cut += count
