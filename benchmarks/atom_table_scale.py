#!/usr/bin/env python3
"""Cost of a split and of a range query as the boundary map ``M`` grows.

``M`` (:class:`repro.core.atoms.AtomTable`) is blocked sorted lists: a
split shifts one block of at most ``2 * LOAD`` entries, whatever the
number of boundaries K, so its cost must stay nearly flat in K.  This
prints, per K, the cost of one split inside ``create_atoms`` and of one
``atoms_in`` over an eight-atom interval (the table in
docs/performance.md), and exits 1 when a split at the largest K costs
more than ``--max-ratio`` times one at the smallest — a ratio, so the
gate (nightly.yml) does not depend on the machine.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.atoms import AtomTable  # noqa: E402

WIDTH = 64
PAIRS = 1000     # create_atoms calls per timed batch (two splits each)
QUERIES = 20000  # atoms_in calls per timed batch
REPEATS = 5      # batches; the fastest one is reported


def random_span(rng: random.Random):
    lo = rng.randrange(1, (1 << WIDTH) - 1)
    return lo, rng.randrange(lo + 1, 1 << WIDTH)


def grow(table: AtomTable, rng: random.Random, boundaries: int) -> None:
    """Split at random addresses until ``M`` holds ``boundaries`` atoms."""
    while table.num_atoms < boundaries:
        table.create_atoms(*random_span(rng))


def split_us(table: AtomTable, rng: random.Random) -> float:
    """Microseconds per split; each batch is collected again, so every
    batch (and the range measurement after it) sees the same K."""
    best = float("inf")
    for _ in range(REPEATS):
        spans = [random_span(rng) for _ in range(PAIRS)]
        create_atoms = table.create_atoms
        begin = time.perf_counter()
        made = [create_atoms(lo, hi) for lo, hi in spans]
        elapsed = time.perf_counter() - begin
        splits = sum(map(len, made))
        for delta in made:
            for _old, new in delta:
                table.collect(table.atom_interval(new)[0])
        best = min(best, elapsed / splits * 1e6)
    return best


def range_us(table: AtomTable, rng: random.Random) -> float:
    """Microseconds per ``atoms_in`` over eight consecutive atoms."""
    bounds = table.boundaries()
    best = float("inf")
    for _ in range(REPEATS):
        picks = [rng.randrange(len(bounds) - 8) for _ in range(QUERIES)]
        spans = [(bounds[pick], bounds[pick + 8]) for pick in picks]
        atoms_in = table.atoms_in
        begin = time.perf_counter()
        for lo, hi in spans:
            atoms_in(lo, hi)
        best = min(best, (time.perf_counter() - begin) / QUERIES * 1e6)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="30000,100000,300000,1000000",
                        help="comma-separated boundary counts, ascending")
    parser.add_argument("--max-ratio", type=float, default=6.0,
                        help="cap on split cost at the last size over "
                             "the first")
    args = parser.parse_args()
    sizes = [int(size) for size in args.sizes.split(",")]
    rng = random.Random(2017)
    table = AtomTable(width=WIDTH)
    print("| boundaries | split (us) | range (us) |")
    print("| --- | --- | --- |")
    costs = []
    for size in sizes:
        grow(table, rng, size)
        costs.append(split_us(table, rng))
        print(f"| {size} | {costs[-1]:.2f} | {range_us(table, rng):.2f} |",
              flush=True)
    ratio = costs[-1] / costs[0]
    print(f"split cost at {sizes[-1]} / at {sizes[0]} boundaries: "
          f"{ratio:.2f} (cap {args.max_ratio})")
    return 0 if ratio <= args.max_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
