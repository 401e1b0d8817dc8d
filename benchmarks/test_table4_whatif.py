"""Experiment E4 — Table 4: "what if" link-failure queries.

For a consistent data plane built from each dataset's insertions, answer
for every link: which packets and parts of the network are affected if
this link fails?  Delta-net reads its label map plus ``owner[atom]`` of
the affected atoms; Veriflow-RI must recompute equivalence classes and
build a forwarding graph per EC.

Shape targets (Table 4), asserted on counted work, never on a clock:
  * Delta-net does less work per dataset than Veriflow-RI: its owner
    reads (Σ |owner[a]| over every query's affected atoms) stay below
    Veriflow-RI's forwarding-graph builds × switches (paper: 10x to
    several orders of magnitude in time),
  * the loop check is all of Delta-net's chasing (the paper's "+Loops"
    column vs the plain query): the loop query makes ``next_hop`` calls,
    the plain query none.

The report keeps the wall-clock columns for reading.
"""

import time

import pytest

from repro.analysis.tables import render_table
from repro.checkers.whatif import link_failure_impact

from benchmarks.common import (
    BASELINE_DATASET_NAMES, dataset, insert_only_deltanet,
    insert_only_veriflow, print_report,
)

_RESULTS = {}


def _count(obj, name, weigh=lambda result: 1):
    """Shadow the bound method ``obj.name`` with one that tallies
    ``weigh(result)`` per call; ``del obj.<name>`` restores it."""
    method = getattr(obj, name)
    tally = [0]

    def counted(*args):
        result = method(*args)
        tally[0] += weigh(result)
        return result

    setattr(obj, name, counted)
    return tally


def _timed(queries):
    start = time.perf_counter()
    for query in queries:
        query()
    return (time.perf_counter() - start) / max(len(queries), 1)


def _run_queries(name):
    if name in _RESULTS:
        return _RESULTS[name]
    deltanet = insert_only_deltanet(name).deltanet
    veriflow = insert_only_veriflow(name).veriflow  # the VeriflowRI instance
    links = list(deltanet.label)

    def queries(check_loops):
        return [lambda link=link: link_failure_impact(
            deltanet, link, check_loops=check_loops) for link in links]

    owner_reads = _count(deltanet, "atom_links", len)
    hops = _count(deltanet, "next_hop")
    try:
        delta_plain = _timed(queries(False))
        plain_reads, plain_hops = owner_reads[0], hops[0]
        delta_loops = _timed(queries(True))
        loop_hops = hops[0] - plain_hops
    finally:
        del deltanet.atom_links, deltanet.next_hop

    builds = _count(veriflow, "_forwarding_graph")
    try:
        veriflow_avg = _timed([lambda link=link: veriflow.whatif_link_failure(
            link) for link in links])
    finally:
        del veriflow._forwarding_graph

    _RESULTS[name] = {
        "queries": len(links), "veriflow_avg": veriflow_avg,
        "delta_plain": delta_plain, "delta_loops": delta_loops,
        "owner_reads": plain_reads, "plain_hops": plain_hops,
        "loop_hops": loop_hops,
        "graph_work": builds[0] * len(veriflow.switches),
    }
    return _RESULTS[name]


def test_table4_report():
    rows = []
    for name in BASELINE_DATASET_NAMES:
        run = _run_queries(name)
        rows.append((
            name,
            dataset(name).num_inserts,
            run["queries"],
            f"{run['veriflow_avg'] * 1e3:.3f}",
            f"{run['delta_plain'] * 1e3:.3f}",
            f"{run['delta_loops'] * 1e3:.3f}",
            f"{run['veriflow_avg'] / max(run['delta_plain'], 1e-12):.1f}x",
            run["owner_reads"],
            run["graph_work"],
        ))
    print_report(render_table(
        ("Data plane", "Rules", "Queries", "Veriflow-RI ms",
         "Delta-net ms", "+Loops ms", "speedup", "owner reads",
         "EC graphs x switches"),
        rows,
        title="Table 4 — what-if link-failure queries (average per query)"))
    assert rows


@pytest.mark.parametrize("name", BASELINE_DATASET_NAMES)
def test_deltanet_beats_veriflow(name):
    run = _run_queries(name)
    assert run["owner_reads"] < run["graph_work"], (
        f"{name}: Delta-net read {run['owner_reads']} owners, no fewer "
        f"than Veriflow-RI's {run['graph_work']} forwarding-graph "
        f"builds x switches")


@pytest.mark.parametrize("name", BASELINE_DATASET_NAMES)
def test_loop_check_dominates_deltanet_query(name):
    """Paper: "Delta-net's processing time is dominated by the property
    check" — every hop a +Loops query takes is the check's: the plain
    query reads owners but chases nothing."""
    run = _run_queries(name)
    assert run["plain_hops"] == 0
    assert run["loop_hops"] > 0


@pytest.mark.parametrize("name", ["Airtel1"])
def test_benchmark_whatif_sweep(benchmark, name):
    deltanet = insert_only_deltanet(name).deltanet
    links = list(deltanet.label)

    def sweep():
        return [link_failure_impact(deltanet, link) for link in links]

    impacts = benchmark(sweep)
    assert len(impacts) == len(links)
