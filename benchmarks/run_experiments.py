#!/usr/bin/env python3
"""Regenerate every paper artifact and write a markdown report.

Runs the full experiment battery (Tables 2-5, Figure 8, Appendix C,
Algorithm 3, plus the repository's ablations) at the configured scale
and writes the markdown report to ``experiment_report.md`` (or the
path given as the first argument).

Usage:  python benchmarks/run_experiments.py [output.md]
        REPRO_BENCH_SCALE=4 python benchmarks/run_experiments.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.analysis.cdf import ascii_cdf
from repro.analysis.memory import deep_size, format_bytes
from repro.analysis.report import ExperimentReport
from repro.analysis.stats import percentile
from repro.checkers.whatif import link_failure_impact

from benchmarks.common import (
    BASELINE_DATASET_NAMES, BENCH_SCALE, DATASET_NAMES, dataset,
    deltanet_replay, insert_only_deltanet, insert_only_veriflow,
    microseconds, veriflow_replay,
)
from repro.datasets.builders import PAPER_TABLE2


def table2(report: ExperimentReport) -> None:
    rows = []
    for name in DATASET_NAMES:
        built = dataset(name)
        paper_nodes, paper_links, paper_ops = PAPER_TABLE2[name]
        rows.append((name, built.num_nodes, paper_nodes, built.num_links,
                     paper_links, built.num_ops, f"{paper_ops:.3g}"))
    report.section("Table 2 — data sets",
                   "Regenerated at laptop scale "
                   f"(REPRO_BENCH_SCALE={BENCH_SCALE}).")
    report.table(("Data set", "Nodes", "paper", "Links", "paper",
                  "Operations", "paper"), rows)


def table3(report: ExperimentReport) -> None:
    rows = []
    all_atoms_below_rules = True
    for name in DATASET_NAMES:
        engine, result = deltanet_replay(name)
        summary = result.summary()
        rules = dataset(name).num_inserts
        all_atoms_below_rules &= engine.num_atoms < rules or rules < 50
        rows.append((name, engine.num_atoms, rules,
                     f"{microseconds(summary['median']):.1f}",
                     f"{microseconds(summary['mean']):.1f}",
                     f"{summary['frac_below_threshold'] * 100:.1f}%"))
    report.section("Table 3 — checking rule insertions and removals",
                   "Per-operation time includes building the delta-graph "
                   "and checking forwarding loops (paper: medians 1-5 us, "
                   "averages 3-41 us in C++ on a 3.47 GHz Xeon).")
    report.table(("Data set", "Atoms", "Rules", "Median us", "Average us",
                  "< 250 us"), rows)
    report.shape_check("atoms << rules on every dataset",
                       all_atoms_below_rules)
    report.end_checks()


def figure8(report: ExperimentReport) -> None:
    series = {name: deltanet_replay(name)[1].times for name in DATASET_NAMES}
    report.section("Figure 8 — CDF of per-operation processing time")
    report.code_block(ascii_cdf(series, unit="seconds/op"))
    p90 = {name: percentile(times, 90) for name, times in series.items()}
    harder = [n for n, v in p90.items() if v > p90["INET"]]
    report.shape_check(
        "INET-style dataset among the heaviest tails", len(harder) <= 3)
    report.end_checks()


def headline(report: ExperimentReport) -> None:
    rows = []
    always_faster = True
    for name in BASELINE_DATASET_NAMES:
        _d, d_result = deltanet_replay(name)
        _v, v_result = veriflow_replay(name)
        d_mean = d_result.summary()["mean"]
        v_mean = v_result.summary()["mean"]
        always_faster &= d_mean < v_mean
        rows.append((name, f"{microseconds(d_mean):.1f}",
                     f"{microseconds(v_mean):.1f}",
                     f"{v_mean / d_mean:.1f}x"))
    report.section("§4.3.1 headline — Delta-net vs Veriflow-RI per update",
                   "Paper: >10x on the large datasets, ~4x on Airtel.")
    report.table(("Data set", "Delta-net us/op", "Veriflow-RI us/op",
                  "speedup"), rows)
    report.shape_check("Delta-net faster on every compared dataset",
                       always_faster)
    report.end_checks()


def table4(report: ExperimentReport) -> None:
    rows = []
    always_faster = True
    for name in BASELINE_DATASET_NAMES:
        deltanet = insert_only_deltanet(name).deltanet
        veriflow = insert_only_veriflow(name).veriflow
        links = list(deltanet.label)
        start = time.perf_counter()
        for link in links:
            link_failure_impact(deltanet, link, check_loops=False)
        delta_avg = (time.perf_counter() - start) / len(links)
        start = time.perf_counter()
        for link in links:
            link_failure_impact(deltanet, link, check_loops=True)
        loops_avg = (time.perf_counter() - start) / len(links)
        start = time.perf_counter()
        for link in links:
            veriflow.whatif_link_failure(link)
        veriflow_avg = (time.perf_counter() - start) / len(links)
        always_faster &= delta_avg < veriflow_avg
        rows.append((name, len(links), f"{veriflow_avg * 1e3:.3f}",
                     f"{delta_avg * 1e3:.3f}", f"{loops_avg * 1e3:.3f}",
                     f"{veriflow_avg / delta_avg:.1f}x"))
    report.section('Table 4 — "what if" link-failure queries',
                   "Average per-query time over all links of the "
                   "insert-only data plane (paper: 10x to several orders "
                   "of magnitude).")
    report.table(("Data plane", "Queries", "Veriflow-RI ms", "Delta-net ms",
                  "+Loops ms", "speedup"), rows)
    report.shape_check("Delta-net faster on every data plane", always_faster)
    report.end_checks()


def table5(report: ExperimentReport) -> None:
    rows = []
    always_smaller = True
    for name in BASELINE_DATASET_NAMES:
        deltanet_bytes = deep_size(insert_only_deltanet(name).deltanet)
        veriflow_bytes = deep_size(insert_only_veriflow(name).veriflow)
        always_smaller &= veriflow_bytes < deltanet_bytes
        rows.append((name, format_bytes(veriflow_bytes),
                     format_bytes(deltanet_bytes),
                     f"{deltanet_bytes / veriflow_bytes:.1f}x"))
    report.section("Table 5 — memory usage",
                   "Deep size of each verifier's state (paper: Delta-net "
                   "5-7x larger than Veriflow-RI).")
    report.table(("Data set", "Veriflow-RI", "Delta-net", "ratio"), rows)
    report.shape_check("Veriflow-RI smaller on every dataset", always_smaller)
    report.end_checks()


def update_latency(report: ExperimentReport) -> None:
    """Repo benchmark: per-update pipeline throughput across engines.

    Also (re)writes the machine-readable ``BENCH_update_latency.json``
    consumed by ``benchmarks/perf_gate.py check`` — the perf-regression
    baseline.
    """
    import json
    import os.path

    from benchmarks import perf_gate

    full_scale = BENCH_SCALE >= 1.0
    sizes = [10000, 50000] if full_scale else [10000]
    document = perf_gate.run_benchmark(sizes)
    baseline_path = perf_gate.DEFAULT_BASELINE
    regressions = []
    if os.path.exists(baseline_path):
        regressions = perf_gate.compare_to_baseline(
            document, baseline_path, tolerance=0.30)
    if full_scale and not regressions:
        # Refresh the committed baseline only from a clean full-matrix
        # run: a reduced-scale pass would drop the 50k entries, and a
        # regressed run must never re-baseline itself past the CI gate
        # (use `perf_gate.py run` explicitly to accept a slowdown).
        with open(baseline_path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        note = f"baseline refreshed at {baseline_path}."
    elif regressions:
        note = (f"REGRESSION vs committed baseline "
                f"({', '.join(regressions)}) — baseline left untouched.")
    else:
        note = ("reduced REPRO_BENCH_SCALE — committed baseline left "
                "untouched.")
    rows = []
    for key, entry in sorted(document["results"].items()):
        rows.append((key, f"{entry['ops_per_sec']:,.0f}",
                     f"{entry['p50_us']:.1f}", f"{entry['p95_us']:.1f}",
                     f"{entry['p99_us']:.1f}", entry["atoms"],
                     f"{entry['peak_rss_kb'] / 1024:.0f}"))
    report.section("Update latency — per-op and batched Delta-net",
                   "Full per-update pipeline (rule op + incremental loop "
                   f"check); {note}")
    report.table(("Engine@rules", "ops/s", "p50 us", "p95 us", "p99 us",
                  "Atoms", "RSS MiB"), rows)
    speedups = document.get("speedups", {})
    for key, ratio in sorted(speedups.items()):
        report.shape_check(
            f"batched Delta-net >= {perf_gate.TARGET_BATCH_SPEEDUP}x "
            f"sequential ({key}: {ratio}x)",
            ratio >= perf_gate.TARGET_BATCH_SPEEDUP)
    report.shape_check("no regression vs committed perf baseline",
                       not regressions)
    report.end_checks()


def check_latency(report: ExperimentReport) -> None:
    """Repo benchmark: per-update verify throughput, index vs sweep.

    Also (re)writes the machine-readable ``BENCH_check_latency.json``
    consumed by ``perf_gate.py check --suite check_latency`` — same
    refresh discipline as :func:`update_latency`: only a clean
    full-scale run may re-baseline.
    """
    import json
    import os.path

    from benchmarks import perf_gate

    full_scale = BENCH_SCALE >= 1.0
    sizes = [10000, 50000] if full_scale else [10000]
    document = perf_gate.run_check_benchmark(sizes)
    baseline_path = perf_gate.CHECK_BASELINE
    regressions = []
    if os.path.exists(baseline_path):
        regressions = perf_gate.compare_check_to_baseline(
            document, baseline_path, tolerance=0.30)
    if full_scale and not regressions:
        with open(baseline_path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        note = f"baseline refreshed at {baseline_path}."
    elif regressions:
        note = (f"REGRESSION vs committed baseline "
                f"({', '.join(regressions)}) — baseline left untouched.")
    else:
        note = ("reduced REPRO_BENCH_SCALE — committed baseline left "
                "untouched.")
    rows = []
    for key, entry in sorted(document["results"].items()):
        rows.append((key, f"{entry['ops_per_sec']:,.0f}",
                     f"{entry['p50_us']:.1f}", f"{entry['p99_us']:.1f}",
                     entry["label_runs"], entry["label_atoms"],
                     f"{entry['label_bytes_runs'] / 1024:.0f}",
                     f"{entry['label_bytes_sets'] / 1024:.0f}"))
    report.section("Check latency — forwarding index vs sweep checker",
                   "Per-update verify pipeline (rule op + loop check of "
                   f"its delta) over a {perf_gate.CHECK_WINDOW}-op window "
                   f"at scale; {note}")
    report.table(("Checker@rules", "ops/s", "p50 us", "p99 us",
                  "Label runs", "Label atoms", "Runs KiB", "Sets KiB"),
                 rows)
    for key, ratio in sorted(document.get("speedups", {}).items()):
        report.shape_check(
            f"indexed checker >= {perf_gate.TARGET_CHECK_SPEEDUP}x sweep "
            f"({key}: {ratio}x)",
            ratio >= perf_gate.TARGET_CHECK_SPEEDUP)
    report.shape_check("no regression vs committed check baseline",
                       not regressions)
    report.end_checks()


def warm_start(report: ExperimentReport) -> None:
    """Repo benchmark: snapshot restore vs replay-from-zero recovery.

    Also (re)writes the machine-readable ``BENCH_warm_start.json``
    consumed by ``perf_gate.py check --suite warm_start`` — same refresh
    discipline as :func:`update_latency`: only a clean full-scale run
    may re-baseline.
    """
    import json
    import os.path

    from benchmarks import perf_gate

    full_scale = BENCH_SCALE >= 1.0
    sizes = [10000, 50000] if full_scale else [10000]
    document = perf_gate.run_warm_benchmark(sizes)
    baseline_path = perf_gate.WARM_BASELINE
    regressions = []
    if os.path.exists(baseline_path):
        regressions = perf_gate.compare_warm_to_baseline(
            document, baseline_path, tolerance=0.30)
    if full_scale and not regressions:
        with open(baseline_path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        note = f"baseline refreshed at {baseline_path}."
    elif regressions:
        note = (f"REGRESSION vs committed baseline "
                f"({', '.join(regressions)}) — baseline left untouched.")
    else:
        note = ("reduced REPRO_BENCH_SCALE — committed baseline left "
                "untouched.")
    rows = []
    for key, entry in sorted(document["results"].items()):
        rows.append((key, f"{entry['seconds']:.3f}",
                     f"{entry['ops_per_sec']:,.0f}", entry["rules"],
                     f"{entry.get('snapshot_bytes', 0) / 1024:,.0f}"))
    report.section("Warm start — snapshot restore vs cold replay",
                   "Recovering a 10k/50k-op session: repro.persist "
                   f"snapshot load vs checked replay from rule zero; {note}")
    report.table(("Recovery@rules", "Seconds", "ops/s", "Rules",
                  "Snapshot KiB"), rows)
    largest = max(sizes)
    ratio = document.get("speedups", {}).get(f"warm-vs-cold@{largest}", 0)
    # The >=5x floor is an acceptance-scale property (see
    # perf_gate.WARM_FLOOR_SIZE); reduced-scale runs only assert that
    # restoring beats replaying at all.
    target = (perf_gate.TARGET_WARM_SPEEDUP
              if largest >= perf_gate.WARM_FLOOR_SIZE else 1.0)
    report.shape_check(
        f"warm start >= {target}x cold replay at "
        f"{largest} rules ({ratio}x)",
        ratio >= target)
    report.shape_check("no regression vs committed warm-start baseline",
                       not regressions)
    report.end_checks()


def appendix_c(report: ExperimentReport) -> None:
    from repro.replay.engine import VeriflowEngine

    engine = VeriflowEngine(check_loops=False)
    counts = []
    for op in dataset("Berkeley").ops:
        if op.is_insert:
            counts.append(engine.veriflow.insert_rule(
                op.rule, check_loops=False).num_ecs)
        else:
            counts.append(engine.veriflow.remove_rule(
                op.rid, check_loops=False).num_ecs)
    report.section("Appendix C — affected ECs per update (Veriflow-RI)",
                   "Paper: single insertions affecting up to 319,681 ECs "
                   "on RF 1755.")
    report.table(("Data set", "Updates", "Median ECs", "p99", "Max"),
                 [("Berkeley", len(counts), int(percentile(counts, 50)),
                   int(percentile(counts, 99)), max(counts))])
    report.shape_check("max affected ECs >> median (heavy tail)",
                       max(counts) >= 5 * max(percentile(counts, 50), 1))
    report.end_checks()


def main(argv) -> int:
    output = argv[1] if len(argv) > 1 else "experiment_report.md"
    report = ExperimentReport(
        "Delta-net reproduction — experiment report "
        f"(scale={BENCH_SCALE})")
    for step in (table2, table3, figure8, headline, table4, table5,
                 appendix_c, update_latency, check_latency, warm_start):
        print(f"running {step.__name__} ...", flush=True)
        step(report)
    report.save(output)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
