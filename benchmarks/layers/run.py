#!/usr/bin/env python3
"""Layer ledger: run one workload (or all), print every metric, check outputs.

    python3 benchmarks/layers/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--scale F] [--runs K] [--json OUT]
    python3 benchmarks/layers/run.py compare A.json B.json

One run of one workload is ``REPLAYS`` replays of the very same work
(set-up, timed phase, untimed oracle); every replay reads each metric off
its own timed phase and the run reports the median of the replays.  With
``--trace 1`` it is instead one untraced reference replay and one traced
replay, and reports the per-layer metrics.  End-to-end numbers always come
from untraced code.

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse             # noqa: E402
import json                 # noqa: E402
import os                   # noqa: E402
import platform             # noqa: E402
import statistics           # noqa: E402
import subprocess           # noqa: E402
import sys                  # noqa: E402
import tempfile             # noqa: E402
from typing import Any, Dict, List, NamedTuple, Optional    # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if __name__ == "__main__":
    # The script directory would put this package's trace.py in front of
    # the standard library's; import it as layers.trace instead.
    sys.path[0] = os.path.dirname(HERE)
    sys.path.insert(1, os.path.join(REPO_ROOT, "src"))

from repro.analysis.stats import percentile                   # noqa: E402

from layers.trace import (                                    # noqa: E402
    LAYERS, Span, Tracer, layer_totals, outermost_time, window,
)
from layers.workloads import (                                # noqa: E402
    DEFAULT_SEED, OUT_DIR, REPLAYS, WORKLOADS, Measured, Plan, plan,
)

#: Imports of the system under test, paid once per process.
IMPORT_S = time.perf_counter() - _STARTED

BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
DEFAULT_SECONDS = 10
#: A tail percentile is only reported with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

#: (name, unit): what a user of the system sees, on every workload.  ``op``
#: is the workload's own operation and ``alt`` its second kind: an update on
#: churn-core and churn-session (no second kind: ``alt`` repeats ``op``), an
#: update and a query round trip on serve-hub, a what-if query on
#: whatif-links (repeated), a checkpoint and a recovery on restart.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("alt_p50_us", "us"),
    ("peak_rss_mb", "MB"),
)

#: The layers beneath the session: the paper's algorithm and its checkers.
CORE_STACK = ("core.deltanet", "core.atoms", "core.findex",
              "checkers.loops", "checkers.whatif")
#: Span names of the hub's writes (the server span is named by verb).
WRITE_SPANS = ("StreamServer.handle_request:insert",
               "StreamServer.handle_request:remove")


def per_layer_catalog() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    catalog = []
    for layer in LAYERS:
        catalog += [(f"{layer}.calls", "count", "lower"),
                    (f"{layer}.self_s", "s", "lower"),
                    (f"{layer}.self_us_per_op", "us", "lower")]
    catalog += [
        ("core.deltanet.rules_end", "count", "lower"),
        ("core.deltanet.atoms_end", "count", "lower"),
        ("core.findex.label_runs_end", "count", "lower"),
        ("core.deltanet.delta_edges_per_op", "count", "lower"),
        ("checkers.loops.loops_reported", "count", "lower"),
        ("api.properties.flows_on_calls_per_op", "count", "lower"),
        ("persist.journal.bytes_per_op", "B", "lower"),
        ("persist.snapshot.bytes", "B", "lower"),
        ("persist.snapshot.save_s", "s", "lower"),
        ("persist.snapshot.load_s", "s", "lower"),
        ("persist.store.replayed_ops", "count", "lower"),
        ("serve.aio.frame_bytes_in_per_op", "B", "lower"),
        ("serve.aio.frame_bytes_out_per_op", "B", "lower"),
        ("serve.aio.queue_wait_us_per_op", "us", "lower"),
        ("serve.aio.transport_us_per_op", "us", "lower"),
        ("integrity.digest.tax_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("ledger.session_over_core", "ratio", "lower"),
        ("ledger.hub_over_session", "ratio", "lower"),
        ("ledger.harness_share", "ratio", "lower"),
    ]
    return catalog


# -- one replay ----------------------------------------------------------------


class Replay(NamedTuple):
    setup_s: float
    measured: Measured
    rss_kb: int
    digest: Optional[str]
    facts: Dict[str, float]
    failures: List[str]
    checks: int
    spans: List[Span]


def replay(name: str, seed: int, sizes: Plan, *, full_check: bool = True,
           tracer: Optional[Tracer] = None, fault: Optional[str] = None,
           digests: bool = True) -> Replay:
    """Set up, measure, read the boundary counts, check, tear down."""
    workload = WORKLOADS[name](traced=tracer is not None, fault=fault)
    if not digests:
        # Digest maintenance is chosen per structure as it is created.
        os.environ["DELTANET_DIGESTS"] = "0"
    started = time.perf_counter()
    try:
        workload.setup(seed, sizes)
    finally:
        if not digests:
            del os.environ["DELTANET_DIGESTS"]
    setup_s = time.perf_counter() - started
    try:
        if tracer is not None:
            tracer.recording = True
        try:
            measured = workload.measure()
        finally:
            if tracer is not None:
                tracer.recording = False
        rss_kb = workload.peak_rss_kb()
        digest = workload.digest()
        facts = workload.facts() if tracer is not None else {}
        # Without digests there is nothing for the oracle to compare.
        verdicts = workload.check(full_check) if digests else []
    finally:
        workload.close()
    spans: List[Span] = []
    if tracer is not None:
        # serve-hub's layers run in the daemon, which hands its spans and
        # counts over as it exits; everyone else's are in this process.
        remote = [Span(*row) for row in workload.daemon_spans]
        spans = (window(remote, measured.start, measured.end)
                 + tracer.finished())
        facts.update(tracer.counters)
        facts.update(workload.daemon_counters)
    return Replay(setup_s, measured, rss_kb, digest, facts,
                  [what for what, held in verdicts if not held],
                  len(verdicts), spans)


# -- statistics ----------------------------------------------------------------


def tail(times: List[float]) -> float:
    """The highest percentile, up to p99, with ten samples beyond it;
    the slowest sample when there are too few for any percentile."""
    if len(times) < 2 * TAIL_SAMPLES_BEYOND:
        return max(times)
    return percentile(times, min(
        99.0, 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / len(times))))


def end_to_end_metrics(name: str,
                       replays: List[Replay]) -> Dict[str, Dict[str, Any]]:
    """The run's metrics: each replay's own reading, and their median.

    A replay's throughput is the operations it had acknowledged over its
    timed wall-clock, and its percentiles are those of its own latencies,
    so whatever the timed phase paid (collector pauses, event-loop and
    executor jitter, the loop around the calls) is in every number.
    """
    workload = WORKLOADS[name]

    def readings(each: Replay) -> Dict[str, tuple]:
        """metric -> (this replay's reading, the samples it rests on)."""
        op = each.measured.samples[workload.op]
        alt = each.measured.samples[workload.alt]
        return {"setup_s": (IMPORT_S + each.setup_s, 1),
                "ops_per_s": (len(op) / each.measured.wall_s, len(op)),
                "op_p50_us": (percentile(op, 50) * 1e6, len(op)),
                "op_tail_us": (tail(op) * 1e6, len(op)),
                "alt_p50_us": (percentile(alt, 50) * 1e6, len(alt)),
                "peak_rss_mb": (each.rss_kb / 1024.0, 1)}

    per_replay = [readings(each) for each in replays]
    metrics = {}
    for metric, unit in END_TO_END:
        values = [reading[metric][0] for reading in per_replay]
        # Peak RSS is the lowest, not the median: the work is the same in
        # every replay, so a higher peak is what the process inherited.
        # In-process the peak only grows, and the lowest is replay 0's,
        # before any oracle ran; each serve-hub replay has its own daemon.
        pick = min if metric == "peak_rss_mb" else statistics.median
        metrics[metric] = {
            "value": pick(values), "unit": unit,
            "samples": per_replay[0][metric][1],
            "replays": len(values), "each": values}
    return metrics


def per_layer_metrics(reference: Replay, traced: Replay,
                      nodigest: Optional[Replay]) -> Dict[str, Dict[str, Any]]:
    spans = traced.spans
    ops = traced.measured.ops
    totals = layer_totals(spans)
    values: Dict[str, float] = {key: 0.0 for key, _u, _b in per_layer_catalog()}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.self_us_per_op"] = entry["self_s"] * 1e6 / ops
    values.update(traced.facts)

    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.end - span.start)
    for key, function in (("save_s", "save_session"),
                          ("load_s", "load_session")):
        if function in durations:
            values[f"persist.snapshot.{key}"] = statistics.median(
                durations[function])
    values["api.properties.flows_on_calls_per_op"] = len(
        durations.get("DeltaNetBackend.flows_on", ())) / ops

    # Hub only: what a write waits between the frame arriving and the
    # session taking it, and what the wire adds around handle_line.
    roots = {span.op: span for span in spans
             if span.name == "AsyncSessionHub.handle_line"}
    waits = [(roots[span.op].end - roots[span.op].start)
             - (span.end - span.start) for span in spans
             if span.name in WRITE_SPANS and span.op in roots]
    if waits:
        values["serve.aio.queue_wait_us_per_op"] = (
            sum(waits) * 1e6 / len(waits))
    accounted = sum(entry["self_s"] for entry in totals.values())
    timed_s = traced.measured.wall_s
    if roots:
        # The controllers overlap: every round trip is somebody's time.
        timed_s = sum(map(sum, traced.measured.samples.values()))
        values["serve.aio.transport_us_per_op"] = (
            timed_s - sum(span.end - span.start for span in roots.values())
        ) * 1e6 / ops
    values["ledger.harness_share"] = 1.0 - accounted / timed_s

    core = outermost_time(spans, CORE_STACK)
    session = outermost_time(spans, ("api.session",))
    if core and session:
        values["ledger.session_over_core"] = session / core
    hub = outermost_time(spans, ("serve.aio",))
    if hub and session:
        values["ledger.hub_over_session"] = hub / session

    def rate(each: Replay) -> float:
        return each.measured.ops / each.measured.wall_s

    values["trace.overhead_share"] = 1.0 - rate(traced) / rate(reference)
    if nodigest is not None:
        values["integrity.digest.tax_share"] = (
            1.0 - rate(reference) / rate(nodigest))
    values["core.deltanet.delta_edges_per_op"] = (
        traced.facts.get("delta_edges", 0) / ops)
    values["checkers.loops.loops_reported"] = traced.facts.get(
        "loops_reported", 0)
    return {key: {"value": values[key], "unit": unit, "samples": ops,
                  "replays": 1}
            for key, unit, _better in per_layer_catalog()}


# -- one run of one workload ---------------------------------------------------


def write_spans(name: str, seed: int, spans: List[Span]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}.json")
    with open(path, "w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "columns": list(Span._fields), "spans": spans}, handle)
    return path


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = DEFAULT_SECONDS, scale: float = 1.0,
                 traced: bool = False,
                 fault: Optional[str] = None) -> Dict[str, Any]:
    """One run: its metrics, verdict and sizes, as a plain dict."""
    sizes = plan(name, seconds, scale)
    for _ in range(WORKLOADS[name].warmups):
        replay(name, seed, sizes, full_check=False)
    if not traced:
        replays = [replay(name, seed, sizes, full_check=number == 0,
                          fault=fault) for number in range(REPLAYS)]
        metrics = end_to_end_metrics(name, replays)
    else:
        reference = replay(name, seed, sizes, fault=fault)
        tracer = Tracer()
        tracer.install()
        try:
            traced_replay = replay(name, seed, sizes, full_check=False,
                                   tracer=tracer, fault=fault)
        finally:
            tracer.uninstall()
        replays = [reference, traced_replay]
        nodigest = None
        if name == "churn-core":
            nodigest = replay(name, seed, sizes, digests=False)
        metrics = per_layer_metrics(reference, traced_replay, nodigest)
        write_spans(name, seed, traced_replay.spans)
    failures = [message for each in replays for message in each.failures]
    # The replays ran the same work: as many operations, to the same state.
    failures += [f"replay {number} did not repeat replay 0"
                 for number, each in enumerate(replays)
                 if (each.digest, each.measured.ops)
                 != (replays[0].digest, replays[0].measured.ops)]
    attempted = sum(each.measured.ops + each.checks + 1 for each in replays)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "trace": int(traced), "sizes": sizes._asdict(),
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "metrics": metrics,
    }


def report(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit and sample count."""
    sizes = ", ".join(f"{k}={v}" for k, v in result["sizes"].items())
    print(f"== {result['workload']}  seed={result['seed']} "
          f"trace={result['trace']}  ({sizes})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.4f} {metric['unit']:<6}"
              f" n={metric['replays']}x{metric['samples']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<42} {share:>16.4f} {'ratio':<6}"
          f" n={result['attempted']}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def contract_line(result: Dict[str, Any]) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()}})


# -- documents, the all-workloads mode and compare -----------------------------


def calibration_score() -> float:
    """Machine-speed probe: iterations/second of a fixed Python loop."""
    def one_round() -> float:
        total, value = 0, 0x9E3779B9
        start = time.perf_counter()
        for index in range(400_000):
            value = (value * 0x5DEECE66D + index) & 0xFFFFFFFFFFFF
            total += value >> 24
        return 400_000 / (time.perf_counter() - start)

    return max(one_round() for _ in range(3))


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def document(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``--json`` file: environment, every run, and the summary."""
    by_workload: Dict[str, Dict[str, Any]] = {}
    for result in results:
        entry = by_workload.setdefault(
            result["workload"], {"sizes": result["sizes"], "runs": []})
        entry["runs"].append({key: result[key] for key in (
            "seed", "trace", "correct", "attempted", "failed", "failures",
            "metrics")})
    return {
        "schema": 1,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "seed": results[0]["seed"],
            "seconds": results[0]["seconds"],
            "scale": results[0]["scale"],
            "replays": REPLAYS,
            "transport": "loopback TCP, stores in a tmpdir",
            "calibration_score": round(calibration_score(), 1),
        },
        "workloads": by_workload,
        "summary": {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "claim": None,
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess, for a clean RSS reading."""
    results = []
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in WORKLOADS:
        jobs = [(args.seed + index, 0) for index in range(args.runs)]
        if args.trace:
            jobs.append((args.seed, 1))
        for seed, trace in jobs:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
                out = os.path.join(scratch, "run.json")
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", str(args.scale), "--json", out]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True)
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if not os.path.exists(out):
                    print(f"{name}: run failed without a result",
                          file=sys.stderr)
                    return 1
                with open(out) as handle:
                    child = json.load(handle)
            for run in child["workloads"][name]["runs"]:
                results.append({
                    "workload": name, "seconds": args.seconds,
                    "scale": args.scale, "sizes":
                    child["workloads"][name]["sizes"], **run})
    final = document(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(final, handle, indent=1)
    print(json.dumps(final["summary"]))
    return 0 if final["summary"]["correct"] else 1


def _spread(values: List[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _failed_share(entry: Dict[str, Any]) -> float:
    """Failed over attempted across an entry's runs, traced ones too; a
    run that is not ``correct`` has failed at least once."""
    runs = entry["runs"]
    failed = sum(max(run["failed"], not run["correct"]) for run in runs)
    return failed / sum(run["attempted"] for run in runs)


def compare(path_a: str, path_b: str, echo=print) -> int:
    """B against A under the bounds in BENCHMARK.json; 1 on a regression.

    ``failed_share`` has the bound ISSUE 11 gives it, +0 absolute: B
    regresses on a workload as soon as it fails more than A does there.
    """
    with open(BENCHMARK_JSON) as handle:
        bounds = {metric["name"]: metric
                  for metric in json.load(handle)["end_to_end"]}
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    regressed = 0
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            continue
        share_a, share_b = _failed_share(entry_a), _failed_share(entry_b)
        status = "regressed" if share_b > share_a else "ok"
        regressed += status == "regressed"
        echo(f"{name:<14} {'failed_share':<12} {status:<10} "
             f"A={share_a:.6f} B={share_b:.6f} ratio bound=+0")
        for metric, spec in bounds.items():
            def series(entry: Dict[str, Any]) -> List[float]:
                return [run["metrics"][metric]["value"]
                        for run in entry["runs"]
                        if not run["trace"] and metric in run["metrics"]]

            a, b = series(entry_a), series(entry_b)
            if not a or not b:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            base = statistics.median(a)
            worse = sign * (statistics.median(b) - base) / base
            spread = max(_spread(a), _spread(b))
            every_run_better = (max(b) < min(a) if sign > 0
                                else min(b) > max(a))
            if spread > spec["bound"] and not every_run_better:
                status = "unresolved"
            elif worse > spec["bound"]:
                status = "regressed"
                regressed += 1
            else:
                status = "ok"
            echo(f"{name:<14} {metric:<12} {status:<10} "
                 f"A={base:.4f} B={statistics.median(b):.4f} "
                 f"{spec['unit']:<4} worse={worse:+.1%} "
                 f"spread={spread:.1%} bound={spec['bound']:.0%} "
                 f"n={len(a)}/{len(b)}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed work, as the reference "
                             "box runs it (sizes the run; default "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run with per-layer metrics "
                             "(with --workload all: also run it)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size (the smoke test uses 0.02)")
    parser.add_argument("--runs", type=int, default=1,
                        help="--workload all: end-to-end runs per "
                             "workload, on seeds seed, seed+1, ...")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="also write the full result document here")
    parser.add_argument("--fault", choices=("drop-op", "bad-reply"),
                        default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.scale,
                          traced=bool(args.trace), fault=args.fault)
    report(result)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document([result]), handle, indent=1)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
