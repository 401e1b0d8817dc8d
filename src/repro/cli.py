"""Command-line interface: generate datasets, replay them, run queries.

Engines are resolved through the backend registry
(:func:`repro.api.available_backends`), so every registered verifier —
including ones registered by downstream code — is replayable by name.

Examples::

    deltanet backends
    deltanet generate Berkeley --scale 2 -o berkeley.ops
    deltanet replay berkeley.ops --engine deltanet
    deltanet replay berkeley.ops --engine deltanet-gc
    deltanet replay berkeley.ops --checkpoint state/ --resume
    deltanet replay berkeley.ops --diff-oracle
    deltanet serve --store state/ --listen 127.0.0.1:9900
    deltanet whatif Berkeley --scale 1
    deltanet datasets
    deltanet scenario list
    deltanet scenario run link-flaps --seed 7 --backends deltanet
    deltanet fuzz --budget 200
    deltanet fuzz --budget 50 --chaos --backends deltanet
    deltanet fuzz --replay artifacts/repro-link-flaps-seed99.repro
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis.cdf import ascii_cdf
from repro.analysis.memory import deep_size, format_bytes
from repro.analysis.tables import render_table
from repro.api import (
    LinkDown, Loops, UnknownBackendError, available_backends,
    backend_description,
)
from repro.datasets import (
    DATASET_BUILDERS, PAPER_TABLE2, build_dataset, load_ops, save_ops,
)
from repro.replay import (
    ReplayResult, SessionEngine, engine_names, make_engine, replay,
)
from repro.scenarios import ScenarioError

#: Exceptions `main` turns into a message + exit 2 (no bare tracebacks).
_READABLE_ERRORS = (ScenarioError, UnknownBackendError)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name, (nodes, links, ops) in PAPER_TABLE2.items():
        rows.append((name, nodes, links, f"{ops:.3g}"))
    print(render_table(("Data set", "Paper nodes", "Paper max links",
                        "Paper operations"), rows,
                       title="Table 2 datasets (paper scale; use `generate`)"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = build_dataset(args.dataset, scale=args.scale)
    count = save_ops(dataset.ops, args.output)
    print(f"{dataset.name}: wrote {count} operations to {args.output}")
    print(f"  nodes={dataset.num_nodes} links={dataset.num_links} "
          f"inserts={dataset.num_inserts}")
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    rows = [(name, backend_description(name))
            for name in available_backends()]
    rows.append(("deltanet-gc", "Delta-net with atom garbage collection "
                 "(§3.2.2 remark)"))
    print(render_table(("Backend", "Description"), sorted(rows),
                       title="Registered verification backends "
                             "(`replay --engine <name>`)"))
    return 0


def _replay_diff_oracle(args: argparse.Namespace, ops) -> int:
    """Replay vs. the sweep oracle: readable diff + exit 1 on mismatch."""
    from repro.scenarios import (
        PropertySpec, Scenario, diff_streams, replay_signatures, SweepOracle,
    )

    engine, options = args.engine, {}
    if engine == "deltanet-gc":
        engine, options = "deltanet", {"gc": True}
    scenario = Scenario(
        family="opsfile", name=args.opsfile, seed=0, scale=1.0,
        topology=None, ops=list(ops),
        property_specs=[PropertySpec.of("loops")])
    scenario.validate()
    oracle = SweepOracle(scenario.property_specs, width=scenario.width)
    oracle_stream = oracle.stream(scenario.ops)
    run = replay_signatures(scenario, engine, **options)
    if run.error is not None:
        print(f"{args.engine}: backend error during replay: {run.error}",
              file=sys.stderr)
        return 1
    divergences = diff_streams(engine, scenario.ops, oracle_stream,
                               run.delivered)
    oracle_total = sum(len(batch) for batch in oracle_stream)
    print(f"{args.engine} vs sweep oracle: {len(ops)} ops, "
          f"{oracle_total} oracle violations, "
          f"{run.num_violations} backend violations")
    if not divergences:
        print("OK: the backend's alert stream matches the oracle")
        return 0
    for divergence in divergences:
        print(divergence.describe())
    print("FAIL: backend/oracle disagreement (see diff above)",
          file=sys.stderr)
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    import os

    ops = load_ops(args.opsfile)
    if (args.resume or args.stop_after) and not args.checkpoint:
        print("--resume/--stop-after require --checkpoint DIR",
              file=sys.stderr)
        return 2
    if args.diff_oracle:
        incompatible = [flag for flag, value in (
            ("--batch", args.batch), ("--checkpoint", args.checkpoint),
            ("--resume", args.resume), ("--no-check", args.no_check),
            ("--stop-after", args.stop_after)) if value]
        if incompatible:
            print(f"--diff-oracle is incompatible with "
                  f"{', '.join(incompatible)} (it re-checks every single "
                  f"op against the sweep oracle)", file=sys.stderr)
            return 2
        return _replay_diff_oracle(args, ops)
    if args.resume:
        engine, info = SessionEngine.resume(
            args.checkpoint, check_loops=not args.no_check,
            checkpoint_every=args.checkpoint_every)
        if engine.backend_name != args.engine.replace("-gc", ""):
            print(f"note: checkpoint was written by backend "
                  f"{engine.backend_name!r}; resuming with it")
        skip = engine.session.sequence
        if skip > len(ops):
            print(f"checkpoint sequence {skip} exceeds the ops file "
                  f"({len(ops)} ops); wrong --checkpoint dir?",
                  file=sys.stderr)
            engine.close()
            return 2
        print(f"resumed at sequence {skip} "
              f"(snapshot {info.snapshot_sequence} + {info.replayed} "
              f"journaled ops{', torn tail truncated' if info.torn_tail else ''})")
        ops = ops[skip:]
    else:
        if args.checkpoint:
            from repro.persist import SessionStore

            if SessionStore(args.checkpoint).exists():
                print(f"{args.checkpoint!r} already holds a recoverable "
                      f"checkpoint; pass --resume to continue it, or "
                      f"remove the directory to start over",
                      file=sys.stderr)
                return 2
        engine = make_engine(args.engine, check_loops=not args.no_check,
                             checkpoint_dir=args.checkpoint,
                             checkpoint_every=args.checkpoint_every)
    crashed = False
    if args.stop_after is not None and args.stop_after < len(ops):
        ops = ops[:args.stop_after]
        crashed = True
    try:
        result = replay(ops, engine, engine_name=args.engine,
                        batch_size=args.batch)
        micro = 1e6
        mode = f" (batch={args.batch})" if args.batch else ""
        print(f"{args.engine}{mode}: {result.num_ops} ops, "
              f"{result.loops_found} loops found")
        if result.times:
            summary = result.summary()
            print(f"  median={summary['median'] * micro:.1f}us "
                  f"mean={summary['mean'] * micro:.1f}us "
                  f"p99={summary['p99'] * micro:.1f}us "
                  f"max={summary['max'] * micro:.1f}us "
                  f"total={summary['total']:.3f}s "
                  f"throughput={result.num_ops / max(summary['total'], 1e-12):,.0f} ops/s")
        if args.checkpoint:
            print(f"  sequence={engine.session.sequence} "
                  f"cumulative_violations={len(engine.session.violations())}")
        if args.cdf:
            print(ascii_cdf({args.engine: result.times}))
        if engine.num_atoms is not None:
            print(f"  atoms={engine.num_atoms} "
                  f"state={format_bytes(deep_size(engine.session.native))}")
        if crashed:
            # Simulated crash: exit without the final checkpoint or any
            # engine/store teardown, exactly like a kill -9.  Recovery
            # must come from the last checkpoint + journal tail.
            print(f"  simulated crash after {result.num_ops} ops "
                  f"(no final checkpoint; resume with --resume)")
            sys.stdout.flush()
            os._exit(0)
    finally:
        if not crashed:
            engine.close()
    return 0


def _build_data_plane(name: str, scale: float) -> SessionEngine:
    dataset = build_dataset(name, scale=scale)
    engine = make_engine("deltanet", check_loops=False)
    for op in dataset.ops:
        if op.is_insert:
            engine.process(op)
    return engine


def _cmd_allpairs(args: argparse.Namespace) -> int:
    from repro.checkers.allpairs import (
        all_pairs_reachability, loops_from_closure,
    )

    engine = _build_data_plane(args.dataset, args.scale)
    deltanet = engine.session.native
    start = time.perf_counter()
    closure = all_pairs_reachability(deltanet)
    elapsed = time.perf_counter() - start
    looping = loops_from_closure(closure)
    print(f"{args.dataset}: Algorithm 3 over {len(deltanet.nodes)} nodes / "
          f"{deltanet.num_atoms} atoms in {elapsed:.3f}s")
    print(f"  reachable (src, dst) pairs: {len(closure)}")
    print(f"  nodes on forwarding loops: {len(looping)}")
    return 0


def _cmd_blackholes(args: argparse.Namespace) -> int:
    from repro.checkers.blackholes import find_blackholes

    engine = _build_data_plane(args.dataset, args.scale)
    holes = find_blackholes(engine.session.native)
    print(f"{args.dataset}: {len(holes)} node(s) black-hole traffic")
    for node, atoms in sorted(holes.items(), key=lambda kv: repr(kv[0]))[:20]:
        print(f"  {node}: {len(atoms)} packet classes")
    if not holes:
        print("  (none — every delivered packet is forwarded, dropped "
              "explicitly, or terminates at a sink)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import runpy
    import os
    import sys as _sys

    script = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "..", "benchmarks", "run_experiments.py")
    script = os.path.normpath(script)
    if not os.path.exists(script):
        print("benchmarks/run_experiments.py not found; run from a source "
              "checkout", file=sys.stderr)
        return 1
    argv_backup = _sys.argv
    _sys.argv = [script, args.output]
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    finally:
        _sys.argv = argv_backup
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    dataset = build_dataset(args.dataset, scale=args.scale)
    engine = make_engine("deltanet", check_loops=False)
    for op in dataset.ops:
        if op.is_insert:
            engine.process(op)
    session = engine.session
    links = sorted(session.links(), key=repr)
    if args.speculate:
        return _whatif_speculate(session, dataset, links, args)
    start = time.perf_counter()
    total_classes = 0
    for link in links:
        result = session.query(LinkDown(link, loops=args.loops))
        total_classes += len(result.atoms or ())
    elapsed = time.perf_counter() - start
    print(f"{dataset.name}: {len(links)} link-failure queries in "
          f"{elapsed:.3f}s ({elapsed / max(1, len(links)) * 1e3:.2f} ms avg), "
          f"{total_classes} affected packet classes total")
    return 0


def _whatif_speculate(session, dataset, links, args: argparse.Namespace) -> int:
    """Speculative what-if: fork a copy-on-write child per link, remove
    the link's rules in the child, check loops there, and discard — the
    base session is never touched.
    """
    by_link = {}
    for op in dataset.ops:
        if op.is_insert and op.rule.target is not None:
            by_link.setdefault((op.rule.source, op.rule.target),
                               []).append(op.rule.rid)
    live = set(session.rules())
    start = time.perf_counter()
    loops_total = 0
    for link in links:
        child = session.speculate()
        try:
            rids = [rid for rid in by_link.get(link, ()) if rid in live]
            if rids:
                child.apply_batch([], rids)
            loops_total += len(child.query(Loops()).violations)
        finally:
            child.discard()
    elapsed = time.perf_counter() - start
    print(f"{dataset.name}: {len(links)} speculative link-removal forks "
          f"in {elapsed:.3f}s "
          f"({elapsed / max(1, len(links)) * 1e3:.2f} ms avg), "
          f"{loops_total} loops found across candidates "
          f"(base session untouched at seq {session.sequence})")
    return 0


def _split_backends(text: str) -> List[str]:
    from repro.api import backend_factory

    if text == "all":
        return list(available_backends())
    names = [name for name in text.split(",") if name]
    for name in names:
        backend_factory(name)  # readable UnknownBackendError on typos
    return names


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        build_scenario, family_info, run_scenario, scenario_families,
    )

    if args.action == "list":
        rows = []
        for name in scenario_families():
            family = family_info(name)
            rows.append((name, family.description, family.knobs))
        print(render_table(("Family", "Description", "Seed/scale knobs"),
                           rows, title="Scenario families "
                                       "(`scenario run <family>`)"))
        return 0

    backends = _split_backends(args.backends)
    # The family builders generate 32-bit prefixes; width is not a
    # user knob here.
    scenario = build_scenario(args.family, seed=args.seed,
                              scale=args.scale)
    print(scenario.describe())
    for aspect, note in sorted(scenario.expectations.items()):
        print(f"  expect[{aspect}]: {note}")
    if args.save:
        count = save_ops(scenario.ops, args.save)
        print(f"wrote {count} ops to {args.save}")
    report = run_scenario(scenario, backends)
    print(report.describe())
    if report.ok:
        print(f"OK: {len(backends)} backend(s) agree with the sweep "
              f"oracle on all {scenario.num_ops} updates")
        return 0
    # A divergence is the whole point of this command existing: report
    # it readably (the describe() above already printed the diff) and
    # leave a minimized repro behind instead of a traceback.
    if args.artifacts:
        from repro.fuzz import minimize_failure, save_failure_artifacts

        failure = minimize_failure(scenario, report,
                                   max_probes=args.shrink_probes)
        save_failure_artifacts(failure, report, backends, args.artifacts)
        print(f"minimized repro ({len(failure.shrunk_ops)} ops): "
              f"{failure.repro_path} (text twin: {failure.ops_path})")
    print("FAIL: backend/oracle disagreement (see diff above)",
          file=sys.stderr)
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import fuzz, replay_repro

    if args.chaos and args.corrupt:
        print("--chaos (process faults) and --corrupt (state corruption) "
              "are separate campaigns; pick one", file=sys.stderr)
        return 2
    if args.speculate and (args.chaos or args.corrupt):
        print("--speculate replays fault-free traces through speculative "
              "forks; it is incompatible with --chaos/--corrupt",
              file=sys.stderr)
        return 2
    if args.replay and (args.chaos or args.corrupt or args.speculate):
        print("--replay re-runs a saved repro fault-free; it is "
              "incompatible with --chaos/--corrupt/--speculate",
              file=sys.stderr)
        return 2
    if args.replay:
        # Without --backends, replay what the file recorded; an
        # explicit --backends (including 'all') overrides it.
        backends = (_split_backends(args.backends)
                    if args.backends is not None else None)
        report = replay_repro(args.replay, backends=backends)
        print(report.describe())
        if report.ok:
            print("OK: the saved repro no longer diverges")
            return 0
        print("FAIL: the saved repro still diverges (see diff above)",
              file=sys.stderr)
        return 1
    backends = _split_backends(args.backends or "all")
    families = ([name for name in args.families.split(",") if name]
                if args.families else None)
    report = fuzz(args.budget, seed=args.seed, backends=backends,
                  families=families, artifacts_dir=args.artifacts,
                  time_budget=args.time_budget,
                  shrink_probes=args.shrink_probes,
                  chaos=args.chaos, chaos_faults=args.chaos_faults,
                  corrupt=args.corrupt, speculate=args.speculate,
                  log=None if args.quiet else print)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        DrainRequested, StreamServer, install_sigterm_drain, serve_socket,
        serve_stdio,
    )

    engine = args.engine
    options = {}
    if engine == "deltanet-gc":
        engine, options = "deltanet", {"gc": True}
    properties = tuple(name for name in args.properties.split(",") if name)
    log = lambda line: print(f"# {line}", file=sys.stderr, flush=True)
    if args.multi:
        return _serve_multi(args, engine, properties, options, log)
    server = StreamServer(
        args.store, engine=engine, width=args.width,
        checkpoint_every=args.checkpoint_every,
        checkpoint_interval=args.checkpoint_interval,
        properties=properties,
        request_timeout=args.request_timeout,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        max_line_bytes=args.max_line_bytes,
        scrub_interval=args.scrub_interval,
        scrub_budget=args.scrub_budget,
        log=log,
        **options)
    install_sigterm_drain(server)
    try:
        if args.listen:
            host, _sep, port = args.listen.rpartition(":")
            serve_socket(server, host or "127.0.0.1", int(port),
                         ready=lambda h, p: print(f"# listening on {h}:{p}",
                                                  file=sys.stderr,
                                                  flush=True))
        else:
            serve_stdio(server, sys.stdin, sys.stdout)
    except DrainRequested:
        # SIGTERM mid-wait: fall through to the same final-checkpoint
        # close() a protocol `shutdown` takes.
        log("SIGTERM: draining, writing final checkpoint")
    finally:
        server.close()
    return 0


def _serve_multi(args: argparse.Namespace, engine: str, properties, options,
                 log) -> int:
    """Multi-tenant mode: --store is a sessions root served by the hub."""
    import asyncio

    from repro.serve import (
        AsyncSessionHub, DrainRequested, SessionManager, install_sigterm_drain,
        serve_hub_stdio, serve_hub_tcp,
    )

    defaults = dict(
        engine=engine, width=args.width,
        checkpoint_every=args.checkpoint_every,
        checkpoint_interval=args.checkpoint_interval,
        properties=properties,
        request_timeout=args.request_timeout,
        max_queue=args.max_queue,
        retry_after=args.retry_after,
        max_line_bytes=args.max_line_bytes,
        scrub_interval=args.scrub_interval,
        scrub_budget=args.scrub_budget,
        **options)
    manager = SessionManager(args.store, log=log, defaults=defaults)
    hub = AsyncSessionHub(manager, retry_after=args.retry_after,
                          max_line_bytes=args.max_line_bytes, log=log)

    def boot() -> None:
        for name in (n for n in (args.open or "").split(",") if n):
            manager.open(name)
            log(f"pre-opened session {name!r}")

    if args.listen:
        host, _sep, port = args.listen.rpartition(":")

        async def main() -> None:
            boot()
            await serve_hub_tcp(
                hub, host or "127.0.0.1", int(port),
                ready=lambda h, p: print(f"# listening on {h}:{p}",
                                         file=sys.stderr, flush=True),
                install_signals=True)

        asyncio.run(main())
        return 0

    # stdio compatibility mode: the main thread blocks on readline, so
    # SIGTERM can break the read with DrainRequested like single mode.
    class _DrainShim:
        draining = False
        _busy = False

        def request_drain(self) -> None:
            self.draining = True
            hub.request_stop()

    install_sigterm_drain(_DrainShim())
    boot()
    try:
        serve_hub_stdio(hub, sys.stdin, sys.stdout)
    except DrainRequested:
        log("SIGTERM: draining, writing final checkpoints")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltanet",
        description="Delta-net (NSDI'17) reproduction: datasets, replay, queries")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table 2 datasets")

    sub.add_parser("backends", help="list the registered verifier backends")

    generate = sub.add_parser("generate", help="generate a dataset ops file")
    generate.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--scale", type=float, default=1.0)

    replay_cmd = sub.add_parser("replay", help="replay an ops file")
    replay_cmd.add_argument("opsfile")
    replay_cmd.add_argument("--engine", default="deltanet",
                            choices=engine_names(),
                            help="verification backend (see `deltanet backends`)")
    replay_cmd.add_argument("--no-check", action="store_true",
                            help="skip per-update loop checking")
    replay_cmd.add_argument("--batch", type=_positive_int, default=None,
                            metavar="N",
                            help="apply ops in aggregated batches of up to "
                                 "N (amortizes update + check costs)")
    replay_cmd.add_argument("--cdf", action="store_true",
                            help="print an ASCII CDF of per-op times")
    replay_cmd.add_argument("--checkpoint", metavar="DIR", default=None,
                            help="journal ops and snapshot every "
                                 "--checkpoint-every ops into DIR "
                                 "(see docs/operations.md)")
    replay_cmd.add_argument("--checkpoint-every", type=_positive_int,
                            default=1000, metavar="N",
                            help="snapshot cadence in ops (default 1000)")
    replay_cmd.add_argument("--resume", action="store_true",
                            help="recover from --checkpoint DIR and "
                                 "continue the ops file from the "
                                 "recovered sequence")
    replay_cmd.add_argument("--stop-after", type=_positive_int, default=None,
                            metavar="N",
                            help="simulate a crash: hard-exit after N ops "
                                 "without a final checkpoint")
    replay_cmd.add_argument("--diff-oracle", action="store_true",
                            help="diff the engine's per-op loop alerts "
                                 "against the sweep oracle; exit 1 with a "
                                 "readable diff on disagreement")

    scenario = sub.add_parser(
        "scenario", help="build and differentially run scenario traces")
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_sub.add_parser("list", help="catalogue the scenario families")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario through backend(s) + the sweep oracle")
    scenario_run.add_argument("family",
                              help="scenario family (see `scenario list`)")
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument("--scale", type=float, default=1.0)
    scenario_run.add_argument("--backends", default="deltanet",
                              metavar="A,B|all",
                              help="comma-separated backends, or 'all' "
                                   "(default: deltanet)")
    scenario_run.add_argument("--save", metavar="FILE", default=None,
                              help="also write the trace as a replayable "
                                   ".ops text file")
    scenario_run.add_argument("--artifacts", metavar="DIR", default=None,
                              help="on divergence, write a minimized repro "
                                   "file + .ops twin into DIR")
    scenario_run.add_argument("--shrink-probes", type=_positive_int,
                              default=150, metavar="N",
                              help="shrinker replay budget (default 150)")

    fuzz_cmd = sub.add_parser(
        "fuzz", help="differential fuzzer: random scenarios through every "
                     "backend vs the sweep oracle")
    fuzz_cmd.add_argument("--budget", type=_positive_int, default=100,
                          metavar="N",
                          help="number of random traces (default 100)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default 0)")
    fuzz_cmd.add_argument("--backends", default=None, metavar="A,B|all",
                          help="comma-separated backends, or 'all' for "
                               "every registered one (campaign default: "
                               "all; --replay default: the file's "
                               "recorded list)")
    fuzz_cmd.add_argument("--families", default=None, metavar="A,B",
                          help="restrict to these scenario families")
    fuzz_cmd.add_argument("--artifacts", metavar="DIR", default=None,
                          help="write minimized repro files here on failure")
    fuzz_cmd.add_argument("--time-budget", type=float, default=None,
                          metavar="SECONDS",
                          help="stop early once SECONDS elapsed (CI smoke)")
    fuzz_cmd.add_argument("--shrink-probes", type=_positive_int, default=150,
                          metavar="N")
    fuzz_cmd.add_argument("--chaos", action="store_true",
                          help="replay every trace under a seed-derived "
                               "fault plan (worker kills, torn journals, "
                               "checkpoint crashes) and require the "
                               "recovered stream to still match the "
                               "fault-free oracle")
    fuzz_cmd.add_argument("--chaos-faults", type=_positive_int, default=4,
                          metavar="N",
                          help="fault events injected per trace in "
                               "--chaos mode (default 4)")
    fuzz_cmd.add_argument("--corrupt", action="store_true",
                          help="corrupt state instead of killing "
                               "processes: snapshot byte flips, journal "
                               "payload mutations, label desyncs, and "
                               "daemon frame mutation — failures must be "
                               "loud or answers correct, never silently "
                               "wrong")
    fuzz_cmd.add_argument("--speculate", action="store_true",
                          help="additionally replay every trace through "
                               "copy-on-write speculative forks (random "
                               "chunks, randomized commit/discard) and "
                               "require the committed stream to match "
                               "both the fork's preview and a straight "
                               "replay")
    fuzz_cmd.add_argument("--replay", metavar="FILE", default=None,
                          help="re-run a saved .repro file instead of "
                               "fuzzing (exit 1 if it still diverges)")
    fuzz_cmd.add_argument("-q", "--quiet", action="store_true",
                          help="suppress per-trace progress lines")

    serve = sub.add_parser(
        "serve", help="long-running streaming verification daemon "
                      "(ndjson over stdin or TCP)")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="checkpoint/journal directory (recovers from "
                            "it when it already holds state)")
    serve.add_argument("--engine", default="deltanet",
                       choices=engine_names())
    serve.add_argument("--width", type=_positive_int, default=32)
    serve.add_argument("--checkpoint-every", type=_positive_int,
                       default=1000, metavar="N")
    serve.add_argument("--checkpoint-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="also snapshot in the background every "
                            "SECONDS (quiet-session durability)")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve ndjson over TCP instead of stdin "
                            "(PORT 0 picks a free port)")
    serve.add_argument("--properties", default="loops",
                       help="comma-separated properties to watch on a "
                            "fresh session (default: loops; '' for none)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="max seconds a request may wait for the "
                            "session before an immediate 'busy' + "
                            "retry_after response (default: wait forever)")
    serve.add_argument("--max-queue", type=_positive_int, default=64,
                       metavar="N",
                       help="max requests waiting for the session before "
                            "'overloaded' backpressure (default 64)")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       metavar="SECONDS",
                       help="retry_after hint in backpressure responses "
                            "(default 1.0)")
    serve.add_argument("--max-line-bytes", type=_positive_int,
                       default=1 << 20, metavar="N",
                       help="max request frame size; longer lines are "
                            "drained and answered with 'frame too "
                            "large' (default 1 MiB)")
    serve.add_argument("--scrub-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="run one budgeted state-integrity scrub "
                            "step every SECONDS in the background "
                            "(default: off; see 'audit' for on-demand)")
    serve.add_argument("--scrub-budget", type=_positive_int, default=4096,
                       metavar="ENTRIES",
                       help="max digest entries re-verified per scrub "
                            "step (default 4096)")
    serve.add_argument("--multi", action="store_true",
                       help="multi-tenant mode: --store is a root "
                            "directory of named sessions served by the "
                            "asyncio hub (verbs open/attach/detach/"
                            "sessions; see docs/protocol.md)")
    serve.add_argument("--open", metavar="NAME[,NAME...]", default=None,
                       help="with --multi: sessions to open (create or "
                            "recover) at boot")

    whatif = sub.add_parser("whatif", help="link-failure query sweep")
    whatif.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    whatif.add_argument("--scale", type=float, default=1.0)
    whatif.add_argument("--loops", action="store_true",
                        help="also check loops in affected subgraphs")
    whatif.add_argument("--speculate", action="store_true",
                        help="evaluate each link failure in a "
                             "copy-on-write speculative fork (remove the "
                             "link's rules, check loops, discard) instead "
                             "of the goal-directed read-only query")

    allpairs = sub.add_parser(
        "allpairs", help="Algorithm 3: all-pairs reachability of all atoms")
    allpairs.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    allpairs.add_argument("--scale", type=float, default=1.0)

    blackholes = sub.add_parser(
        "blackholes", help="find nodes that silently swallow traffic")
    blackholes.add_argument("dataset", choices=sorted(DATASET_BUILDERS))
    blackholes.add_argument("--scale", type=float, default=1.0)

    report = sub.add_parser(
        "report", help="regenerate the full experiment report (markdown)")
    report.add_argument("-o", "--output", default="experiment_report.md")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "backends": _cmd_backends,
        "generate": _cmd_generate,
        "replay": _cmd_replay,
        "whatif": _cmd_whatif,
        "allpairs": _cmd_allpairs,
        "blackholes": _cmd_blackholes,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "scenario": _cmd_scenario,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except _READABLE_ERRORS as exc:
        # Bad family names, malformed traces/repro files, unknown
        # backends: a message and exit 2, never a bare traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
