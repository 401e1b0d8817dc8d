"""The cross-backend differential fuzzer.

Each iteration draws a random scenario (family × topology × routing ×
event script, all from one seed), replays it through every requested
backend and the sweep oracle, and diffs the per-update violation
streams.  On a mismatch the trace is shrunk to a 1-minimal failing
subsequence against the first diverging backend and written out as a
:mod:`repro.fuzz.reprofile` artifact (codec document + ``.ops`` text
twin), so the failure replays anywhere with ``deltanet fuzz --replay``.

The fuzzer treats a backend *crash* the same as a stream divergence —
an exception mid-trace is minimized and reported, not propagated.

With ``chaos=True`` every trace additionally replays under a
seed-derived :class:`~repro.faults.chaos.ChaosPlan` — worker kills,
blackholed pipes, torn journal tails, crashed checkpoints — and the
recovered stream is still diffed against the *fault-free* sweep
oracle.  A chaos failure is reported un-shrunk: the fault schedule is
keyed to op indices, so removing ops would change which faults fire;
the ``(scenario seed, chaos seed)`` pair in the artifact reproduces it
exactly instead.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.datasets.format import Op
from repro.scenarios.engine import random_scenario
from repro.scenarios.oracle import SweepOracle
from repro.scenarios.runner import (
    ScenarioReport, diff_streams, replay_signatures, run_scenario,
)
from repro.scenarios.spec import Scenario
from repro.fuzz.reprofile import save_repro
from repro.fuzz.shrink import shrink_trace

Log = Callable[[str], None]


@dataclass
class FuzzFailure:
    """One minimized cross-backend disagreement."""

    scenario: Scenario
    report: ScenarioReport
    diverging: List[str]
    shrunk_ops: List[Op]
    repro_path: Optional[str] = None
    ops_path: Optional[str] = None
    #: The fault schedule the trace ran under (chaos mode); None for
    #: plain differential failures.
    chaos_plan: Optional[object] = None

    def describe(self) -> str:
        if self.chaos_plan is not None:
            lines = [f"FAILURE {self.scenario.name}: "
                     f"{', '.join(self.diverging)} disagree with the "
                     f"fault-free oracle under injected faults "
                     f"(trace {self.scenario.num_ops} ops, not shrunk — "
                     f"the fault schedule is index-keyed)",
                     "  " + self.chaos_plan.describe().replace("\n", "\n  ")]
        else:
            lines = [f"FAILURE {self.scenario.name}: "
                     f"{', '.join(self.diverging)} disagree with the oracle "
                     f"(trace {self.scenario.num_ops} ops, minimized to "
                     f"{len(self.shrunk_ops)})"]
        if self.repro_path:
            lines.append(f"  repro: {self.repro_path} "
                         f"(text twin: {self.ops_path})")
        lines.append(self.report.describe())
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    budget: int
    attempted: int = 0
    passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0
    stopped_early: bool = False
    chaos: bool = False
    corrupt: bool = False
    speculate: bool = False
    #: Corruption mode only: daemon frame-mutation trials run and the
    #: protocol problems they surfaced (accepted mutants, sequence
    #: drift, oracle divergence).
    frame_trials: int = 0
    frame_problems: List[str] = field(default_factory=list)
    #: Speculation mode only: per-backend speculative replay trials and
    #: the divergences they surfaced (speculative preview != committed
    #: stream, or a discarded child leaking into the parent).
    spec_trials: int = 0
    spec_problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.failures and not self.frame_problems
                and not self.spec_problems)

    def describe(self) -> str:
        status = "OK" if self.ok else (
            f"{len(self.failures)} FAILURE(S), "
            f"{len(self.frame_problems)} frame problem(s), "
            f"{len(self.spec_problems)} speculation problem(s)")
        early = " (time budget hit)" if self.stopped_early else ""
        mode = ("corruption fuzz" if self.corrupt
                else "chaos fuzz" if self.chaos
                else "speculation fuzz" if self.speculate else "fuzz")
        out = (f"{mode}: {self.attempted}/{self.budget} traces{early}, "
               f"{self.passed} agreed, {status}, {self.elapsed:.1f}s")
        if self.corrupt:
            out += f" ({self.frame_trials} frame trials)"
        if self.speculate:
            out += f" ({self.spec_trials} speculative replays)"
        for problem in self.frame_problems:
            out += f"\n  frame problem: {problem}"
        for problem in self.spec_problems:
            out += f"\n  speculation problem: {problem}"
        return out


def _still_fails(scenario: Scenario, backend: str) -> Callable:
    """The shrinker predicate: does a candidate trace still diverge
    (or crash) on ``backend`` vs a fresh oracle?"""

    def predicate(candidate: List[Op]) -> bool:
        oracle = SweepOracle(scenario.property_specs, width=scenario.width)
        try:
            oracle_stream = oracle.stream(candidate)
        except Exception:
            # The repaired candidate broke the oracle itself — not a
            # backend failure; reject the candidate.
            return False
        run = replay_signatures(scenario, backend, ops=candidate)
        if run.error is not None:
            return True
        return bool(diff_streams(backend, candidate, oracle_stream,
                                 run.delivered))

    return predicate


def minimize_failure(scenario: Scenario, report: ScenarioReport,
                     max_probes: int = 150) -> FuzzFailure:
    """Shrink a failing scenario against its first diverging backend."""
    diverging = sorted({d.backend for d in report.divergences} |
                       {run.backend for run in report.runs
                        if run.error is not None})
    target = diverging[0]
    shrunk = shrink_trace(scenario.ops, _still_fails(scenario, target),
                          width=scenario.width, max_probes=max_probes)
    return FuzzFailure(scenario=scenario, report=report,
                       diverging=diverging, shrunk_ops=shrunk)


def save_failure_artifacts(failure: FuzzFailure, report: ScenarioReport,
                           backends: Sequence[str],
                           artifacts_dir: str) -> None:
    """Write a failure's minimized repro file + ``.ops`` twin.

    The single artifact-format authority: the fuzz campaign loop and
    ``deltanet scenario run --artifacts`` both route through here, so
    stem naming and the divergence notes stay identical everywhere.
    """
    os.makedirs(artifacts_dir, exist_ok=True)
    scenario = failure.scenario
    stem = os.path.join(artifacts_dir,
                        f"repro-{scenario.family}-seed{scenario.seed}")
    if report.divergences:
        notes = report.divergences[0].describe()
    else:
        notes = "; ".join(f"{run.backend}: {run.error}"
                          for run in report.runs
                          if run.error is not None)
    if failure.chaos_plan is not None:
        notes = failure.chaos_plan.describe() + "\n" + notes
    failure.repro_path, failure.ops_path = save_repro(
        stem + ".repro", scenario, backends, failure.diverging,
        notes=notes, ops=failure.shrunk_ops)


def speculative_trial(scenario: Scenario, backend: str,
                      rng: random.Random,
                      max_chunk: int = 8) -> List[str]:
    """Replay one trace speculatively and diff it against a straight run.

    The trace is split into random chunks; each chunk is first applied
    to a copy-on-write speculative child, the child's loop answer is
    recorded, and the chunk is then either committed (the buffered ops
    replay onto the parent) or discarded and re-applied directly.  Three
    invariants are checked after every chunk: the committed parent
    answer matches the child's preview, a discarded child left no trace,
    and the speculative session tracks a session that never speculated
    (same loops, same state digest).  Returns human-readable problem
    strings (empty = clean).
    """
    from repro.api import Loops, VerificationSession

    problems: List[str] = []
    straight = VerificationSession(backend, width=scenario.width)
    spec = VerificationSession(backend, width=scenario.width)
    try:
        ops = list(scenario.ops)
        index = 0
        while index < len(ops) and not problems:
            chunk = ops[index:index + rng.randint(1, max_chunk)]
            index += len(chunk)
            for op in chunk:
                straight.apply(op)
            before = sorted(spec.query(Loops()).violations, key=repr)
            child = spec.speculate()
            try:
                for op in chunk:
                    child.apply(op)
                preview = sorted(child.query(Loops()).violations, key=repr)
                if rng.random() < 0.25:
                    child.discard()
                    leaked = sorted(spec.query(Loops()).violations, key=repr)
                    if leaked != before:
                        problems.append(
                            f"{backend}: discarded child leaked into the "
                            f"parent at op {index} ({before!r} -> "
                            f"{leaked!r})")
                    for op in chunk:
                        spec.apply(op)
                else:
                    child.commit()
            finally:
                child.discard()
            committed = sorted(spec.query(Loops()).violations, key=repr)
            if committed != preview:
                problems.append(
                    f"{backend}: committed loops != speculative preview "
                    f"at op {index} ({preview!r} -> {committed!r})")
            reference = sorted(straight.query(Loops()).violations, key=repr)
            if committed != reference:
                problems.append(
                    f"{backend}: speculative replay diverged from the "
                    f"straight replay at op {index} ({reference!r} vs "
                    f"{committed!r})")
        spec_digest = spec.state_digest()
        straight_digest = straight.state_digest()
        if (spec_digest is not None and straight_digest is not None
                and spec_digest != straight_digest):
            problems.append(
                f"{backend}: final state digest differs from the "
                f"straight replay ({straight_digest[:16]}… vs "
                f"{spec_digest[:16]}…)")
    except Exception as exc:
        problems.append(f"{backend}: speculative replay crashed: "
                        f"{type(exc).__name__}: {exc}")
    finally:
        straight.close()
        spec.close()
    return problems


def fuzz(budget: int, seed: int = 0,
         backends: Optional[Iterable[str]] = None,
         families: Optional[Iterable[str]] = None,
         width: int = 32,
         artifacts_dir: Optional[str] = None,
         time_budget: Optional[float] = None,
         shrink_probes: int = 150,
         chaos: bool = False,
         chaos_faults: int = 4,
         corrupt: bool = False,
         speculate: bool = False,
         log: Optional[Log] = None) -> FuzzReport:
    """Run a differential fuzzing campaign of ``budget`` random traces.

    ``backends`` defaults to every registered backend.  With
    ``time_budget`` (seconds) the campaign stops early once exceeded —
    the CI smoke knob.  Failures are minimized and, when
    ``artifacts_dir`` is set, written there as repro files.

    With ``chaos=True`` each trace replays under an injected fault plan
    of ``chaos_faults`` events (plan seed = the scenario's own seed, so
    the campaign seed reproduces both the trace *and* its faults).  The
    oracle stays fault-free; the diff proves recovery preserved the
    delivered stream exactly.  Chaos failures skip shrinking.

    With ``corrupt=True`` the fault plan draws from
    :data:`~repro.faults.corruption.CORRUPTION_KINDS` instead —
    snapshot byte flips, journal payload mutations, label desyncs — and
    each trace additionally runs a daemon frame-mutation trial
    (:mod:`repro.fuzz.frames`).  The invariant tightens to "loud
    failure or correct answers, never silently wrong".  Like chaos
    failures, corruption failures skip shrinking.

    With ``speculate=True`` each trace additionally replays through
    :func:`speculative_trial` on every chosen backend — random chunks
    applied to copy-on-write speculative children with randomized
    commit/discard interleavings — and the committed stream must match
    both the child's preview and a never-speculated straight replay.
    Divergences land in ``spec_problems`` (no shrinking: the chunking
    is seed-derived and the seed pair reproduces it).
    """
    import shutil
    import tempfile

    from repro.api import available_backends

    if chaos and corrupt:
        raise ValueError("chaos and corrupt modes are mutually exclusive")
    if speculate and (chaos or corrupt):
        raise ValueError("speculate mode is incompatible with "
                         "chaos/corrupt fault injection")
    if chaos:
        from repro.faults.chaos import ChaosPlan
        from repro.scenarios.runner import run_chaos_scenario
    if corrupt:
        from repro.faults.corruption import corruption_plan
        from repro.fuzz.frames import frame_mutation_trial
        from repro.scenarios.runner import run_corruption_scenario

    chosen = sorted(backends) if backends is not None \
        else list(available_backends())
    rng = random.Random(seed)
    report = FuzzReport(budget=budget, chaos=chaos, corrupt=corrupt,
                        speculate=speculate)
    emit = log or (lambda line: None)
    start = time.perf_counter()
    if artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
    for index in range(budget):
        if time_budget is not None \
                and time.perf_counter() - start > time_budget:
            report.stopped_early = True
            emit(f"time budget {time_budget:.0f}s hit after "
                 f"{report.attempted} traces")
            break
        scenario = random_scenario(rng, families=families, width=width)
        report.attempted += 1
        plan = None
        if chaos:
            plan = ChaosPlan.random(scenario.seed, scenario.num_ops,
                                    faults=chaos_faults)
            work_dir = tempfile.mkdtemp(prefix="deltanet-chaos-")
            try:
                scenario_report = run_chaos_scenario(scenario, chosen,
                                                     plan, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
        elif corrupt:
            plan = corruption_plan(scenario.seed, scenario.num_ops,
                                   faults=chaos_faults)
            work_dir = tempfile.mkdtemp(prefix="deltanet-corrupt-")
            try:
                scenario_report = run_corruption_scenario(
                    scenario, chosen, plan, work_dir)
                # The third corruption surface: the daemon's own wire
                # protocol, driven in-process against one backend.
                frame_backend = ("deltanet" if "deltanet" in chosen
                                 else chosen[0])
                frame_dir = os.path.join(work_dir, "frames")
                report.frame_trials += 1
                problems = frame_mutation_trial(
                    scenario, frame_backend, frame_dir,
                    random.Random(scenario.seed ^ 0xF5A3E5))
                for problem in problems:
                    report.frame_problems.append(
                        f"{scenario.name} [{frame_backend}]: {problem}")
                    emit(f"[{index + 1}/{budget}] {scenario.name}: "
                         f"FRAME PROBLEM {problem}")
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
        else:
            scenario_report = run_scenario(scenario, chosen)
            if speculate:
                for backend in chosen:
                    report.spec_trials += 1
                    problems = speculative_trial(
                        scenario, backend,
                        random.Random(scenario.seed ^ 0x5BEC))
                    for problem in problems:
                        report.spec_problems.append(
                            f"{scenario.name}: {problem}")
                        emit(f"[{index + 1}/{budget}] {scenario.name}: "
                             f"SPECULATION PROBLEM {problem}")
        if scenario_report.ok:
            report.passed += 1
            if plan is not None:
                recoveries = sum((run.chaos or {}).get("recoveries", 0)
                                 for run in scenario_report.runs)
                emit(f"[{index + 1}/{budget}] {scenario.name}: "
                     f"{scenario.num_ops} ops, "
                     f"{scenario_report.oracle_violations} violations, "
                     f"all backends agree under {len(plan.events)} "
                     f"fault(s) ({recoveries} recoveries)")
            else:
                emit(f"[{index + 1}/{budget}] {scenario.name}: "
                     f"{scenario.num_ops} ops, "
                     f"{scenario_report.oracle_violations} violations, "
                     f"all backends agree")
            continue
        if plan is not None:
            # The fault schedule is keyed to op indices; shrinking the
            # trace would change which faults fire where.  Report the
            # full trace — the seed pair reproduces it exactly.
            emit(f"[{index + 1}/{budget}] {scenario.name}: DIVERGENCE "
                 f"under chaos plan seed={plan.seed}")
            diverging = sorted(
                {d.backend for d in scenario_report.divergences} |
                {run.backend for run in scenario_report.runs
                 if run.error is not None})
            failure = FuzzFailure(scenario=scenario, report=scenario_report,
                                  diverging=diverging,
                                  shrunk_ops=list(scenario.ops),
                                  chaos_plan=plan)
        else:
            emit(f"[{index + 1}/{budget}] {scenario.name}: DIVERGENCE — "
                 f"minimizing...")
            failure = minimize_failure(scenario, scenario_report,
                                       max_probes=shrink_probes)
        if artifacts_dir:
            save_failure_artifacts(failure, scenario_report, chosen,
                                   artifacts_dir)
        report.failures.append(failure)
        emit(failure.describe())
    report.elapsed = time.perf_counter() - start
    return report


def replay_repro(path: str,
                 backends: Optional[Iterable[str]] = None) -> ScenarioReport:
    """Re-run a saved repro file's differential check.

    ``backends`` defaults to the file's recorded backend list.
    """
    from repro.fuzz.reprofile import load_repro

    repro = load_repro(path)
    chosen = sorted(backends) if backends is not None else repro.backends
    return run_scenario(repro.scenario(), chosen)
