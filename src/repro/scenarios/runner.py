"""Differential scenario execution: backends vs. the sweep oracle.

``run_scenario`` replays one trace through any number of registered
backends (one fresh :class:`~repro.api.VerificationSession` each, with
its own property instances) and through the
:class:`~repro.scenarios.oracle.SweepOracle`, then diffs the per-update
violation streams.  The diff is the whole point: Delta-net's atoms,
Veriflow's ECs and the rest must deliver the
*identical* alert stream on the identical trace, op by op.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.datasets.format import Op
from repro.scenarios.oracle import Signature, SweepOracle
from repro.scenarios.spec import Scenario


def format_signature(signature: Signature) -> str:
    """One human line per violation signature (diff output)."""
    kind, args = signature[0], signature[1:]
    if kind == "loop":
        cycle = args[0]
        return "loop: " + " -> ".join(map(str, cycle)) + f" -> {cycle[0]}"
    if kind == "blackhole":
        return f"blackhole at {args[0]}"
    if kind == "reachability":
        src, dst, expect = args
        return (f"reachability: {dst} {'un' if expect else ''}reachable "
                f"from {src}")
    if kind == "waypoint":
        src, dst, waypoint = args
        return f"waypoint: {src} -> {dst} bypasses {waypoint}"
    if kind == "isolation":
        return f"isolation: link {args[0]} carries both slices"
    return f"{kind}: {args!r}"


@dataclass
class Divergence:
    """First op where one backend's alert stream leaves the oracle's."""

    backend: str
    op_index: int
    op: Op
    missing: FrozenSet[Signature]     # oracle delivered, backend did not
    unexpected: FrozenSet[Signature]  # backend delivered, oracle did not

    def describe(self) -> str:
        lines = [f"backend {self.backend!r} diverges from the sweep "
                 f"oracle at op {self.op_index} ({self.op.to_line()}):"]
        for label, signatures in (("missing (oracle delivered, backend "
                                   "did not)", self.missing),
                                  ("unexpected (backend delivered, oracle "
                                   "did not)", self.unexpected)):
            if signatures:
                lines.append(f"  {label}:")
                lines.extend(f"    {format_signature(sig)}"
                             for sig in sorted(signatures, key=repr))
        return "\n".join(lines)


@dataclass
class BackendRun:
    """One backend's replay of the trace."""

    backend: str
    delivered: List[FrozenSet[Signature]] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None
    #: Chaos-mode annotations (plan, injected/skipped faults, recovery
    #: count) when the replay ran under a fault plan; None otherwise.
    chaos: Optional[Dict] = None

    @property
    def num_violations(self) -> int:
        return sum(len(batch) for batch in self.delivered)


@dataclass
class ScenarioReport:
    """The outcome of one differential scenario run."""

    scenario: Scenario
    oracle_stream: List[FrozenSet[Signature]]
    runs: List[BackendRun]
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences and all(run.error is None
                                            for run in self.runs)

    @property
    def oracle_violations(self) -> int:
        return sum(len(batch) for batch in self.oracle_stream)

    def describe(self) -> str:
        scenario = self.scenario
        lines = [f"{scenario.name}: {scenario.num_ops} ops, "
                 f"{self.oracle_violations} oracle violations, "
                 f"backends: " + ", ".join(run.backend for run in self.runs)]
        for run in self.runs:
            if run.error is not None:
                lines.append(f"  {run.backend}: ERROR {run.error}")
            else:
                status = ("agrees" if not any(
                    d.backend == run.backend for d in self.divergences)
                    else "DIVERGES")
                lines.append(f"  {run.backend}: {run.num_violations} "
                             f"violations in {run.seconds:.3f}s ({status})")
        for divergence in self.divergences:
            lines.append(divergence.describe())
        return "\n".join(lines)


def replay_signatures(scenario: Scenario, backend: str,
                      ops: Optional[Sequence[Op]] = None,
                      **backend_options) -> BackendRun:
    """Replay the trace through one fresh session; collect per-op
    delivered violation signatures."""
    from repro.api import VerificationSession

    ops = scenario.ops if ops is None else ops
    run = BackendRun(backend=backend)
    start = time.perf_counter()
    try:
        with VerificationSession(
                backend, width=scenario.width,
                properties=scenario.make_properties(),
                **backend_options) as session:
            for op in ops:
                result = session.apply(op)
                run.delivered.append(frozenset(
                    violation.signature
                    for violation in result.violations))
    except Exception as exc:  # a crash is a finding, not a fuzzer abort
        run.error = f"{type(exc).__name__}: {exc}"
    run.seconds = time.perf_counter() - start
    return run


def diff_streams(backend: str, ops: Sequence[Op],
                 oracle_stream: Sequence[FrozenSet[Signature]],
                 delivered: Sequence[FrozenSet[Signature]],
                 max_divergences: int = 1) -> List[Divergence]:
    """Per-op stream diff; reports up to ``max_divergences`` entries
    (the first is what the shrinker minimizes against)."""
    out: List[Divergence] = []
    for index, expected in enumerate(oracle_stream):
        actual = delivered[index] if index < len(delivered) else frozenset()
        if actual != expected:
            out.append(Divergence(
                backend=backend, op_index=index, op=ops[index],
                missing=frozenset(expected - actual),
                unexpected=frozenset(actual - expected)))
            if len(out) >= max_divergences:
                break
    return out


def run_scenario(scenario: Scenario, backends: Iterable[str],
                 backend_options: Optional[Dict[str, Dict]] = None,
                 max_divergences: int = 1) -> ScenarioReport:
    """Replay ``scenario`` through every backend and the oracle; diff."""
    oracle = SweepOracle(scenario.property_specs, width=scenario.width)
    oracle_stream = oracle.stream(scenario.ops)
    runs: List[BackendRun] = []
    divergences: List[Divergence] = []
    options = backend_options or {}
    for backend in backends:
        run = replay_signatures(scenario, backend,
                                **options.get(backend, {}))
        runs.append(run)
        if run.error is None:
            divergences.extend(diff_streams(
                backend, scenario.ops, oracle_stream, run.delivered,
                max_divergences=max_divergences))
    return ScenarioReport(scenario=scenario, oracle_stream=oracle_stream,
                          runs=runs, divergences=divergences)


def run_chaos_scenario(scenario: Scenario, backends: Iterable[str],
                       plan, work_dir: str,
                       backend_options: Optional[Dict[str, Dict]] = None,
                       max_divergences: int = 1,
                       checkpoint_every: int = 20) -> ScenarioReport:
    """Replay ``scenario`` through every backend *under injected
    faults*, then diff against the (fault-free) sweep oracle.

    The oracle never sees the faults — that is the point: a worker
    kill, a torn journal tail or a crashed checkpoint may cost recovery
    time, but the per-op violation stream each backend delivers (with
    recovered ops re-delivered in place) must still match the oracle
    byte-for-byte.  Each backend replays in its own ``SessionStore``
    directory under ``work_dir``; chaos annotations land on each run's
    ``chaos`` field.
    """
    import os

    from repro.faults.chaos import chaos_replay

    oracle = SweepOracle(scenario.property_specs, width=scenario.width)
    oracle_stream = oracle.stream(scenario.ops)
    runs: List[BackendRun] = []
    divergences: List[Divergence] = []
    options = backend_options or {}
    for backend in backends:
        store_dir = os.path.join(work_dir, f"chaos-{backend}")
        run = chaos_replay(scenario, backend, plan, store_dir,
                           checkpoint_every=checkpoint_every,
                           **options.get(backend, {}))
        runs.append(run)
        if run.error is None:
            divergences.extend(diff_streams(
                backend, scenario.ops, oracle_stream, run.delivered,
                max_divergences=max_divergences))
    return ScenarioReport(scenario=scenario, oracle_stream=oracle_stream,
                          runs=runs, divergences=divergences)


def run_corruption_scenario(scenario: Scenario, backends: Iterable[str],
                            plan, work_dir: str,
                            backend_options: Optional[Dict[str, Dict]] = None,
                            max_divergences: int = 1,
                            checkpoint_every: int = 20) -> ScenarioReport:
    """Replay ``scenario`` through every backend while *corrupting its
    persisted and in-memory state*, then diff against the oracle.

    The structure-aware twin of :func:`run_chaos_scenario`: snapshot
    byte flips, journal payload mutations and label desyncs
    (:mod:`repro.faults.corruption`) instead of process faults.  The
    invariant is "loud failure or correct answers": recovery may refuse
    a damaged store (the harness rebuilds from rule zero), but the
    delivered stream must never silently diverge from the oracle.
    """
    import os

    from repro.faults.corruption import corruption_replay

    oracle = SweepOracle(scenario.property_specs, width=scenario.width)
    oracle_stream = oracle.stream(scenario.ops)
    runs: List[BackendRun] = []
    divergences: List[Divergence] = []
    options = backend_options or {}
    for backend in backends:
        store_dir = os.path.join(work_dir, f"corrupt-{backend}")
        run = corruption_replay(scenario, backend, plan, store_dir,
                                checkpoint_every=checkpoint_every,
                                **options.get(backend, {}))
        runs.append(run)
        if run.error is None:
            divergences.extend(diff_streams(
                backend, scenario.ops, oracle_stream, run.delivered,
                max_divergences=max_divergences))
    return ScenarioReport(scenario=scenario, oracle_stream=oracle_stream,
                          runs=runs, divergences=divergences)
