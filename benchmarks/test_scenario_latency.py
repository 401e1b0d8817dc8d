"""Experiment: per-update verification latency across scenario families.

The scenario families (:mod:`repro.scenarios`) are the repo's model of
*real, churny* workloads — link flaps, failover storms, BGP resets, ACL
injection, de-aggregation waves — rather than the six fixed datasets.
This suite records what one committed update costs end-to-end (backend
apply + every watched property) per event pattern, and checks two
shapes:

* **flat per-update cost** — Delta-net's incremental claim: the mean
  per-op time must not blow up as the lifecycle gets longer (scale 0.5
  vs 1.0 within :data:`FLAT_COST_FACTOR`),
* **cross-backend agreement** — every family's alert stream matches the
  sweep oracle on the incremental backends (the differential fuzzer's
  invariant, asserted here at benchmark scale).

Absolute microseconds are machine-dependent and gated separately by
``perf_gate.py --suite scenario_latency`` against the committed
``BENCH_scenario_latency.json``.
"""

from __future__ import annotations

import gc
from functools import lru_cache

import pytest

from repro.analysis.tables import render_table
from repro.scenarios import (
    build_scenario, replay_signatures, run_scenario, scenario_families,
)

from benchmarks.common import microseconds, print_report

#: Fixed seed: the measured traces are identical across runs.
SEED = 11

#: Mean per-op cost at scale 1.0 may exceed scale 0.5 by at most this
#: factor (the trace roughly doubles; flat per-update cost means the
#: mean should barely move — 4x absorbs small-trace noise).
FLAT_COST_FACTOR = 4.0


@lru_cache(maxsize=None)
def _scenario(family: str, scale: float):
    return build_scenario(family, seed=SEED, scale=scale)


@lru_cache(maxsize=None)
def _mean_op_seconds(family: str, scale: float):
    scenario = _scenario(family, scale)
    # As timeit does: collect first and keep the collector off while
    # timing, so a full collection of heap other tests left behind is
    # not billed to a run of a few hundred ops.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run = replay_signatures(scenario, "deltanet")
    finally:
        if was_enabled:
            gc.enable()
    assert run.error is None, run.error
    return run.seconds / max(1, scenario.num_ops), run


def test_scenario_latency_report():
    rows = []
    for family in scenario_families():
        scenario = _scenario(family, 1.0)
        mean, run = _mean_op_seconds(family, 1.0)
        rows.append((
            family, scenario.num_ops,
            ",".join(spec.name for spec in scenario.property_specs),
            f"{microseconds(mean):.0f}",
            run.num_violations,
        ))
    print_report(render_table(
        ("Family", "Ops", "Watched properties", "us/op (deltanet)",
         "Violations"),
        rows,
        title="Scenario families: per-update verification latency "
              "(seed 11, scale 1.0)"))
    assert len(rows) == len(scenario_families())


@pytest.mark.parametrize("family", scenario_families())
def test_per_update_cost_stays_flat(family):
    small, _ = _mean_op_seconds(family, 0.5)
    large, _ = _mean_op_seconds(family, 1.0)
    assert large <= small * FLAT_COST_FACTOR, (
        f"{family}: mean per-op cost grew {large / small:.1f}x from "
        f"scale 0.5 to 1.0 (>{FLAT_COST_FACTOR}x) — per-update checking "
        f"is no longer flat on this lifecycle")


@pytest.mark.parametrize("family", scenario_families())
def test_families_agree_with_oracle(family):
    report = run_scenario(_scenario(family, 0.5), ["deltanet"])
    assert report.ok, "\n" + report.describe()
