"""Tier-1 smoke test of the layer-ledger benchmark.

Every workload runs at ``--scale 0.02`` inside one small time budget; the
test asserts the contract's output shape (every metric BENCHMARK.json
lists, with its unit), that the oracle passes, and that the benchmark's
own generator is the stream ``perf_gate`` has always measured.
"""

import json
import os
import time

import pytest

from layers import run, workloads
from layers.workloads import DEFAULT_SEED, WORKLOADS, stream_hash, update_stream

SCALE = 0.02
SECONDS = 6

with open(run.BENCHMARK_JSON) as _handle:
    BENCHMARK = json.load(_handle)


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["paths"] == ["benchmarks/layers"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/layers/run.py"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == run.per_layer_catalog()
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_generator_is_the_perf_gate_stream_at_the_default_seed():
    perf_gate = pytest.importorskip("perf_gate")
    assert DEFAULT_SEED == perf_gate.WORKLOAD_SEED
    ours = update_stream(3000)
    theirs = perf_gate.synthetic_update_workload(3000)
    assert [op.to_line() for op in ours] == [op.to_line() for op in theirs]


def test_same_seed_same_stream_other_seed_other_stream():
    assert stream_hash(update_stream(2000, 7)) \
        == stream_hash(update_stream(2000, 7))
    assert stream_hash(update_stream(2000, 7)) \
        != stream_hash(update_stream(2000, 8))


def test_every_workload_end_to_end_within_the_budget():
    started = time.perf_counter()
    for name in WORKLOADS:
        result = run.run_workload(name, seed=DEFAULT_SEED + 1,
                                  seconds=SECONDS, scale=SCALE)
        assert result["correct"], result["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        for spec in BENCHMARK["end_to_end"]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert metric["value"] > 0, spec["name"]
            assert metric["samples"] >= 1 and metric["replays"] >= 1
        line = json.loads(run.contract_line(result))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(line["metrics"]) == sorted(
            spec["name"] for spec in BENCHMARK["end_to_end"])
    assert time.perf_counter() - started < 10


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_writes_spans(
        name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    result = run.run_workload(name, seconds=SECONDS, scale=SCALE, traced=True)
    assert result["correct"], result["failures"]
    metrics = result["metrics"]
    for spec in BENCHMARK["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    with open(os.path.join(tmp_path, f"spans-{name}.json")) as handle:
        written = json.load(handle)
    assert written["columns"] == list(run.Span._fields)
    assert written["spans"], "a traced run must record spans"
    # Self times plus the harness remainder are the timed wall-clock.
    assert metrics["ledger.harness_share"]["value"] < 1.0
    layers_seen = {row[3] for row in written["spans"]}
    expected = {
        "churn-core": {"core.deltanet", "checkers.loops"},
        "churn-session": {"api.session", "api.properties", "api.backends",
                          "core.deltanet", "checkers.loops"},
        "serve-hub": {"serve.aio", "serve.stream", "api.session",
                      "persist.store", "persist.journal"},
        "whatif-links": {"api.session", "query.planner", "checkers.whatif"},
        "restart": {"serve.stream", "persist.store", "persist.snapshot",
                    "persist.journal"},
    }[name]
    assert expected <= layers_seen


def test_document_records_its_environment():
    result = run.run_workload("churn-core", seconds=SECONDS, scale=SCALE)
    doc = run.document([result])
    env = doc["environment"]
    assert env["nproc"] == os.cpu_count()
    assert env["seed"] == DEFAULT_SEED and env["calibration_score"] > 0
    assert {"python", "git_commit", "seconds", "scale"} <= set(env)
    assert doc["workloads"]["churn-core"]["sizes"]["state_ops"] \
        == workloads.plan("churn-core", SECONDS, SCALE).state_ops
    assert list(doc["summary"])[-1] == "claim" \
        and doc["summary"]["claim"] is None


def _doc(values, failed=0):
    return {"workloads": {"churn-core": {"runs": [
        {"trace": 0, "correct": not failed, "attempted": 1000,
         "failed": failed, "metrics": {"ops_per_s": {"value": value}}}
        for value in values]}}}


def test_compare_says_ok_regressed_or_unresolved(tmp_path):
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["ops_per_s"]
    paths = {}
    for key, values in {
            "base": [1000, 1010, 990, 1005],
            "same": [1002, 1008, 985, 1001],
            "slow": [value * (1 - 2 * bound) for value in (1000, 1010, 990)],
            "wide": [1000, 1000 * (1 + 3 * bound), 1000 * (1 - 2 * bound),
                     1000]}.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as handle:
            json.dump(_doc(values), handle)
    lines = []
    assert run.compare(paths["base"], paths["same"], lines.append) == 0
    assert " ok " in lines[-1]
    assert run.compare(paths["base"], paths["slow"], lines.append) == 1
    assert " regressed " in lines[-1]
    assert run.compare(paths["base"], paths["wide"], lines.append) == 0
    assert " unresolved " in lines[-1]


def test_compare_gates_failed_share_at_plus_zero(tmp_path):
    paths = {}
    for key, failed in {"clean": 0, "failing": 1}.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as handle:
            json.dump(_doc([1000, 1010, 990, 1005], failed), handle)
    lines = []
    assert run.compare(paths["clean"], paths["failing"], lines.append) == 1
    assert "failed_share" in lines[0] and " regressed " in lines[0]
    assert " ok " in lines[1]       # the timing itself did not move
    # No worse than a parent that already failed as much is not a regression.
    assert run.compare(paths["failing"], paths["failing"], lines.append) == 0
    assert run.compare(paths["failing"], paths["clean"], lines.append) == 0
