"""Tests for the differential fuzzing campaign loop."""

import os

import pytest

from repro.api import register_backend, unregister_backend
from repro.api.backends import DeltaNetBackend
from repro.fuzz import fuzz, load_repro, replay_repro


class _LossyBackend(DeltaNetBackend):
    """Delta-net that swallows the last loop report of every commit."""

    def loops_for_commit(self, updates, delta):
        return super().loops_for_commit(updates, delta)[:-1]


@pytest.fixture
def lossy_backend():
    register_backend("lossy-test", _LossyBackend, replace=True)
    yield "lossy-test"
    unregister_backend("lossy-test")


class TestHealthyCampaign:
    def test_small_campaign_agrees(self):
        report = fuzz(budget=3, seed=21, backends=["deltanet", "veriflow"])
        assert report.ok
        assert report.attempted == report.passed == 3
        assert "OK" in report.describe()

    def test_campaign_is_seed_reproducible(self):
        first = fuzz(budget=2, seed=33, backends=["deltanet"])
        second = fuzz(budget=2, seed=33, backends=["deltanet"])
        assert first.ok and second.ok
        assert first.passed == second.passed == 2

    def test_time_budget_stops_early(self):
        report = fuzz(budget=500, seed=1, backends=["deltanet"],
                      time_budget=0.0)
        assert report.stopped_early
        assert report.attempted < 500


class TestFailingCampaign:
    def test_lossy_backend_found_minimized_and_saved(self, tmp_path,
                                                     lossy_backend):
        artifacts = str(tmp_path / "artifacts")
        report = fuzz(budget=6, seed=5,
                      backends=["deltanet", lossy_backend],
                      families=["deaggregation", "table-fill"],
                      artifacts_dir=artifacts, shrink_probes=60)
        assert not report.ok
        failure = report.failures[0]
        assert lossy_backend in failure.diverging
        assert len(failure.shrunk_ops) <= failure.scenario.num_ops
        assert failure.repro_path and os.path.exists(failure.repro_path)
        assert failure.ops_path and os.path.exists(failure.ops_path)
        # The minimized repro still reproduces against the lossy
        # backend and passes on the healthy one.
        saved = load_repro(failure.repro_path)
        assert lossy_backend in saved.diverging
        still_failing = replay_repro(failure.repro_path,
                                     backends=[lossy_backend])
        assert not still_failing.ok
        healthy = replay_repro(failure.repro_path, backends=["deltanet"])
        assert healthy.ok

    def test_failure_description_is_readable(self, lossy_backend):
        report = fuzz(budget=6, seed=5,
                      backends=["deltanet", lossy_backend],
                      families=["deaggregation", "table-fill"],
                      shrink_probes=40)
        assert not report.ok
        text = report.failures[0].describe()
        assert "FAILURE" in text and "minimized" in text
        assert "oracle" in text


class TestChaosCampaign:
    def test_chaos_traces_survive_and_annotate(self):
        report = fuzz(budget=2, seed=21, backends=["deltanet"],
                      families=["deaggregation"], chaos=True,
                      chaos_faults=2)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.chaos
        assert "chaos fuzz" in report.describe()

    def test_chaos_failures_skip_shrinking_and_carry_the_plan(
            self, tmp_path, lossy_backend):
        artifacts = str(tmp_path / "artifacts")
        report = fuzz(budget=6, seed=5, backends=[lossy_backend],
                      families=["deaggregation", "table-fill"],
                      chaos=True, chaos_faults=1, artifacts_dir=artifacts)
        assert not report.ok
        failure = report.failures[0]
        assert failure.chaos_plan is not None
        # Un-shrunk: the fault schedule is keyed to op indices.
        assert len(failure.shrunk_ops) == failure.scenario.num_ops
        assert "chaos plan" in failure.describe()
        assert failure.repro_path and os.path.exists(failure.repro_path)
        saved = load_repro(failure.repro_path)
        assert "chaos plan" in saved.notes
