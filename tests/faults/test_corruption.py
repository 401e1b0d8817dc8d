"""Corruption plans and the corruption-replay harness.

The contract is stricter than chaos: a flipped snapshot or journal byte
or a desynchronized label may cost a rebuild, but the delivered per-op
violation stream must still equal the
fault-free sweep oracle's — loud failure or correct answers, never a
silently wrong stream.
"""

import random

import pytest

from repro.faults import (
    CORRUPTION_KINDS, ChaosPlan, FaultEvent, corruption_plan,
    corruption_replay,
)
from repro.faults.corruption import desync_label, flip_byte
from repro.scenarios import SweepOracle, build_scenario, diff_streams
from repro.scenarios.runner import run_corruption_scenario


def small_scenario(seed=3):
    return build_scenario("table-fill", seed=seed, scale=0.25)


class TestPlansAndPrimitives:
    def test_corruption_plan_uses_corruption_kinds(self):
        plan = corruption_plan(9, 60, faults=8)
        assert plan.events
        assert all(event.kind in CORRUPTION_KINDS for event in plan.events)
        assert corruption_plan(9, 60, faults=8).events == plan.events

    def test_flip_byte_changes_exactly_one_bit(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        original = bytes(range(200))
        with open(path, "wb") as stream:
            stream.write(original)
        offset = flip_byte(path, random.Random(5))
        mutated = open(path, "rb").read()
        assert 0 <= offset < len(original)
        assert len(mutated) == len(original)
        delta = [i for i in range(len(original))
                 if mutated[i] != original[i]]
        assert delta == [offset]
        assert bin(mutated[offset] ^ original[offset]).count("1") == 1

    def test_flip_byte_on_empty_region_reports_miss(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        open(path, "wb").close()
        assert flip_byte(path, random.Random(0)) == -1

    @pytest.mark.parametrize("backend,options", [
        ("deltanet", {}), ("deltanet", {"gc": True})])
    def test_desync_label_bypasses_the_digest_and_scrub_sees_it(
            self, backend, options):
        from repro.api import VerificationSession
        from repro.integrity import Scrubber

        scenario = small_scenario(seed=5)
        with VerificationSession(backend, width=scenario.width,
                                 **options) as session:
            for op in scenario.ops[:scenario.num_ops // 2]:
                session.apply(op)
            assert Scrubber(session).run_full().ok
            digest = session.state_digest()
            assert desync_label(session.native)
            assert session.state_digest() == digest
            report = Scrubber(session).run_full()
            assert not report.ok
            assert report["mismatches"] == [{"net": 0, "component": "labels"}]
            assert report["repaired"] == [] and report["escalated"] == []

    def test_desync_label_needs_a_label(self):
        from repro.core.deltanet import DeltaNet

        assert not desync_label(DeltaNet(width=8))


class TestCorruptionReplay:
    def test_file_corruption_never_corrupts_the_stream(self, tmp_path):
        scenario = small_scenario()
        oracle = SweepOracle(scenario.property_specs, width=scenario.width)
        oracle_stream = oracle.stream(scenario.ops)
        plan = ChaosPlan(seed=0, events=[
            FaultEvent(op_index=8, kind="flip_snapshot_byte"),
            FaultEvent(op_index=16, kind="flip_journal_payload"),
            FaultEvent(op_index=27, kind="flip_snapshot_byte"),
        ])
        run = corruption_replay(scenario, "deltanet", plan,
                                str(tmp_path / "s"), checkpoint_every=10)
        assert run.error is None, run.error
        assert run.chaos["injected"], "no corruption actually landed"
        assert (run.chaos["recoveries"] + run.chaos["rebuilds"]) >= 1
        assert diff_streams("deltanet", scenario.ops, oracle_stream,
                            run.delivered) == []

    @pytest.mark.parametrize("backend,options", [
        ("deltanet", {}), ("deltanet", {"gc": True})])
    def test_desync_is_detected_and_stream_matches_oracle(
            self, tmp_path, backend, options):
        # The acceptance scenario: a label desynchronized behind its
        # digest's back must be caught by one full scrub pass, the
        # harness must rebuild loudly, and the stream must match the
        # fault-free oracle byte for byte.
        scenario = small_scenario(seed=5)
        plan = ChaosPlan(seed=0, events=[
            FaultEvent(op_index=scenario.num_ops // 2,
                       kind="desync_label", shard=1)])
        run = corruption_replay(scenario, backend, plan,
                                str(tmp_path / "s"), **options)
        assert run.error is None, run.error
        assert run.chaos["detections"] == 1 and run.chaos["rebuilds"] == 1
        assert not run.chaos["skipped"]
        oracle = SweepOracle(scenario.property_specs, width=scenario.width)
        assert diff_streams(backend, scenario.ops,
                            oracle.stream(scenario.ops),
                            run.delivered) == []

    def test_run_corruption_scenario_reports_ok(self, tmp_path):
        scenario = small_scenario(seed=7)
        plan = corruption_plan(scenario.seed, scenario.num_ops, faults=3)
        report = run_corruption_scenario(scenario, ["deltanet"], plan,
                                         str(tmp_path))
        assert report.ok, report.describe()
        for run in report.runs:
            assert run.chaos is not None
            assert run.chaos["plan"] == plan.to_state()


class TestFrameMutation:
    def test_protocol_surface_holds_under_mutation(self, tmp_path):
        from repro.fuzz.frames import frame_mutation_trial

        scenario = small_scenario(seed=11)
        problems = frame_mutation_trial(scenario, "deltanet",
                                        str(tmp_path / "frames"),
                                        random.Random(11),
                                        mutation_rate=0.5)
        assert problems == []


class TestCorruptFuzzCampaign:
    def test_small_campaign_is_clean(self, tmp_path):
        from repro.fuzz import fuzz

        report = fuzz(budget=2, seed=17, backends=["deltanet"],
                      corrupt=True)
        assert report.ok, report.describe()
        assert report.corrupt
        assert report.frame_trials == 2

    def test_chaos_and_corrupt_are_exclusive(self):
        from repro.fuzz import fuzz

        with pytest.raises(ValueError):
            fuzz(budget=1, chaos=True, corrupt=True)
