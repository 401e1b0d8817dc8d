"""Chaos plans and the crash-replay harness.

The harness's contract: faults cost recovery time, never correctness —
after every injected crash, torn tail or checkpoint crash, the delivered
per-op violation stream still equals the fault-free sweep oracle's.
"""

from repro.faults.chaos import (
    CHAOS_KINDS, CHECKPOINT_WINDOWS, ChaosPlan, FaultEvent, _tear_journal,
    chaos_replay,
)
from repro.scenarios import SweepOracle, build_scenario, diff_streams
from repro.scenarios.runner import run_chaos_scenario


def small_scenario(seed=3):
    return build_scenario("table-fill", seed=seed, scale=0.25)


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        assert (ChaosPlan.random(11, 200).events
                == ChaosPlan.random(11, 200).events)

    def test_different_seeds_differ(self):
        plans = {tuple(ChaosPlan.random(seed, 500, faults=6).events)
                 for seed in range(8)}
        assert len(plans) > 1

    def test_state_roundtrip(self):
        plan = ChaosPlan.random(7, 300, faults=6)
        clone = ChaosPlan.from_state(plan.to_state())
        assert clone.seed == plan.seed and clone.events == plan.events

    def test_events_stay_in_range_and_known(self):
        plan = ChaosPlan.random(5, 40, faults=10)
        assert len(plan.events) == 10
        for event in plan.events:
            assert 0 <= event.op_index < 40
            assert event.kind in CHAOS_KINDS
            if event.kind == "checkpoint-crash":
                assert event.detail in CHECKPOINT_WINDOWS

    def test_more_faults_than_ops_is_clamped(self):
        assert len(ChaosPlan.random(1, 3, faults=10).events) == 3

    def test_describe_mentions_every_event(self):
        plan = ChaosPlan(seed=1, events=[
            FaultEvent(op_index=4, kind="torn-tail"),
            FaultEvent(op_index=9, kind="checkpoint-crash", shard=1,
                       detail="journal-tmp")])
        text = plan.describe()
        assert "torn-tail" in text and "journal-tmp" in text


class TestTearJournal:
    def test_refuses_missing_or_empty_journal(self, tmp_path):
        assert not _tear_journal(str(tmp_path / "absent.bin"))

    def test_tears_the_last_record(self, tmp_path):
        from repro.core.rules import Rule
        from repro.datasets.format import Op
        from repro.persist.journal import Journal, read_journal

        path = str(tmp_path / "journal.bin")
        journal = Journal.create(path, 0)
        for index in range(3):
            journal.append(Op.insert(Rule.forward(
                index, 0, 16, 1, "a", "b")), index + 1)
        journal.close()
        assert _tear_journal(path)
        data = read_journal(path)
        assert data.torn
        assert [seq for seq, _ in data.records] == [1, 2]


class TestChaosReplay:
    def test_durability_faults_preserve_the_stream(self, tmp_path):
        scenario = small_scenario()
        oracle = SweepOracle(scenario.property_specs, width=scenario.width)
        oracle_stream = oracle.stream(scenario.ops)
        plan = ChaosPlan(seed=0, events=[
            FaultEvent(op_index=9, kind="crash-recover"),
            FaultEvent(op_index=17, kind="torn-tail"),
            FaultEvent(op_index=23, kind="checkpoint-crash",
                       detail="tmp-written"),
            FaultEvent(op_index=29, kind="checkpoint-crash",
                       detail="snapshot-renamed"),
            FaultEvent(op_index=34, kind="checkpoint-crash",
                       detail="journal-tmp"),
        ])
        run = chaos_replay(scenario, "deltanet", plan, str(tmp_path / "s"),
                           checkpoint_every=10)
        assert run.error is None
        assert run.chaos["recoveries"] == 5
        assert diff_streams("deltanet", scenario.ops, oracle_stream,
                            run.delivered) == []

    def test_process_faults_are_skipped_without_workers(self, tmp_path):
        """Plans written when shard workers existed stay replayable:
        their retired process-fault kinds are skipped as unknown."""
        scenario = small_scenario()
        plan = ChaosPlan(seed=0, events=[
            FaultEvent(op_index=5, kind="kill-worker"),
            FaultEvent(op_index=11, kind="blackhole-pipe")])
        run = chaos_replay(scenario, "deltanet", plan, str(tmp_path / "s"))
        assert run.error is None
        assert run.chaos["recoveries"] == 0
        assert len(run.chaos["skipped"]) == 2

    def test_event_past_the_trace_end_still_fires(self, tmp_path):
        scenario = small_scenario()
        plan = ChaosPlan(seed=0, events=[
            FaultEvent(op_index=10 ** 9, kind="crash-recover")])
        run = chaos_replay(scenario, "deltanet", plan, str(tmp_path / "s"))
        assert run.error is None
        assert run.chaos["recoveries"] == 1

    def test_run_chaos_scenario_diffs_against_fault_free_oracle(
            self, tmp_path):
        scenario = small_scenario()
        plan = ChaosPlan.random(scenario.seed, scenario.num_ops, faults=3,
                                kinds=("crash-recover", "torn-tail",
                                       "checkpoint-crash"))
        report = run_chaos_scenario(scenario, ["deltanet", "veriflow"],
                                    plan, str(tmp_path))
        assert report.ok, report.describe()
        for run in report.runs:
            assert run.chaos is not None
            assert run.chaos["plan"] == plan.to_state()
