"""Tests for the `deltanet` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "Berkeley", "-o", "x.ops", "--scale", "0.5"])
        assert args.dataset == "Berkeley" and args.scale == 0.5

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "Nope", "-o", "x"])


class TestCommands:
    def test_datasets_lists_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("Berkeley", "INET", "Airtel1", "4Switch"):
            assert name in out

    def test_generate_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        assert main(["generate", "4Switch", "-o", path, "--scale", "0.2"]) == 0
        assert main(["replay", path, "--engine", "deltanet"]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "atoms=" in out

    def test_replay_veriflow_engine(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--engine", "veriflow"]) == 0
        assert "veriflow" in capsys.readouterr().out

    def test_replay_with_cdf(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--cdf"]) == 0
        assert "CDF" in capsys.readouterr().out

    def test_replay_checkpoint_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        state = str(tmp_path / "ckpt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--checkpoint", state,
                     "--checkpoint-every", "50"]) == 0
        first = capsys.readouterr().out
        assert "cumulative_violations=" in first
        # Resume after a clean run: everything is already applied.
        assert main(["replay", path, "--checkpoint", state,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed at sequence" in out
        assert "0 ops" in out

    def test_replay_crash_resume_matches_uninterrupted(self, tmp_path):
        import os
        import re
        import subprocess
        import sys

        path = str(tmp_path / "ops.txt")
        state = str(tmp_path / "ckpt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])

        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))

        def run_cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "repro"] + list(argv),
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src_dir})
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        uninterrupted = run_cli("replay", path)
        total = re.search(r"(\d+) loops found", uninterrupted).group(1)
        crash = run_cli("replay", path, "--checkpoint", state,
                        "--checkpoint-every", "40", "--stop-after", "90")
        assert "simulated crash" in crash
        resumed = run_cli("replay", path, "--checkpoint", state, "--resume")
        assert f"cumulative_violations={total}" in resumed

    def test_replay_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--resume"]) == 2

    def test_replay_refuses_to_clobber_existing_checkpoint(
            self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        state = str(tmp_path / "ckpt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--checkpoint", state]) == 0
        capsys.readouterr()
        assert main(["replay", path, "--checkpoint", state]) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_serve_parser(self):
        args = build_parser().parse_args(
            ["serve", "--store", "/tmp/x", "--checkpoint-every", "5",
             "--listen", "127.0.0.1:0"])
        assert args.store == "/tmp/x"
        assert args.checkpoint_every == 5
        assert args.listen == "127.0.0.1:0"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])  # --store is required

    def test_whatif(self, capsys):
        assert main(["whatif", "4Switch", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "link-failure queries" in out

    def test_allpairs(self, capsys):
        assert main(["allpairs", "4Switch", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 3" in out and "reachable" in out

    def test_blackholes(self, capsys):
        assert main(["blackholes", "4Switch", "--scale", "0.1"]) == 0
        assert "black-hole" in capsys.readouterr().out

    def test_report_parser(self):
        args = build_parser().parse_args(["report", "-o", "x.md"])
        assert args.output == "x.md"


class TestScenarioCommands:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for family in ("link-flaps", "failover-storm", "bgp-reset",
                       "deaggregation", "acl-injection"):
            assert family in out

    def test_scenario_run_agreeing_backends(self, tmp_path, capsys):
        save = str(tmp_path / "trace.ops")
        assert main(["scenario", "run", "table-fill", "--seed", "4",
                     "--scale", "0.25", "--backends", "deltanet,veriflow",
                     "--save", save]) == 0
        out = capsys.readouterr().out
        assert "agree with the sweep oracle" in out
        # The saved trace replays through the plain replay command.
        assert main(["replay", save, "--engine", "deltanet"]) == 0

    def test_scenario_run_unknown_family_readable(self, capsys):
        assert main(["scenario", "run", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario family" in err
        assert "Traceback" not in err

    def test_scenario_run_unknown_backend_readable(self, capsys):
        assert main(["scenario", "run", "table-fill", "--backends",
                     "warpdrive"]) == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err

    def test_scenario_run_divergence_exits_nonzero(self, tmp_path,
                                                   capsys):
        from repro.api import register_backend, unregister_backend
        from repro.api.backends import DeltaNetBackend

        class Lossy(DeltaNetBackend):
            def loops_for_commit(self, updates, delta):
                return super().loops_for_commit(updates, delta)[:-1]

        register_backend("lossy-cli", Lossy, replace=True)
        try:
            artifacts = str(tmp_path / "artifacts")
            code = main(["scenario", "run", "deaggregation", "--seed",
                         "3", "--scale", "0.3", "--backends",
                         "deltanet,lossy-cli", "--artifacts", artifacts,
                         "--shrink-probes", "40"])
            captured = capsys.readouterr()
            assert code == 1
            assert "diverges from the sweep oracle" in captured.out
            assert "minimized repro" in captured.out
            assert "FAIL" in captured.err
            import os

            assert any(name.endswith(".repro")
                       for name in os.listdir(artifacts))
        finally:
            unregister_backend("lossy-cli")

    def test_replay_diff_oracle_ok(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--diff-oracle"]) == 0
        assert "matches the oracle" in capsys.readouterr().out

    def test_replay_diff_oracle_flag_conflicts(self, tmp_path, capsys):
        path = str(tmp_path / "ops.txt")
        main(["generate", "4Switch", "-o", path, "--scale", "0.1"])
        assert main(["replay", path, "--diff-oracle", "--batch",
                     "16"]) == 2
        assert "--diff-oracle is incompatible" in capsys.readouterr().err


class TestFuzzCommand:
    def test_fuzz_small_budget(self, capsys):
        assert main(["fuzz", "--budget", "2", "--seed", "9",
                     "--backends", "deltanet,veriflow", "-q"]) == 0
        out = capsys.readouterr().out
        assert "2/2 traces" in out and "OK" in out

    def test_fuzz_replay_missing_file_readable(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent.repro"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_fuzz_finds_and_replays_lossy_backend(self, tmp_path,
                                                  capsys):
        from repro.api import register_backend, unregister_backend
        from repro.api.backends import DeltaNetBackend

        class Lossy(DeltaNetBackend):
            def loops_for_commit(self, updates, delta):
                return super().loops_for_commit(updates, delta)[:-1]

        register_backend("lossy-fuzz", Lossy, replace=True)
        try:
            artifacts = str(tmp_path / "artifacts")
            code = main(["fuzz", "--budget", "6", "--seed", "5",
                         "--families", "deaggregation,table-fill",
                         "--backends", "deltanet,lossy-fuzz",
                         "--artifacts", artifacts,
                         "--shrink-probes", "40", "-q"])
            assert code == 1
            out = capsys.readouterr().out
            assert "FAILURE" in out
            import os

            repro_files = [name for name in os.listdir(artifacts)
                           if name.endswith(".repro")]
            assert repro_files
            # With the lossy backend gone the repro no longer diverges.
            path = os.path.join(artifacts, repro_files[0])
            assert main(["fuzz", "--replay", path, "--backends",
                         "deltanet"]) == 0
        finally:
            unregister_backend("lossy-fuzz")
