"""The correctness checks actually check: a replay with one op dropped,
and a hub reply stream with one ``ok: false``, must make the runner exit
non-zero and report ``failed_share > 0``."""

import json

import pytest

from layers import run


@pytest.mark.parametrize("workload, fault", [
    ("churn-core", "drop-op"),
    ("churn-session", "drop-op"),
    ("restart", "drop-op"),
    ("serve-hub", "bad-reply"),
])
def test_injected_fault_fails_the_run(workload, fault, capsys):
    argv = ["--workload", workload, "--scale", "0.02", "--seconds", "6"]
    assert run.main(argv) == 0
    clean = capsys.readouterr().out
    assert json.loads(clean.splitlines()[-1])["correct"] is True

    assert run.main(argv + ["--fault", fault]) != 0
    out = capsys.readouterr().out
    verdict = json.loads(out.splitlines()[-1])
    assert verdict["correct"] is False and verdict["failed"] >= 1
    share = [line for line in out.splitlines() if "failed_share" in line]
    assert float(share[0].split()[1]) > 0
    assert "FAILED:" in out
