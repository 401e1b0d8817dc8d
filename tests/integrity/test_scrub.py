"""The budgeted scrubber: clean passes, detection, cursor semantics."""

import random

from repro.api.session import VerificationSession
from repro.integrity import Scrubber

from tests.conftest import random_rules


def make_session(backend="deltanet", count=20, seed=3, **options):
    session = VerificationSession(backend, width=8, **options)
    for rule in random_rules(random.Random(seed), count, width=8,
                             switches=4):
        session.insert(rule)
    return session


class TestCleanPasses:
    def test_full_pass_is_clean_on_healthy_state(self):
        session = make_session()
        scrubber = Scrubber(session)
        report = scrubber.run_full()
        assert report.ok
        assert report["mode"] == "nets"
        assert report["entries"] > 0
        assert scrubber.counters["passes"] == 1
        assert scrubber.counters["mismatches"] == 0
        session.close()

    def test_budgeted_pass_takes_multiple_steps(self):
        session = make_session()
        scrubber = Scrubber(session, entries_per_step=1)
        steps = 0
        while True:
            progress = scrubber.step()
            steps += 1
            if progress.get("pass_complete"):
                break
            assert steps < 10_000, "pass never completed"
        assert steps > 1
        assert scrubber.last_report.ok
        assert scrubber.counters["steps"] == steps
        session.close()

    def test_status_reports_counters_and_verdict(self):
        session = make_session()
        scrubber = Scrubber(session)
        status = scrubber.status()
        assert status["last_pass_clean"] is None
        scrubber.run_full()
        status = scrubber.status()
        assert status["last_pass_clean"] is True
        assert status["passes"] == 1
        session.close()


class TestCursorInvalidation:
    def test_mutation_between_steps_restarts_the_pass(self):
        session = make_session(count=30)
        scrubber = Scrubber(session, entries_per_step=1)
        progress = scrubber.step()
        assert not progress.get("pass_complete")
        # A mutation bumps the sequence; the cursor is now mixed-epoch.
        from repro.core.rules import Rule

        session.insert(Rule.forward(9999, 0, 64, 3, "s0", "s1"))
        scrubber.run_full()
        assert scrubber.counters["restarts"] == 1
        assert scrubber.last_report.ok
        session.close()


class TestDetection:
    def test_tampered_label_digest_is_detected(self):
        session = make_session()
        native = session.backend.native
        # Corrupt the incrementally maintained digest behind the
        # structure's back — the from-scratch recomputation must win.
        native.findex.digest.xor ^= 0xDEADBEEF
        report = Scrubber(session).run_full()
        assert not report.ok
        assert any(m["component"] == "labels" for m in report["mismatches"])
        session.close()

    def test_tampered_boundary_digest_is_detected(self):
        session = make_session()
        native = session.backend.native
        native.atoms.digest.total = (native.atoms.digest.total + 1) & (
            (1 << 64) - 1)
        report = Scrubber(session).run_full()
        assert not report.ok
        assert any(m["component"] == "boundaries"
                   for m in report["mismatches"])
        session.close()

    def test_desynced_structure_is_detected(self):
        # Structure corruption (not digest corruption): toggle a label
        # entry behind the digest's back, as bit rot would.
        session = make_session()
        native = session.backend.native
        runs = next(iter(native.findex.by_link.values()))
        if not runs.add(0):
            runs.discard(0)
        report = Scrubber(session).run_full()
        assert not report.ok
        session.close()


class TestDisabledDigests:
    def test_scrub_skips_comparison_when_disabled(self, monkeypatch):
        monkeypatch.setenv("DELTANET_DIGESTS", "0")
        session = make_session()
        report = Scrubber(session).run_full()
        # Nothing incremental to audit — the pass completes clean
        # rather than crashing or reporting phantom mismatches.
        assert report.ok
        session.close()
