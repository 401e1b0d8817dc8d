"""Budgeted, resumable verification of a session's state digests.

A scrub *pass* re-derives the digest of the live state from scratch and
compares it with the incrementally maintained one.  Passes are split
into *steps* of at most ``entries_per_step`` hashed entries so a long
pass can interleave with request handling (the daemon runs one step per
scrub tick, under the same lock as mutations — each step is bounded, the
pass cursor survives between ticks).  A mutation between steps bumps the
session sequence and invalidates the cursor; the pass restarts rather
than comparing a digest of mixed-epoch state.

Backend dispatch is structural:

* **native net** (``DeltaNet``): entries are hashed in-process against
  the net's live accumulators.
* **generic** (rule-set digests): a single-step pass recomputing the
  rule digest twice — a stability check only, since the generic digest
  is already derived on demand.

A scrub detects; it does not repair.  Reports and counters keep the
``repaired``/``escalated`` lists and ``repairs``/``escalations`` counts
of the wire protocol, always empty and zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.integrity.digest import LabelDigest


class ScrubReport(dict):
    """A completed-pass report; a plain dict with an ``ok`` property."""

    @property
    def ok(self) -> bool:
        return bool(self.get("clean"))


def _fresh_counters() -> Dict[str, int]:
    return {
        "passes": 0,        # completed full passes
        "steps": 0,         # budgeted steps executed
        "entries": 0,       # entries re-hashed across all steps
        "restarts": 0,      # passes abandoned because state mutated
        "mismatches": 0,    # digest divergences detected
        "repairs": 0,       # wire-protocol field: always 0
        "escalations": 0,   # wire-protocol field: always 0
    }


class Scrubber:
    """Drives scrub passes over one :class:`VerificationSession`."""

    def __init__(self, session, entries_per_step: int = 4096) -> None:
        self.session = session
        self.entries_per_step = max(1, int(entries_per_step))
        self.counters = _fresh_counters()
        self.last_report: Optional[ScrubReport] = None
        self._cursor: Optional[dict] = None

    # -- backend dispatch ------------------------------------------------------

    def _nets(self) -> Optional[List[object]]:
        native = getattr(self.session.backend, "native", None)
        if native is None:
            return None
        if hasattr(native, "recompute_state_digest"):
            return [native]
        return None

    # -- the stepping engine ---------------------------------------------------

    def step(self) -> dict:
        """Run one budgeted scrub step; returns a progress dict.

        The returned dict always has ``pass_complete``; when ``True`` it
        is the full :class:`ScrubReport` for the finished pass.
        """
        self.counters["steps"] += 1
        cursor = self._cursor
        if cursor is not None and cursor["seq"] != self.session.sequence:
            self._cursor = cursor = None
            self.counters["restarts"] += 1
        if cursor is None:
            cursor = self._cursor = self._start_pass()
        if cursor["mode"] == "nets":
            return self._step_nets(cursor)
        return self._step_generic(cursor)

    def run_full(self) -> ScrubReport:
        """Run steps until the current pass completes (caller holds the
        session lock, so the sequence guard cannot trip mid-run)."""
        while True:
            progress = self.step()
            if progress.get("pass_complete"):
                return self.last_report

    def _start_pass(self) -> dict:
        seq = self.session.sequence
        nets = self._nets()
        if nets is not None:
            return {
                "mode": "nets", "seq": seq, "nets": nets, "net_idx": 0,
                "links": None, "link_idx": 0,
                "label_acc": None, "bounds_done": False,
                "entries": 0, "mismatches": [],
            }
        return {"mode": "generic", "seq": seq}

    # -- in-process nets: budgeted entry iteration ------------------------------

    def _step_nets(self, cursor: dict) -> dict:
        budget = self.entries_per_step
        while budget > 0:
            if cursor["net_idx"] >= len(cursor["nets"]):
                return self._finish_nets_pass(cursor)
            net = cursor["nets"][cursor["net_idx"]]
            if cursor["links"] is None:
                cursor["links"] = list(net.findex.by_link)
                cursor["link_idx"] = 0
                cursor["label_acc"] = LabelDigest()
                cursor["bounds_done"] = False
            if cursor["link_idx"] < len(cursor["links"]):
                link = cursor["links"][cursor["link_idx"]]
                cursor["link_idx"] += 1
                runs = net.findex.by_link.get(link)
                if runs is not None:
                    cursor["label_acc"].add_runs(link, runs.runs())
                    cost = len(runs)
                    budget -= cost
                    cursor["entries"] += cost
                    self.counters["entries"] += cost
                continue
            if not cursor["bounds_done"]:
                # The boundary map is one chunk: its size is O(rules),
                # small next to the label entries.
                bounds_acc = net.atoms.recompute_digest()
                count = bounds_acc.count
                budget -= count
                cursor["entries"] += count
                self.counters["entries"] += count
                cursor["bounds_done"] = True
                self._compare_net(cursor, net, bounds_acc)
                continue
            cursor["net_idx"] += 1
            cursor["links"] = None
        return {"pass_complete": False, "net": cursor["net_idx"],
                "entries": cursor["entries"]}

    def _compare_net(self, cursor: dict, net, bounds_acc) -> None:
        live_label = net.findex.digest
        live_bounds = net.atoms.digest
        if live_label is None or live_bounds is None:
            return  # digests disabled: nothing incremental to audit
        if live_label.as_tuple() != cursor["label_acc"].as_tuple():
            cursor["mismatches"].append(
                {"net": cursor["net_idx"], "component": "labels"})
        if live_bounds.as_tuple() != bounds_acc.as_tuple():
            cursor["mismatches"].append(
                {"net": cursor["net_idx"], "component": "boundaries"})

    def _finish_nets_pass(self, cursor: dict) -> ScrubReport:
        self.counters["mismatches"] += len(cursor["mismatches"])
        report = ScrubReport(
            pass_complete=True, mode="nets", sequence=cursor["seq"],
            nets=len(cursor["nets"]), entries=cursor["entries"],
            mismatches=cursor["mismatches"],
            clean=not cursor["mismatches"], repaired=[], escalated=[],
        )
        return self._finish_pass(report)

    # -- generic backends: digest stability only --------------------------------

    def _step_generic(self, cursor: dict) -> dict:
        backend = self.session.backend
        digest = getattr(backend, "state_digest", lambda: None)()
        again = getattr(backend, "state_digest", lambda: None)()
        entries = len(getattr(backend, "_rules", ()) or ())
        self.counters["entries"] += entries
        mismatches = []
        if digest != again:
            mismatches.append({"component": "rules"})
            self.counters["mismatches"] += 1
        report = ScrubReport(
            pass_complete=True, mode="generic", sequence=cursor["seq"],
            entries=entries, digest=digest, mismatches=mismatches,
            clean=not mismatches, repaired=[], escalated=[],
        )
        return self._finish_pass(report)

    def _finish_pass(self, report: ScrubReport) -> ScrubReport:
        self.counters["passes"] += 1
        self.last_report = report
        self._cursor = None
        return report

    def status(self) -> dict:
        """Counters plus the last pass verdict, for ``health`` reports."""
        out = dict(self.counters)
        out["last_pass_clean"] = (
            None if self.last_report is None else self.last_report.ok)
        return out
