"""The sweep oracle: ground-truth violation streams for differential runs.

The oracle maintains a plain :class:`~repro.core.deltanet.DeltaNet` and,
after **every** operation, recomputes each watched property's *complete*
current violation set with the pre-index sweep checkers
(:mod:`repro.checkers.sweep` — the seed's rebuild-per-check
implementations, deliberately independent of the persistent
forwarding-index fast paths the production backends use).  Delivery
semantics mirror :class:`repro.api.VerificationSession` exactly: a
violation signature is delivered when it enters the current set and
re-armed when it leaves, so the oracle's per-op stream is what any
correct backend's session must deliver.

(For loops the session tracks cycle *liveness* incrementally instead of
re-sweeping: after a commit it re-evaluates only the reported cycles
with a link in ``removed`` of the commit's delta-graphs — a loop can
only break where a link lost flow; added flow, splits and GC'd atoms
change no flow — and asks the backend in its own currency, atom runs on
Delta-net.  For functional forwarding that is equivalent to the set
difference of full sweeps, which is what the oracle computes — precisely
the equivalence the differential fuzzer is there to enforce.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.checkers.sweep import (
    sweep_check_isolation, sweep_check_waypoint, sweep_find_blackholes,
    sweep_find_forwarding_loops, sweep_reachable_atoms,
)
from repro.core.deltanet import DeltaNet
from repro.datasets.format import Op
from repro.scenarios.spec import PropertySpec, ScenarioError

Signature = Tuple[object, ...]


class SweepOracle:
    """Replays a trace, emitting per-op newly-delivered signatures."""

    def __init__(self, property_specs: Sequence[PropertySpec],
                 width: int = 32) -> None:
        self.deltanet = DeltaNet(width=width)
        self._specs: List[Tuple[str, Dict[str, object]]] = [
            (spec.name, dict(spec.options)) for spec in property_specs]
        for name, _options in self._specs:
            if name not in _CHECKS:
                raise ScenarioError(
                    f"the sweep oracle has no checker for property "
                    f"{name!r} (has: {', '.join(sorted(_CHECKS))})")
        self._previous: List[Set[Signature]] = [set() for _ in self._specs]

    def apply(self, op: Op) -> FrozenSet[Signature]:
        """Apply one op; return the signatures a session must deliver."""
        if op.is_insert:
            self.deltanet.insert_rule(op.rule)
        else:
            self.deltanet.remove_rule(op.rid)
        delivered: Set[Signature] = set()
        for index, (name, options) in enumerate(self._specs):
            current = _CHECKS[name](self.deltanet, options)
            delivered |= current - self._previous[index]
            self._previous[index] = current
        return frozenset(delivered)

    def stream(self, ops: Iterable[Op]) -> List[FrozenSet[Signature]]:
        return [self.apply(op) for op in ops]


# -- per-property current-violation sweeps -------------------------------------


def _current_loops(deltanet: DeltaNet, _options: Dict) -> Set[Signature]:
    return {("loop", loop.cycle)
            for loop in sweep_find_forwarding_loops(deltanet)}


def _current_blackholes(deltanet: DeltaNet, options: Dict) -> Set[Signature]:
    holes = sweep_find_blackholes(
        deltanet, expected_sinks=options.get("expected_sinks", ()))
    return {("blackhole", node) for node in holes}


def _current_reachability(deltanet: DeltaNet,
                          options: Dict) -> Set[Signature]:
    src, dst = options["src"], options["dst"]
    expect = options.get("expect_reachable", True)
    reachable = bool(sweep_reachable_atoms(deltanet, src, dst))
    if reachable == expect:
        return set()
    return {("reachability", src, dst, expect)}


def _current_waypoint(deltanet: DeltaNet, options: Dict) -> Set[Signature]:
    src, dst = options["src"], options["dst"]
    waypoint = options["waypoint"]
    leaked = sweep_check_waypoint(deltanet, src, dst, waypoint)
    if not leaked:
        return set()
    return {("waypoint", src, dst, waypoint)}


def _current_isolation(deltanet: DeltaNet, options: Dict) -> Set[Signature]:
    offenders = sweep_check_isolation(deltanet, options["slice_a"],
                                      options["slice_b"])
    return {("isolation", link) for link in offenders}


_CHECKS = {
    "loops": _current_loops,
    "blackholes": _current_blackholes,
    "reachability": _current_reachability,
    "waypoint": _current_waypoint,
    "isolation": _current_isolation,
}
