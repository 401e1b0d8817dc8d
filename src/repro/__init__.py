"""Delta-net: Real-time Network Verification Using Atoms (NSDI 2017).

A complete, from-scratch Python reproduction of Horn, Kheradmand &
Prasad's Delta-net data-plane checker and everything its evaluation
depends on: the Veriflow-RI baseline, an atomic-predicates verifier, a
NetPlumber-style plumbing graph, topology/BGP/routing substrates, an
SDN-IP control-plane emulation, dataset generators for all eight Table 2
workloads, and the replay and analysis harness behind every table and
figure.

Quickstart — the unified session API::

    from repro import (VerificationSession, LoopProperty,
                       BlackholeProperty, ReachabilityProperty)

    session = VerificationSession("deltanet")   # or "veriflow", "apv",
                                                # "netplumber"
    session.watch(LoopProperty())
    session.watch(BlackholeProperty())
    session.watch(ReachabilityProperty("s1", "s2"))

    rule = session.make_rule(0, "10.0.0.0/8", priority=10,
                             source="s1", target="s2")
    result = session.insert(rule)       # checked incrementally
    result.violations                   # new loop/blackhole/... alerts
    result.latency                      # seconds, per paper §4.3.1

    with session.batch() as txn:        # aggregate into one delta-graph
        session.insert(r1)
        session.remove(2)
    txn.result.violations

    from repro import FlowsOn, Reachable, LinkDown, Loops

    session.query(FlowsOn(("s1", "s2")))        # uniform typed queries,
    session.query(Reachable("s1", "s2"))        # any backend — one
    session.query(LinkDown(("s1", "s2")))       # QueryResult envelope
    session.query(Loops())

    child = session.speculate()         # copy-on-write what-if fork
    child.insert(candidate_rule)        # invisible to the parent
    child.query(Loops())                # evaluated against the fork
    child.commit()                      # or child.discard()

Every backend is constructed, fed updates, and queried identically; see
``available_backends()`` and ``docs/api.md``.  The original classes
(``DeltaNet``, ``VeriflowRI``, ``APVerifier``, ``NetPlumber``) and the
``repro.checkers`` functions remain
importable for direct, backend-specific use — new code should prefer the
session API.
"""

from repro.core import (
    AtomTable, DeltaGraph, DeltaNet, Interval, IntervalSet, Link, Rule,
    prefix_to_interval,
)
from repro.checkers import (
    LoopChecker, all_pairs_reachability, find_forwarding_loops,
    link_failure_impact, reachable_atoms,
)
from repro.veriflow import VeriflowRI
from repro.apv import APVerifier
from repro.netplumber import NetPlumber
from repro.api import (
    BackendAdapter, BackendUpdate, BlackholeProperty, FlowsOn,
    IsolationProperty, LinkDown, LoopProperty, Loops, Property,
    QueryResult, Reachable, ReachabilityProperty, SpeculativeSession,
    StaleSpeculationError, UnknownBackendError, UpdateResult,
    VerificationSession, Violation, WaypointProperty, available_backends,
    create_backend, register_backend,
)

__version__ = "1.1.0"

__all__ = [
    # the unified API (preferred entry point)
    "VerificationSession", "UpdateResult", "Violation",
    "FlowsOn", "Reachable", "LinkDown", "Loops", "QueryResult",
    "SpeculativeSession", "StaleSpeculationError",
    "BackendAdapter", "BackendUpdate", "UnknownBackendError",
    "available_backends", "create_backend", "register_backend",
    "Property", "LoopProperty", "BlackholeProperty",
    "ReachabilityProperty", "WaypointProperty", "IsolationProperty",
    # core structures
    "AtomTable", "DeltaGraph", "DeltaNet", "Interval", "IntervalSet",
    "Link", "Rule", "prefix_to_interval",
    # checkers (legacy direct entry points)
    "LoopChecker", "all_pairs_reachability", "find_forwarding_loops",
    "link_failure_impact", "reachable_atoms",
    # native verifiers (legacy direct entry points)
    "VeriflowRI", "APVerifier", "NetPlumber",
    "__version__",
]
