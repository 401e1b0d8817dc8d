"""The first-class Query API: typed queries, one result envelope.

Construct a query dataclass, hand it to
:meth:`repro.api.session.VerificationSession.query` (or a backend's
``run_query``), get back a :class:`QueryResult`::

    from repro.query import FlowsOn, LinkDown

    session.query(FlowsOn(("s1", "s2"))).spans
    session.query(LinkDown(("s1", "s2"), loops=True)).violations

This package depends only on the core structures and checkers — never
on :mod:`repro.api` — so backends and sessions can import it freely.
"""

from repro.query.model import (
    Cycle, FlowsOn, LinkDown, Loops, Query, QueryPayloadError, QueryResult,
    QUERY_KINDS, Reachable, Spans, as_link, query_from_payload,
    query_to_payload,
)
from repro.query.planner import evaluate_deltanet, evaluate_generic

__all__ = [
    "Cycle",
    "FlowsOn",
    "LinkDown",
    "Loops",
    "Query",
    "QueryPayloadError",
    "QueryResult",
    "QUERY_KINDS",
    "Reachable",
    "Spans",
    "as_link",
    "evaluate_deltanet",
    "evaluate_generic",
    "query_from_payload",
    "query_to_payload",
]
