"""Goal-directed query evaluation (the planner behind ``run_query``).

Two evaluation strategies produce the same :class:`~repro.query.model.
QueryResult` envelope:

* :func:`evaluate_generic` composes the uniform adapter primitives
  (``flows_on``/``reachable``/``what_if_link_down``/``find_loops``) —
  correct on every registered backend, including ones whose natives have
  no atom currency (``atoms``/``subgraph`` stay ``None``).
* :func:`evaluate_deltanet` / :func:`evaluate_sharded` plan against the
  live Delta-net structures directly.  The planner restricts work to the
  atom set and link subgraph the query can touch: a ``LinkDown`` query
  reads ``owner[atom]`` for the failed link's atoms only — each owning
  source names the one link it sends the atom on, so the affected
  subgraph costs its own size, never one pass per labelled link — a
  ``Reachable`` query materializes masks only for links its BFS frontier
  crosses, and the loop sweep of ``LinkDown(loops=True)`` chases only
  the affected atoms, from those same owning sources, following each by
  ``DeltaNet.next_hop``.

Span results are canonical interval lists, so a query answers
bit-identically on every backend (``tests/api/test_cross_backend.py``).
"""

from __future__ import annotations

from repro.query.model import (
    FlowsOn, LinkDown, Query, QueryResult, QUERY_KINDS, Reachable, as_link,
)


def _kind(query: Query) -> str:
    kind = QUERY_KINDS.get(type(query))
    if kind is None:
        raise TypeError(f"not a Query: {query!r}")
    return kind


def evaluate_generic(backend, query: Query) -> QueryResult:
    """Evaluate ``query`` through the uniform adapter primitives.

    Works on any object satisfying the :class:`~repro.api.registry.
    BackendAdapter` query surface.  ``LinkDown(loops=True)`` has no
    affected-subgraph notion here, so it reports every loop a full sweep
    finds — a superset of the Delta-net planners' subgraph-restricted
    answer.
    """
    kind = _kind(query)
    result = QueryResult(kind=kind, backend=getattr(backend, "name", "?"))
    if isinstance(query, FlowsOn):
        result.spans = backend.flows_on(as_link(query.link))
    elif isinstance(query, Reachable):
        result.spans = backend.reachable(query.src, query.dst)
    elif isinstance(query, LinkDown):
        result.spans = backend.what_if_link_down(as_link(query.link))
        if query.loops and result.spans:
            result.violations = backend.find_loops()
    else:
        result.violations = backend.find_loops()
    return result


def evaluate_deltanet(net, query: Query, backend: str = "deltanet") -> QueryResult:
    """Goal-directed evaluation against one live :class:`DeltaNet`."""
    from repro.checkers.loops import distinct_cycles, find_forwarding_loops
    from repro.checkers.reachability import reachable_atoms
    from repro.checkers.whatif import link_failure_impact
    from repro.core.atomset import atoms_to_interval_set

    kind = _kind(query)
    result = QueryResult(kind=kind, backend=backend)
    if isinstance(query, FlowsOn):
        runs = net.label.get(as_link(query.link))
        atoms = sorted(runs) if runs else []
        result.atoms = atoms
        result.spans = atoms_to_interval_set(atoms, net.atoms)
    elif isinstance(query, Reachable):
        atoms = reachable_atoms(net, query.src, query.dst)
        result.atoms = sorted(atoms)
        result.spans = atoms_to_interval_set(atoms, net.atoms)
    elif isinstance(query, LinkDown):
        impact = link_failure_impact(net, as_link(query.link),
                                     check_loops=query.loops)
        result.atoms = sorted(impact.affected_atoms)
        result.subgraph = {link: sorted(atoms)
                           for link, atoms in impact.affected_subgraph.items()}
        result.spans = impact.affected_intervals(net)
        result.violations = distinct_cycles(impact.loops)
    else:
        result.violations = distinct_cycles(find_forwarding_loops(net))
    return result


def evaluate_sharded(sharded, query: Query, backend: str = "sharded") -> QueryResult:
    """Goal-directed evaluation fanned over a ShardedDeltaNet's shards.

    Spans merge across shards; atom ids do not (each shard numbers its
    own atom universe), so ``atoms``/``subgraph`` stay ``None`` here.
    """
    from repro.checkers.loops import distinct_cycles, find_forwarding_loops
    from repro.checkers.reachability import reachable_atoms
    from repro.core.atomset import atoms_to_interval_set
    from repro.core.intervals import normalize

    kind = _kind(query)
    result = QueryResult(kind=kind, backend=backend)
    if isinstance(query, FlowsOn):
        result.spans = sharded.flows_on(as_link(query.link))
    elif isinstance(query, Reachable):
        spans = []
        for net in sharded.nets:
            atoms = reachable_atoms(net, query.src, query.dst)
            spans.extend(atoms_to_interval_set(atoms, net.atoms))
        result.spans = normalize(spans)
    elif isinstance(query, LinkDown):
        link = as_link(query.link)
        result.spans = sharded.flows_on(link)
        if query.loops:
            loops = []
            for net in sharded.nets:
                loops.extend(find_forwarding_loops(
                    net, atoms=net.label.get(link, ())))
            result.violations = distinct_cycles(loops)
    else:
        result.violations = distinct_cycles(sharded.find_loops())
    return result
