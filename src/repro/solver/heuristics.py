"""Variable-ordering heuristics shared by branch & bound and elimination.

Ordering drives both the size of bucket-elimination intermediates and the
amount of pruning branch & bound achieves; the ablation benchmark (E12 in
DESIGN.md) compares these policies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..constraints.constraint import SoftConstraint
from ..constraints.variables import Variable

OrderingFn = Callable[
    [Sequence[Variable], Sequence[SoftConstraint]], List[Variable]
]


def given_order(
    variables: Sequence[Variable], constraints: Sequence[SoftConstraint]
) -> List[Variable]:
    """Keep the declaration order."""
    return list(variables)


def min_domain_order(
    variables: Sequence[Variable], constraints: Sequence[SoftConstraint]
) -> List[Variable]:
    """Smallest domain first — classic fail-first for search."""
    return sorted(variables, key=lambda var: (var.size, var.name))


def _interaction_graph(
    variables: Sequence[Variable], constraints: Sequence[SoftConstraint]
) -> Dict[str, set]:
    """Primal graph: variables adjacent when they share a constraint."""
    adjacency: Dict[str, set] = {var.name: set() for var in variables}
    for constraint in constraints:
        names = constraint.support
        for name in names:
            adjacency.setdefault(name, set()).update(
                other for other in names if other != name
            )
    return adjacency


def min_degree_order(
    variables: Sequence[Variable], constraints: Sequence[SoftConstraint]
) -> List[Variable]:
    """Greedy min-degree elimination order on the primal graph.

    Repeatedly removes the variable with the fewest *remaining* neighbours
    and connects its neighbourhood (the standard fill-in simulation) —
    a good proxy for small bucket-elimination intermediates.
    """
    adjacency = _interaction_graph(variables, constraints)
    by_name = {var.name: var for var in variables}
    remaining = set(adjacency)
    order: List[Variable] = []
    while remaining:
        name = min(
            remaining,
            key=lambda n: (len(adjacency[n] & remaining), n),
        )
        neighbours = adjacency[name] & remaining
        for a in neighbours:
            adjacency[a].update(neighbours - {a})
        remaining.discard(name)
        order.append(by_name[name])
    return order


def max_degree_order(
    variables: Sequence[Variable], constraints: Sequence[SoftConstraint]
) -> List[Variable]:
    """Most-constrained variable first — a branching heuristic: assigning
    high-degree variables early makes more constraints fully instantiated
    sooner, tightening the branch & bound bound."""
    if len(variables) < 2:
        return list(variables)
    adjacency = _interaction_graph(variables, constraints)
    return sorted(
        variables,
        key=lambda var: (-len(adjacency[var.name]), var.size, var.name),
    )


ORDERINGS: Dict[str, OrderingFn] = {
    "given": given_order,
    "min-domain": min_domain_order,
    "min-degree": min_degree_order,
    "max-degree": max_degree_order,
}


def resolve_ordering(name_or_fn: str | OrderingFn) -> OrderingFn:
    """Look up a named ordering or pass a custom callable through."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return ORDERINGS[name_or_fn]
    except KeyError:
        known = ", ".join(sorted(ORDERINGS))
        raise ValueError(
            f"unknown ordering {name_or_fn!r}; known: {known}"
        ) from None
