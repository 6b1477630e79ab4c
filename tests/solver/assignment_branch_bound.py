"""The message-bounded branch & bound reading constraints by assignment.

Before the search addressed factors by domain index, every node built an
assignment dict and called ``value()`` on each activated constraint and
each covering message.  That search is kept here, messages built with
table ``combine``/``hide`` (bit-identical to the dense kernels), as the
oracle pinning that reading by index changes neither an answer nor a
:class:`~repro.solver.problem.SolverStats` field.
"""

from __future__ import annotations

from typing import Any, Dict, List

import repro.solver.branch_bound as branch_bound
from repro.constraints.constraint import SoftConstraint
from repro.constraints.operations import combine
from repro.constraints.table import TableConstraint, to_table
from repro.constraints.variables import assignment_space_size, merge_scopes
from repro.solver import resolve_ordering
from repro.solver.heuristics import OrderingFn
from repro.solver.problem import SCSP, SolverResult, SolverStats


def assignment_branch_bound(
    problem: SCSP,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
) -> SolverResult:
    """The search as it stood, telemetry dropped; honours a patched
    ``branch_bound._MATERIALIZE_LIMIT`` when skipping wide buckets."""
    semiring = problem.semiring
    order = resolve_ordering(ordering)(problem.variables, problem.constraints)
    stats = SolverStats()

    position = {var.name: depth for depth, var in enumerate(order)}
    activation: List[List[SoftConstraint]] = [[] for _ in order]
    for constraint in problem.constraints:
        if constraint.scope:
            last = max(position[name] for name in constraint.support)
            activation[last].append(constraint)

    empty_scope = [c for c in problem.constraints if not c.scope]
    base_value = semiring.prod(c.value({}) for c in empty_scope) if (
        empty_scope
    ) else semiring.one

    covering: List[List[TableConstraint]] = [[] for _ in order]
    exact = False
    if lookahead and semiring.times_monotone and len(order) > 1:
        covering, exact = _messages(problem, order, activation)

    incumbent: Any = semiring.zero
    cutoff: Any = semiring.zero
    witnesses: List[Dict[str, Any]] = []
    assignment: Dict[str, Any] = {}

    def node_value(depth: int, accumulated: Any) -> Any:
        for constraint in activation[depth]:
            accumulated = semiring.times(
                accumulated, constraint.value(assignment)
            )
        return accumulated

    def node_bound(depth: int, value: Any) -> Any:
        for message in covering[depth]:
            value = semiring.times(value, message.value(assignment))
        return value

    def cut(bound: Any) -> bool:
        return semiring.lt(bound, cutoff) and not semiring.equiv(
            bound, cutoff
        )

    def descend(depth: int, accumulated: Any) -> None:
        nonlocal incumbent, cutoff, witnesses
        if depth == len(order):
            stats.leaves_evaluated += 1
            if semiring.gt(accumulated, incumbent):
                incumbent = accumulated
                cutoff = semiring.plus(cutoff, incumbent)
                stats.incumbent_improvements += 1
                witnesses = [dict(assignment)]
            elif (
                semiring.equiv(accumulated, incumbent)
                and incumbent != semiring.zero
            ):
                witnesses.append(dict(assignment))
            return
        var = order[depth]
        for index, value in enumerate(var.domain):
            stats.nodes_expanded += 1
            assignment[var.name] = value
            if depth:
                node = node_value(depth, accumulated)
            else:
                node, bound = root[index]
            if semiring.lt(node, incumbent) or cut(
                node_bound(depth, node) if depth else bound
            ):
                stats.prunes += 1
            else:
                descend(depth + 1, node)
            del assignment[var.name]

    root = []
    for value in order[0].domain if order else ():
        assignment[order[0].name] = value
        node = node_value(0, base_value)
        root.append((node, node_bound(0, node)))
    assignment.clear()
    if exact:
        cutoff = semiring.sum(bound for _, bound in root)
    descend(0, base_value)

    seen: set = set()
    projected: List[Dict[str, Any]] = []
    for witness in witnesses:
        key = tuple(
            sorted((k, v) for k, v in witness.items() if k in problem.con)
        )
        if key not in seen:
            seen.add(key)
            projected.append(dict(key))
    return SolverResult(
        problem=problem,
        blevel=incumbent,
        frontier=[incumbent],
        optima=[projected],
        method="branch-bound",
        stats=stats,
    )


def _messages(problem, order, activation):
    semiring = problem.semiring
    position = {var.name: depth for depth, var in enumerate(order)}
    buckets = [list(constraints) for constraints in activation]
    covering: List[List[TableConstraint]] = [[] for _ in order]
    exact = True
    for depth in range(len(order) - 1, 0, -1):
        bucket = buckets[depth]
        if not bucket:
            continue
        scope = merge_scopes(*(factor.scope for factor in bucket))
        if assignment_space_size(scope) > branch_bound._MATERIALIZE_LIMIT:
            exact = False
            continue
        message = to_table(
            combine([to_table(f) for f in bucket], semiring=semiring)
            .hide(order[depth].name)
        )
        target = max((position[n] for n in message.support), default=-1)
        if target > 0:
            buckets[target].append(message)
        for covered in range(max(target, 0), depth):
            covering[covered].append(message)
    return covering, exact
