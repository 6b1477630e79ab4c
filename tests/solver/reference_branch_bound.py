"""The one-constraint-lookahead branch & bound, kept as a test oracle.

Before bucket-elimination bounds replaced it, ``solve_branch_bound``
bounded a node by its accumulated value ``⊗`` the best value of every
constraint with exactly one unassigned variable.  Its blevel, optima
and their order are what the message-bounded search must reproduce on
every semiring where ``×`` is monotone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.constraints.constraint import SoftConstraint
from repro.constraints.variables import Variable
from repro.solver import DenseFactor, resolve_lowering, resolve_ordering
from repro.solver.heuristics import OrderingFn
from repro.solver.problem import SCSP, SolverResult, SolverStats

from .elimination_oracle import dense_hide


def reference_branch_bound(
    problem: SCSP,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
) -> SolverResult:
    """The pre-message solver, unchanged apart from inlining its
    best-over-variable tables and dropping telemetry."""
    semiring = problem.semiring
    lowering = resolve_lowering(semiring, backend)
    order = resolve_ordering(ordering)(problem.variables, problem.constraints)
    stats = SolverStats()

    # For each prefix depth, which constraints become fully assigned when
    # the variable at that depth gets a value (and were not before).
    position = {var.name: depth for depth, var in enumerate(order)}
    activation: List[List[SoftConstraint]] = [[] for _ in order]
    one_left: List[List[tuple[SoftConstraint, Variable]]] = [
        [] for _ in order
    ]
    for constraint in problem.constraints:
        depths = [position[name] for name in constraint.support]
        last = max(depths) if depths else -1
        if last >= 0:
            activation[last].append(constraint)
            second_last = sorted(depths)[-2] if len(depths) > 1 else -1
            # After depth ``second_last`` the constraint has exactly
            # one unassigned variable: the one at depth ``last``.
            if second_last < last:
                pending_var = order[last]
                if second_last >= 0:
                    one_left[second_last].append(
                        (constraint, pending_var)
                    )

    empty_scope = [c for c in problem.constraints if not c.scope]
    base_value = semiring.prod(c.value({}) for c in empty_scope) if (
        empty_scope
    ) else semiring.one

    incumbent: Any = semiring.zero
    witnesses: List[Dict[str, Any]] = []
    assignment: Dict[str, Any] = {}
    con_set = set(problem.con)

    # Dense fast path: the best value of a one-variable-left constraint
    # over that variable's domain, for *every* context at once, is one
    # plus-ufunc reduction of its dense factor — an O(1) table lookup in
    # the search loop instead of a |domain|-wide re-evaluation.
    best_tables: Optional[List[List[Any]]] = None
    if lookahead and lowering is not None:
        best_tables = [
            [
                dense_hide(
                    DenseFactor.from_constraint(constraint, lowering),
                    pending.name,
                ).to_table()
                for constraint, pending in entries
            ]
            for entries in one_left
        ]

    def lookahead_bound(depth: int) -> Any:
        bound = semiring.one
        if best_tables is not None:
            for best_table in best_tables[depth]:
                bound = semiring.times(
                    bound, best_table.value(assignment)
                )
            return bound
        for constraint, pending in one_left[depth]:
            best = semiring.zero
            for value in pending.domain:
                assignment[pending.name] = value
                best = semiring.plus(best, constraint.value(assignment))
            del assignment[pending.name]
            bound = semiring.times(bound, best)
        return bound

    def descend(depth: int, accumulated: Any) -> None:
        nonlocal incumbent, witnesses
        if depth == len(order):
            stats.leaves_evaluated += 1
            if semiring.gt(accumulated, incumbent):
                incumbent = accumulated
                stats.incumbent_improvements += 1
                witnesses = [dict(assignment)]
            elif (
                semiring.equiv(accumulated, incumbent)
                and incumbent != semiring.zero
            ):
                # `equiv` (not raw `==`) so float semirings recognize ties
                # that differ by an ulp after long ⊗ chains.
                witnesses.append(dict(assignment))
            return
        var = order[depth]
        for value in var.domain:
            stats.nodes_expanded += 1
            assignment[var.name] = value
            bound = accumulated
            for constraint in activation[depth]:
                bound = semiring.times(bound, constraint.value(assignment))
            node_value = bound
            if lookahead and semiring.geq(bound, incumbent):
                bound = semiring.times(bound, lookahead_bound(depth))
            if semiring.lt(bound, incumbent):
                stats.prunes += 1
            else:
                descend(depth + 1, node_value)
            del assignment[var.name]

    descend(0, base_value)

    blevel = incumbent
    seen: set = set()
    projected: List[Dict[str, Any]] = []
    for witness in witnesses:
        key = tuple(
            sorted((k, v) for k, v in witness.items() if k in con_set)
        )
        if key not in seen:
            seen.add(key)
            projected.append(dict(key))
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=[blevel],
        optima=[projected],
        method="branch-bound",
        stats=stats,
    )
