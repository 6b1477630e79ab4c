"""Depth-first branch & bound for totally ordered semirings.

Exploits ``×``-monotonicity (``a × b ≤S a``, the absorptive law): the
combined value of a completion can never beat the combination of the
constraints already fully instantiated, so that combination is a sound
upper bound and subtrees strictly worse than the incumbent are pruned.

Bucket-elimination messages over the search order (Kask & Dechter, AIJ
2001) tighten that bound to the *exact* best completion, and the root's
bounds ``⊕`` to the blevel, which seeds the prune threshold.  This needs
monotone, distributive ``×``
(:attr:`~repro.semirings.base.Semiring.times_monotone`); Lexicographic
problems, where tie-collapse breaks it, prune on the accumulated value.

Only valid when ``≤S`` is total (Boolean, Fuzzy, Probabilistic, Weighted,
Lexicographic); for partial orders (Set-based, products) use exhaustive
search or bucket elimination.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..constraints.constraint import SoftConstraint
from ..constraints.operations import combine
from ..constraints.store import _MATERIALIZE_LIMIT
from ..constraints.table import TableConstraint, to_table
from ..constraints.variables import Variable, assignment_space_size, merge_scopes
from ..telemetry import get_tracer
from .heuristics import OrderingFn, resolve_ordering
from .kernels import DenseFactor, KernelError, Lowering, combine_factors
from .kernels import resolve_lowering
from .problem import (
    SCSP,
    ProblemError,
    SolverResult,
    SolverStats,
    record_solve_metrics,
)


def solve_branch_bound(
    problem: SCSP,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
) -> SolverResult:
    """Find the blevel and all optimal ``con``-assignments by DFS + pruning.

    ``lookahead`` bounds each node by the bucket-elimination messages
    that cover its depth (ablated in the E12 benchmark); off, a node is
    bounded by its accumulated value alone.  The messages are built with
    the dense kernels whenever the semiring lowers (``backend``, see
    :mod:`repro.solver.kernels`) and with table ``combine``/``hide``
    otherwise — bit-identical either way, so both backends search the
    same tree.  The blevel and its witnesses always come from the
    search's own left fold, in domain order.
    """
    semiring = problem.semiring
    if not semiring.is_total_order():
        raise ProblemError(
            f"branch & bound needs a total order; {semiring.name} is partial"
        )
    try:
        lowering = resolve_lowering(semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None
    started = time.perf_counter()

    order = resolve_ordering(ordering)(problem.variables, problem.constraints)
    stats = SolverStats()

    # For each prefix depth, which constraints become fully assigned when
    # the variable at that depth gets a value (and were not before).
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
        covering, exact = _bucket_messages(
            problem, order, activation, lowering
        )

    incumbent: Any = semiring.zero
    # The prune threshold: the better of the incumbent and the seed.
    cutoff: Any = semiring.zero
    witnesses: List[Dict[str, Any]] = []
    assignment: Dict[str, Any] = {}
    con_set = set(problem.con)

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
        # Messages fold ``×`` in another order than the search folds a
        # leaf: prune only when worse *and* not ``equiv``, so an ulp of
        # difference never cuts an optimum.
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
                # `equiv` (not raw `==`) so float semirings recognize ties
                # that differ by an ulp after long ⊗ chains.
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
            # The accumulated value is compared raw, as ``×`` only ever
            # lowers it (on floats too); the bound only when it is not.
            if semiring.lt(node, incumbent) or cut(
                node_bound(depth, node) if depth else bound
            ):
                stats.prunes += 1
            else:
                descend(depth + 1, node)
            del assignment[var.name]

    # The root's node values and bounds, computed once before descending;
    # with every bucket eliminated the bounds ``⊕`` to the exact blevel.
    root: List[Tuple[Any, Any]] = []
    for value in order[0].domain if order else ():
        assignment[order[0].name] = value
        node = node_value(0, base_value)
        root.append((node, node_bound(0, node)))
    assignment.clear()
    if exact:
        cutoff = semiring.sum(bound for _, bound in root)

    with get_tracer().span(
        "solver.solve", method="branch-bound", problem=problem.name
    ):
        descend(0, base_value)
    record_solve_metrics(
        "branch-bound",
        stats,
        time.perf_counter() - started,
        backend="dict" if lowering is None else "dense",
    )

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


def _bucket_messages(
    problem: SCSP,
    order: Sequence[Variable],
    activation: List[List[SoftConstraint]],
    lowering: Optional[Lowering],
) -> Tuple[List[List[TableConstraint]], bool]:
    """One reverse bucket pass over the search order.

    Bucket ``d`` holds the constraints activated at depth ``d`` plus the
    messages sent to it; eliminating ``order[d]`` sends ``(⊗ bucket) ⇓``
    to the bucket of the deepest variable left in scope (or to none,
    for a constant).  A message from bucket ``j`` landing at depth ``t``
    covers depths ``t … j−1``: there its scope is assigned and its
    constraints are not.  Buckets of depth ≥ 1 are eliminated; a bucket
    whose combined table would exceed the store's materialization limit
    is skipped, its factors then add nothing to shallower bounds (which
    stay admissible) and the pass is no longer exact.
    """
    semiring = problem.semiring
    position = {var.name: depth for depth, var in enumerate(order)}
    buckets: List[list] = [list(constraints) for constraints in activation]
    covering: List[List[TableConstraint]] = [[] for _ in order]
    exact = True
    for depth in range(len(order) - 1, 0, -1):
        bucket = buckets[depth]
        if not bucket:
            continue
        scope = merge_scopes(*(factor.scope for factor in bucket))
        if assignment_space_size(scope) > _MATERIALIZE_LIMIT:
            exact = False
            continue
        name = order[depth].name
        if lowering is not None:
            message = combine_factors(
                [DenseFactor.from_constraint(f, lowering) for f in bucket]
            ).hide(name)
            table = message.to_table()
        else:
            message = table = to_table(
                combine([to_table(f) for f in bucket], semiring=semiring)
                .hide(name)
            )
        target = max((position[n] for n in message.support), default=-1)
        if target > 0:
            buckets[target].append(message)
        for covered in range(max(target, 0), depth):
            covering[covered].append(table)
    return covering, exact
