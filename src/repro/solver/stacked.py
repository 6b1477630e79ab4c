"""Stacked dense scans: one solve for a group of candidate SCSPs.

The broker's step 3 builds one SCSP per candidate, ``requirements ⊗
offer``.  A session's candidates share the requirements, and a market
of uniform offers gives them one constraint topology.  When one such
problem's joint table is small, scanning it densely is cheaper than
branch & bound's search.  Scanning the whole group at once, with the
candidate as a leading member axis, pays the Python overhead once per
group instead of once per candidate.

The scan reproduces :func:`~repro.solver.branch_bound.solve_branch_bound`
bit for bit.  Branch & bound values a leaf as a left fold of ``×``.  The
fold starts from its ``base_value`` (the empty-scope constraints) and
runs through the constraints its search plan activates at each depth,
in activation order.  The scan folds the same factors in the same order
over a grid whose axes follow the search order, so every entry holds the
bits branch & bound computes for that leaf.  The search prunes a subtree
only when it is strictly worse than the incumbent, or when its bound is
worse and not ``equiv`` to the prune threshold.  So it reaches every
leaf raw-equal to the optimum.  Its blevel is the first such leaf in
depth-first order, which is C order over the search-order axes.  Its
optima are all of those leaves, projected onto ``con``.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..constraints.store import _MATERIALIZE_LIMIT
from ..constraints.variables import assignment_space_size
from ..telemetry import get_tracer
from .elimination import (
    Step,
    _memoized,
    _topology,
    check_shared_topology,
    run_step,
    search_plan,
)
from .heuristics import OrderingFn
from .kernels import (
    DenseFactor,
    KernelError,
    Lowering,
    lower_semiring,
    resolve_lowering,
)
from .problem import (
    SCSP,
    ProblemError,
    SolverResult,
    SolverStats,
    record_solve_metrics,
)

#: Largest joint table (one member's assignment-space size) a stacked
#: scan covers; a larger problem is left to branch & bound.  Set from
#: the crossover measured in docs/performance.md.
STACK_LIMIT = 8192

#: Largest grid (members × entries) one scan allocates; a larger group
#: is scanned in consecutive chunks, so a market with many candidates
#: costs bounded memory per call.
GRID_LIMIT = 1 << 16


def stackable(problem: SCSP, backend: str = "auto") -> bool:
    """Whether a stacked scan solves ``problem``'s topology group: a
    totally ordered semiring that lowers, and a joint table within
    :data:`STACK_LIMIT` entries."""
    semiring = problem.semiring
    return (
        backend != "dict"
        and semiring.is_total_order()
        and assignment_space_size(problem.variables) <= STACK_LIMIT
        and lower_semiring(semiring) is not None
    )


def topology_groups(problems: Sequence[SCSP]) -> List[List[int]]:
    """Indices of ``problems`` grouped by topology: one semiring, equal
    constraint scopes position by position and equal ``con``.  Groups
    come in order of first appearance, members in input order."""
    groups: Dict[tuple, List[int]] = {}
    for index, problem in enumerate(problems):
        key = (
            problem.semiring,
            problem.con,
            tuple([constraint.scope for constraint in problem.constraints]),
        )
        groups.setdefault(key, []).append(index)
    return list(groups.values())


class _ScanPlan(NamedTuple):
    """One topology's stacked scan.

    ``step`` folds the base (slot ``len(constraints)``) and then every
    activated constraint, in branch & bound's activation order, into one
    grid over the search order, reducing nothing.  Its views lead with
    the member axis (``-1``); its ``dims`` are one member's grid, and a
    scan prepends the member count.  ``empty`` lists the empty-scope
    slots the base folds; ``con`` holds each ``con`` variable's search
    depth, name and domain, sorted by name.
    """

    step: Step
    empty: Tuple[int, ...]
    con: Tuple[Tuple[int, str, Tuple[Any, ...]], ...]


def _compile_scan(problem: SCSP, ordering: str | OrderingFn) -> _ScanPlan:
    plan = search_plan(problem, ordering, _MATERIALIZE_LIMIT)
    variables = problem.variables
    index = {var.name: position for position, var in enumerate(variables)}
    depth_of = {var: depth for depth, var in enumerate(plan.order)}
    dims = tuple([variables[var].size for var in plan.order])
    inputs = [len(problem.constraints)]
    views: List[Tuple[Any, Tuple[int, ...]]] = [
        (None, (-1,) + (1,) * len(dims))
    ]
    for slots in plan.activation:
        for slot in slots:
            depths = [
                depth_of[index[var.name]]
                for var in problem.constraints[slot].scope
            ]
            transpose = None
            if depths != sorted(depths):
                axes = sorted(range(len(depths)), key=depths.__getitem__)
                transpose = (0, *[axis + 1 for axis in axes])
            shape = (
                -1,
                *[size if depth in depths else 1 for depth, size in
                  enumerate(dims)],
            )
            inputs.append(slot)
            views.append((transpose, shape))
    con = sorted(
        (
            (depth_of[index[name]], name, variables[index[name]].domain)
            for name in problem.con
        ),
        key=lambda entry: entry[1],
    )
    return _ScanPlan(
        step=Step(
            tuple(inputs),
            tuple(views),
            dims,
            (),
            tuple(plan.order),
            math.prod(dims),
        ),
        empty=tuple(
            slot
            for slot, constraint in enumerate(problem.constraints)
            if not constraint.scope
        ),
        con=tuple(con),
    )


def _scan_plan(problem: SCSP, ordering: str | OrderingFn) -> _ScanPlan:
    key = None if callable(ordering) else (
        "stacked",
        _topology(problem),
        problem.con,
        ordering,
    )
    return _memoized(key, lambda: _compile_scan(problem, ordering))


def _stack(problems: Sequence[SCSP], lowering: Lowering) -> List[np.ndarray]:
    """Each constraint position of topology-sharing ``problems`` as one
    array with a leading member axis: length B, or length 1 where every
    problem holds the very same constraint object."""
    arrays = []
    for shared in zip(*(problem.constraints for problem in problems)):
        first = shared[0]
        if all(constraint is first for constraint in shared):
            array = DenseFactor.from_constraint(first, lowering).array
            arrays.append(array[np.newaxis])
        else:
            arrays.append(
                np.stack(
                    [
                        DenseFactor.from_constraint(c, lowering).array
                        for c in shared
                    ]
                )
            )
    return arrays


def _base(
    problems: Sequence[SCSP], empty: Tuple[int, ...], lowering: Lowering
) -> np.ndarray:
    """Each member's ``base_value`` exactly as branch & bound folds it
    (length 1 when there is no empty-scope constraint)."""
    semiring = lowering.semiring
    if not empty:
        values = [semiring.one]
    else:
        values = [
            semiring.prod(problem.constraints[slot].value({}) for slot in empty)
            for problem in problems
        ]
    return np.array(values, dtype=lowering.dtype)


def _read(
    flat: np.ndarray, plan: _ScanPlan, lowering: Lowering
) -> List[Tuple[Any, List[Dict[str, Any]]]]:
    """Each grid row's blevel and projected optima: the first entry
    raw-equal to the row's best, and every such entry, in C order."""
    semiring = lowering.semiring
    ties = flat == lowering.plus.reduce(flat, axis=1)[:, np.newaxis]
    first = ties.argmax(axis=1)
    # ``tolist`` yields the very Python values ``unlift`` would.
    blevels = flat[np.arange(len(flat)), first].tolist()
    counts = ties.sum(axis=1).tolist()
    names = [name for _depth, name, _domain in plan.con]
    firsts = _project(first, plan)
    rows: List[Tuple[Any, List[Dict[str, Any]]]] = []
    for row, blevel in enumerate(blevels):
        if not semiring.gt(blevel, semiring.zero):
            rows.append((semiring.zero, []))
        elif counts[row] == 1:
            rows.append((blevel, [dict(zip(names, firsts[row]))]))
        else:
            seen: set = set()
            projected: List[Dict[str, Any]] = []
            for values in _project(np.flatnonzero(ties[row]), plan):
                if values not in seen:
                    seen.add(values)
                    projected.append(dict(zip(names, values)))
            rows.append((blevel, projected))
    return rows


def _project(hits: np.ndarray, plan: _ScanPlan) -> List[Tuple[Any, ...]]:
    """The ``con`` values (sorted by name) of each flat grid index."""
    if not plan.con:
        return [()] * len(hits)
    coords = np.unravel_index(hits, plan.step.dims)
    return list(
        zip(
            *(
                [domain[i] for i in coords[depth].tolist()]
                for depth, _name, domain in plan.con
            )
        )
    )


def solve_stacked(
    problems: Sequence[SCSP],
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
) -> List[SolverResult]:
    """Solve topology-sharing problems in one stacked dense scan.

    Returns one :class:`SolverResult` per problem, in order, whose
    blevel, frontier and optima equal
    ``solve_branch_bound(problem, ordering)``'s bit for bit (see the
    module docstring).  ``lookahead`` only shapes branch & bound's
    search, never its answer, so it is accepted and ignored.  Wall time
    is reported to telemetry amortized over the members, so
    ``solver_solve_seconds`` keeps meaning per-solve cost.
    """
    problems = list(problems)
    check_shared_topology(problems)
    return _scan(problems, ordering, lookahead, backend)


def _scan(
    problems: List[SCSP],
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
) -> List[SolverResult]:
    """:func:`solve_stacked` over problems already known to share one
    topology."""
    semiring = problems[0].semiring
    if not semiring.is_total_order():
        raise ProblemError(
            f"a stacked scan needs a total order; {semiring.name} is partial"
        )
    try:
        lowering = resolve_lowering(semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None
    if lowering is None:
        raise ProblemError(
            f"a stacked scan needs a lowerable semiring; "
            f"{semiring.name} has no ufunc pair"
        )
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve", method="stacked", size=len(problems)
    ):
        plan = _scan_plan(problems[0], ordering)
        chunk = max(1, GRID_LIMIT // plan.step.size)
        rows: List[Tuple[Any, List[Dict[str, Any]]]] = []
        for start in range(0, len(problems), chunk):
            part = problems[start : start + chunk]
            arrays = _stack(part, lowering)
            arrays.append(_base(part, plan.empty, lowering))
            # One row answers every member when they share every factor.
            lead = max(len(array) for array in arrays)
            step = plan.step._replace(dims=(lead, *plan.step.dims))
            grid = run_step(step, arrays, lowering)
            read = _read(grid.reshape(len(grid), -1), plan, lowering)
            rows.extend(read * len(part) if len(read) == 1 else read)
    elapsed = (time.perf_counter() - started) / len(problems)
    size = plan.step.size
    results: List[SolverResult] = []
    for problem, (blevel, projected) in zip(problems, rows):
        # The scan evaluates every leaf of the search tree, once.
        stats = SolverStats(
            nodes_expanded=size,
            leaves_evaluated=size,
            largest_intermediate=size,
        )
        record_solve_metrics("stacked", stats, elapsed, backend="dense")
        results.append(
            SolverResult(
                problem=problem,
                blevel=blevel,
                frontier=[blevel],
                optima=[[dict(assignment) for assignment in projected]],
                method="stacked",
                stats=stats,
            )
        )
    return results
