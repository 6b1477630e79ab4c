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

import hashlib
import math
import time
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Sequence, Tuple

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

if TYPE_CHECKING:
    from .cache import SolveCache

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
    depth and name, sorted by name.  The plan depends on names and
    domain sizes only: a scan reads the ``con`` domains off its problem.
    """

    step: Step
    empty: Tuple[int, ...]
    con: Tuple[Tuple[int, str], ...]


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
        ((depth_of[index[name]], name) for name in problem.con),
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


#: One member's scan answer: its blevel and its optima, each optimum
#: the ``(name, value)`` items of its ``con`` assignment, sorted by
#: name.  A group's solve-cache entry is the tuple of its members' rows.
Row = Tuple[Any, Tuple[Tuple[Tuple[str, Any], ...], ...]]


def _factors(
    problems: Sequence[SCSP], lowering: Lowering
) -> List[List[DenseFactor]]:
    """Every member's constraints as lowered factors, in order; a
    constraint object the first member holds too is lowered once."""
    lower = DenseFactor.from_constraint
    first = problems[0].constraints
    head = [lower(constraint, lowering) for constraint in first]
    return [head] + [
        [
            factor if constraint is shared else lower(constraint, lowering)
            for constraint, shared, factor in zip(
                problem.constraints, first, head
            )
        ]
        for problem in problems[1:]
    ]


def group_key(
    problems: Sequence[SCSP],
    factors: Sequence[Sequence[DenseFactor]],
    ordering: str | OrderingFn,
    backend: str,
) -> str | None:
    """The solve-cache key of one stacked scan, or ``None`` for a
    callable ``ordering`` (not a value, so not keyable).

    One SHA-256 over the semiring, ``con``, ordering, backend and group
    shape, then member by member and position by position each factor's
    :meth:`~repro.solver.kernels.DenseFactor.digest`.  The scan reads
    nothing but those arrays, the plan (a function of the scope names,
    domain sizes, ``con`` and ordering) and the ``con`` domains, so
    equal keys run the same ufunc calls on the same bytes and read the
    same rows.  Groups built from different objects share a key when
    their factors hold equal bytes.
    """
    if callable(ordering):
        return None
    head = problems[0]
    key = hashlib.sha256(
        f"stacked {head.semiring!r};con {head.con!r};ordering {ordering};"
        f"backend {backend};{len(problems)}x{len(head.constraints)};".encode()
    )
    key.update(b"".join([factor.digest() for row in factors for factor in row]))
    return key.hexdigest()


def _stack(factors: Sequence[Sequence[DenseFactor]]) -> List[np.ndarray]:
    """Each constraint position of topology-sharing members' factors as
    one array with a leading member axis: length B, or length 1 where
    every member holds the very same factor."""
    arrays = []
    for shared in zip(*factors):
        first = shared[0]
        if all(factor is first for factor in shared):
            arrays.append(first.array[np.newaxis])
        else:
            arrays.append(np.stack([factor.array for factor in shared]))
    return arrays


def _base(
    factors: Sequence[Sequence[DenseFactor]],
    empty: Tuple[int, ...],
    lowering: Lowering,
) -> np.ndarray:
    """Each member's ``base_value`` exactly as branch & bound folds it
    (length 1 when there is no empty-scope constraint).  Read off the
    empty-scope factors: a 0-d array holds the constraint's value as
    the dtype does, which is what the fold's result is stored as."""
    semiring = lowering.semiring
    unlift = lowering.unlift
    if not empty:
        values = [semiring.one]
    else:
        values = [
            semiring.prod(unlift(member[slot].array[()]) for slot in empty)
            for member in factors
        ]
    return np.array(values, dtype=lowering.dtype)


def _read(
    flat: np.ndarray,
    plan: _ScanPlan,
    domains: Sequence[Tuple[Any, ...]],
    lowering: Lowering,
) -> List[Row]:
    """Each grid row's blevel and projected optima: the first entry
    raw-equal to the row's best, and every such entry, in C order."""
    semiring = lowering.semiring
    ties = flat == lowering.plus.reduce(flat, axis=1)[:, np.newaxis]
    first = ties.argmax(axis=1)
    # ``tolist`` yields the very Python values ``unlift`` would.
    blevels = flat[np.arange(len(flat)), first].tolist()
    counts = ties.sum(axis=1).tolist()
    firsts = _project(first, plan, domains)
    rows: List[Row] = []
    for row, blevel in enumerate(blevels):
        if not semiring.gt(blevel, semiring.zero):
            rows.append((semiring.zero, ()))
        elif counts[row] == 1:
            rows.append((blevel, (firsts[row],)))
        else:
            projected = _project(np.flatnonzero(ties[row]), plan, domains)
            rows.append((blevel, tuple(dict.fromkeys(projected))))
    return rows


def _project(
    hits: np.ndarray, plan: _ScanPlan, domains: Sequence[Tuple[Any, ...]]
) -> List[Tuple[Tuple[str, Any], ...]]:
    """The ``con`` items (sorted by name) of each flat grid index."""
    if not plan.con:
        return [()] * len(hits)
    coords = np.unravel_index(hits, plan.step.dims)
    return list(
        zip(
            *(
                [(name, domain[i]) for i in coords[depth].tolist()]
                for (depth, name), domain in zip(plan.con, domains)
            )
        )
    )


def _results(
    problems: Sequence[SCSP], rows: Sequence[Row]
) -> List[SolverResult]:
    """One :class:`SolverResult` per member from the scan's rows, with
    fresh lists and dicts: a cache hit and a miss build the same."""
    # The scan evaluates every leaf of the search tree, once.
    size = assignment_space_size(problems[0].variables)
    return [
        SolverResult(
            problem=problem,
            blevel=blevel,
            frontier=[blevel],
            optima=[[dict(items) for items in optima]],
            method="stacked",
            stats=SolverStats(
                nodes_expanded=size,
                leaves_evaluated=size,
                largest_intermediate=size,
            ),
        )
        for problem, (blevel, optima) in zip(problems, rows)
    ]


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
    cache: "SolveCache | None" = None,
) -> List[SolverResult]:
    """:func:`solve_stacked` over problems already known to share one
    topology.  With a ``cache``, the rows are looked up under
    :func:`group_key` first; a hit records no solve metric and opens no
    ``solver.solve`` span."""
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
    factors = _factors(problems, lowering)
    key = None
    if cache is not None:
        key = group_key(problems, factors, ordering, backend)
        entry = None if key is None else cache.fetch_entry(key)
        if entry is not None:
            return _results(problems, entry)
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve", method="stacked", size=len(problems)
    ):
        plan = _scan_plan(problems[0], ordering)
        variables = {var.name: var for var in problems[0].variables}
        domains = [variables[name].domain for _depth, name in plan.con]
        chunk = max(1, GRID_LIMIT // plan.step.size)
        rows: List[Row] = []
        for start in range(0, len(problems), chunk):
            part = factors[start : start + chunk]
            arrays = _stack(part)
            arrays.append(_base(part, plan.empty, lowering))
            # One row answers every member when they share every factor.
            lead = max(len(array) for array in arrays)
            step = plan.step._replace(dims=(lead, *plan.step.dims))
            grid = run_step(step, arrays, lowering)
            read = _read(grid.reshape(len(grid), -1), plan, domains, lowering)
            rows.extend(read * len(part) if len(read) == 1 else read)
    elapsed = (time.perf_counter() - started) / len(problems)
    if key is not None:
        cache.store_entry(key, tuple(rows))
    results = _results(problems, rows)
    for result in results:
        record_solve_metrics("stacked", result.stats, elapsed, backend="dense")
    return results
