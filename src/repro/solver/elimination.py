"""Bucket (variable) elimination for SCSPs.

Computes ``Sol(P) = (⊗C) ⇓ con`` without ever materializing the full
joint table: each non-interest variable is eliminated in turn by combining
only the constraints that mention it and projecting it out (distributivity
of ``×`` over ``+`` makes this exact for any c-semiring, total or partial).
Intermediate-table width depends on the elimination order — the E12
ablation compares the heuristics of :mod:`repro.solver.heuristics`.

Backends: when the semiring lowers to NumPy ufuncs (see
:mod:`repro.solver.kernels`) the same bucket schedule runs over
:class:`~repro.solver.kernels.DenseFactor` arrays — one broadcast ``⊗``
and one axis-reduction ``⇓`` per bucket instead of a Python loop per
assignment tuple.  The elimination ``ordering``, the statistics and the
resulting table are identical on both backends (bit-identical for the
four lowered semirings); partial orders transparently keep the dict path.

The dense schedule depends only on a problem's topology, so it is
compiled once per topology (:class:`EliminationPlan`, and
:class:`SearchPlan` for branch & bound's message pass) and memoized by
value; a solve then only runs the plan's steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..caching import LRUCache
from ..constraints.constraint import SoftConstraint
from ..constraints.operations import combine
from ..constraints.table import TableConstraint, to_table
from ..constraints.variables import Variable, assignment_space_size
from ..telemetry import get_tracer
from .heuristics import OrderingFn, resolve_ordering
from .kernels import (
    DenseFactor,
    KernelError,
    Lowering,
    resolve_lowering,
)
from .problem import (
    SCSP,
    ProblemError,
    SolverResult,
    SolverStats,
    record_solve_metrics,
)

def eliminate(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
) -> tuple[TableConstraint, SolverStats]:
    """Return ``Sol(P)`` as an explicit table plus work statistics.

    ``backend`` selects the bucket representation: ``"dict"`` forces the
    tuple-table path, ``"dense"`` requires the vectorized kernels (and
    raises :class:`ProblemError` when the semiring does not lower), and
    ``"auto"`` uses dense whenever possible.
    """
    stats = SolverStats()
    try:
        lowering = resolve_lowering(problem.semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None

    plan = elimination_plan(problem, ordering)
    if lowering is None:
        to_eliminate = [problem.variables[var] for var in plan.eliminate]
        table = _eliminate_dict(problem, to_eliminate, stats)
    else:
        arrays = [
            DenseFactor.from_constraint(c, lowering).array
            for c in problem.constraints
        ]
        array, scope = _sweep(plan, arrays, lowering, stats)
        table = DenseFactor(
            lowering, [problem.variables[var] for var in scope], array
        ).to_table()
    stats.largest_intermediate = max(
        stats.largest_intermediate, assignment_space_size(table.scope)
    )
    return table, stats


def _eliminate_dict(
    problem: SCSP,
    to_eliminate: List[Variable],
    stats: SolverStats,
) -> TableConstraint:
    """The reference dict-of-tuples bucket schedule."""
    semiring = problem.semiring
    pool: List[TableConstraint] = [to_table(c) for c in problem.constraints]
    for var in to_eliminate:
        bucket = [c for c in pool if var.name in c.support]
        rest = [c for c in pool if var.name not in c.support]
        if not bucket:
            continue
        stats.buckets_processed += 1
        combined = combine(bucket, semiring=semiring)
        stats.largest_intermediate = max(
            stats.largest_intermediate, assignment_space_size(combined.scope)
        )
        pool = rest + [to_table(combined.hide(var.name))]
    solution = combine(pool, semiring=semiring).project(problem.con)
    return to_table(solution)


# ---------------------------------------------------------------------------
# Compiled elimination plans
# ---------------------------------------------------------------------------

#: Compiled plans kept warm — one per topology, ordering and ``con``.
#: Keys hold, by value, everything a plan is compiled
#: from (scope names and sizes, the ordering name, and ``con`` or the
#: materialization limit), never object ids, so a plan can never be
#: served to a problem it was not compiled for; problems of one
#: topology under different semirings share it.
_PLAN_CACHE_SIZE = 1024
_plan_cache = LRUCache(_PLAN_CACHE_SIZE, name="plans", threadsafe=True)


def clear_plan_cache() -> None:
    """Drop every compiled plan (tests and benchmarks)."""
    _plan_cache.clear()


class Step(NamedTuple):
    """One compiled ``(⊗ inputs) ⇓ keep``: a bucket, or a plan's final
    combine-and-project.

    Slots number a plan's factors: the problem's constraints first, then
    each step's output in step order.  ``views`` hold, per input, the
    axis transpose (``None`` when already in merged-scope order) and the
    broadcast shape aligning it to ``dims``, the shape of the combined
    array — empty for a single input, which is reduced as it stands;
    ``axes`` are the reduced axes.  A stacked scan
    (:mod:`repro.solver.stacked`) compiles its own step whose views and
    ``dims`` lead with the member axis.
    """

    inputs: Tuple[int, ...]
    views: Tuple[Tuple[Optional[Tuple[int, ...]], Tuple[int, ...]], ...]
    dims: Tuple[int, ...]
    axes: Tuple[int, ...]
    #: The output scope, as indices into the problem's variables.
    scope: Tuple[int, ...]
    #: Assignment-space size of the combined (unreduced) array.
    size: int
    #: The eliminated variable; ``-1`` for a final step.
    var: int = -1


def run_step(
    step: Step, arrays: Sequence[np.ndarray], lowering: Lowering
) -> np.ndarray:
    """Execute ``step`` over the slot-indexed ``arrays``.

    A left ``times(…, out=)`` fold into one merged-scope array, then one
    ``plus.reduce`` over the eliminated axes: the same ufunc calls on the
    same values in the same order as combining the bucket factor by
    factor, left to right (the association order of
    :func:`repro.constraints.operations.combine`), so non-idempotent
    ``×`` (Weighted's float add) rounds identically.  Only the scope
    bookkeeping is precomputed.
    """
    if len(step.inputs) == 1:
        combined = arrays[step.inputs[0]]
    else:
        views = []
        for slot, (transpose, shape) in zip(step.inputs, step.views):
            array = arrays[slot]
            if transpose is not None:
                array = array.transpose(transpose)
            views.append(array.reshape(shape))
        combined = np.empty(step.dims, dtype=lowering.dtype)
        times = lowering.times
        times(views[0], views[1], out=combined)
        for view in views[2:]:
            times(combined, view, out=combined)
    if not step.axes:
        return combined
    return lowering.plus.reduce(combined, axis=step.axes)


def _compile_step(
    inputs: Sequence[int],
    scopes: Sequence[Tuple[int, ...]],
    sizes: Sequence[int],
    keep: Callable[[int], bool],
    var: int = -1,
) -> Step:
    """Geometry of combining ``inputs`` over their merged scope (first
    occurrence order, like :func:`merge_scopes`) and reducing every
    variable ``keep`` rejects."""
    merged: List[int] = []
    for slot in inputs:
        for v in scopes[slot]:
            if v not in merged:
                merged.append(v)
    views = []
    if len(inputs) > 1:
        where = {v: axis for axis, v in enumerate(merged)}
        for slot in inputs:
            scope = scopes[slot]
            axes = [where[v] for v in scope]
            transpose = None
            if axes != sorted(axes):
                order = sorted(range(len(axes)), key=axes.__getitem__)
                transpose = tuple(order)
            shape = tuple([sizes[v] if v in scope else 1 for v in merged])
            views.append((transpose, shape))
    kept = [keep(v) for v in merged]
    dims = tuple([sizes[v] for v in merged])
    return Step(
        tuple(inputs),
        tuple(views),
        dims,
        tuple([axis for axis, k in enumerate(kept) if not k]),
        tuple([v for v, k in zip(merged, kept) if k]),
        math.prod(dims),
        var,
    )


@dataclass(frozen=True)
class EliminationPlan:
    """The dense bucket schedule of one topology: ``(⊗C) ⇓ con``.

    ``eliminate`` lists the variables outside ``con`` (indices into the
    problem's variables) in elimination order; ``buckets`` holds one
    step per non-empty bucket; ``final`` combines the last pool and
    projects onto ``con``.
    """

    eliminate: Tuple[int, ...]
    buckets: Tuple[Step, ...]
    final: Step


def _compile_elimination(
    sizes: Sequence[int],
    scopes: Sequence[Tuple[int, ...]],
    eliminate: Tuple[int, ...],
    keep: FrozenSet[int],
) -> EliminationPlan:
    scopes = list(scopes)
    pool = list(range(len(scopes)))
    buckets: List[Step] = []
    for var in eliminate:
        bucket = [slot for slot in pool if var in scopes[slot]]
        if not bucket:
            continue
        step = _compile_step(bucket, scopes, sizes, lambda v: v != var, var)
        pool = [slot for slot in pool if var not in scopes[slot]]
        pool.append(len(scopes))
        scopes.append(step.scope)
        buckets.append(step)
    return EliminationPlan(
        eliminate=eliminate,
        buckets=tuple(buckets),
        final=_compile_step(pool, scopes, sizes, keep.__contains__),
    )


def _topology(constraints: Sequence[SoftConstraint]) -> tuple:
    """Every constraint's scope as ``(name, size)`` pairs, in order."""
    return tuple(
        [
            tuple([(var.name, len(var.domain)) for var in constraint.scope])
            for constraint in constraints
        ]
    )


def _memoized(key: Optional[tuple], compile: Callable):
    """The plan under ``key``, compiled on a miss.  A callable ordering
    is not a value, so its plans have no key (``None``) and are compiled
    afresh on every call."""
    if key is None:
        return compile()
    plan = _plan_cache.get(key)
    if plan is None:
        plan = compile()
        _plan_cache.put(key, plan)
    return plan


def _indexed(problem: SCSP, ordering: str | OrderingFn):
    """``problem``'s variables, name → index map, constraint scopes as
    index tuples, and the ordering as indices."""
    variables = problem.variables
    index = {var.name: position for position, var in enumerate(variables)}
    scopes = [
        tuple(index[var.name] for var in constraint.scope)
        for constraint in problem.constraints
    ]
    order = tuple(
        index[var.name]
        for var in resolve_ordering(ordering)(variables, problem.constraints)
    )
    return variables, index, scopes, order


def elimination_plan(
    problem: SCSP, ordering: str | OrderingFn = "min-degree"
) -> EliminationPlan:
    """The compiled bucket schedule of ``problem``'s topology."""

    def compile() -> EliminationPlan:
        variables, index, scopes, order = _indexed(problem, ordering)
        keep = frozenset(index[name] for name in problem.con)
        return _compile_elimination(
            [var.size for var in variables],
            scopes,
            tuple(var for var in order if var not in keep),
            keep,
        )

    key = None if callable(ordering) else (
        "elimination",
        _topology(problem.constraints),
        problem.con,
        ordering,
    )
    return _memoized(key, compile)


def _sweep(
    plan: EliminationPlan,
    arrays: List[np.ndarray],
    lowering: Lowering,
    stats: SolverStats,
) -> tuple[np.ndarray, Tuple[int, ...]]:
    """Run ``plan`` over the slot-indexed ``arrays``; return the final
    array and its scope."""
    for step in plan.buckets:
        stats.buckets_processed += 1
        stats.largest_intermediate = max(
            stats.largest_intermediate, step.size
        )
        arrays.append(run_step(step, arrays, lowering))
    return run_step(plan.final, arrays, lowering), plan.final.scope


@dataclass(frozen=True)
class Message:
    """One bucket of branch & bound's reverse pass over the search order.

    ``transpose`` puts the message's axes in search order (``None`` when
    they already are), ``depths`` is the search depth of each axis after
    it, and ``covers`` the depths whose node bounds the message tightens.
    """

    step: Step
    transpose: Optional[Tuple[int, ...]]
    depths: Tuple[int, ...]
    covers: Tuple[int, ...]


@dataclass(frozen=True)
class SearchPlan:
    """Branch & bound's compiled schedule for one topology.

    ``order`` is the search order and ``activation[d]`` the constraints
    (positions) fully assigned once depth ``d`` is; ``messages`` are the
    buckets of depth ≥ 1 within the materialization limit, deepest
    first, reading constraint slots ``lowered``; ``exact`` is false when
    a bucket was skipped for the limit.
    """

    order: Tuple[int, ...]
    activation: Tuple[Tuple[int, ...], ...]
    messages: Tuple[Message, ...]
    lowered: Tuple[int, ...]
    exact: bool


def _compile_search(
    problem: SCSP, ordering: str | OrderingFn, limit: int
) -> SearchPlan:
    variables, _index, scopes, order = _indexed(problem, ordering)
    sizes = [var.size for var in variables]
    depth_of = {var: depth for depth, var in enumerate(order)}
    activation: List[List[int]] = [[] for _ in order]
    for slot, scope in enumerate(scopes):
        if scope:
            activation[max(depth_of[var] for var in scope)].append(slot)
    buckets = [list(slots) for slots in activation]
    messages: List[Message] = []
    exact = True
    for depth in range(len(order) - 1, 0, -1):
        if not buckets[depth]:
            continue
        var = order[depth]
        step = _compile_step(
            buckets[depth], scopes, sizes, lambda v: v != var, var
        )
        if step.size > limit:
            exact = False
            continue
        axes = sorted(
            range(len(step.scope)), key=lambda axis: depth_of[step.scope[axis]]
        )
        depths = tuple(depth_of[step.scope[axis]] for axis in axes)
        target = depths[-1] if depths else -1
        if target > 0:
            buckets[target].append(len(scopes))
        scopes.append(step.scope)
        messages.append(
            Message(
                step=step,
                transpose=(
                    None if axes == list(range(len(axes))) else tuple(axes)
                ),
                depths=depths,
                covers=tuple(range(max(target, 0), depth)),
            )
        )
    constraints = len(problem.constraints)
    return SearchPlan(
        order=order,
        activation=tuple(tuple(slots) for slots in activation),
        messages=tuple(messages),
        lowered=tuple(
            sorted(
                {
                    slot
                    for message in messages
                    for slot in message.step.inputs
                    if slot < constraints
                }
            )
        ),
        exact=exact,
    )


def search_plan(
    problem: SCSP, ordering: str | OrderingFn, limit: int
) -> SearchPlan:
    """Branch & bound's compiled schedule for ``problem``'s topology;
    buckets whose combined table exceeds ``limit`` entries are skipped."""
    key = None if callable(ordering) else (
        "search",
        _topology(problem.constraints),
        ordering,
        limit,
    )
    return _memoized(key, lambda: _compile_search(problem, ordering, limit))


def check_shared_topology(problems: Sequence[SCSP]) -> None:
    """Raise :class:`ProblemError` unless ``problems`` is non-empty and
    every problem has the first one's semiring, constraint scopes
    (position by position) and ``con`` — the shape a stacked solve
    needs."""
    if not problems:
        raise ProblemError("a stacked solve needs at least one problem")
    head = problems[0]
    semiring = head.semiring
    scopes = [constraint.scope for constraint in head.constraints]
    for position, problem in enumerate(problems[1:], start=1):
        if problem.semiring is not semiring and repr(problem.semiring) != repr(
            semiring
        ):
            raise ProblemError(
                "stacked problems must share one semiring; problem "
                f"{position} uses {problem.semiring.name}"
            )
        if [constraint.scope for constraint in problem.constraints] != scopes:
            raise ProblemError(
                f"problem {position} does not share the stacked topology "
                "(constraint scopes differ)"
            )
        if problem.con != head.con:
            raise ProblemError(
                f"problem {position} does not share the stacked topology "
                f"(con {problem.con!r} != {head.con!r})"
            )


def _result_from_table(
    problem: SCSP, table: TableConstraint, stats: SolverStats
) -> SolverResult:
    """Build the :class:`SolverResult` payload from ``Sol(P)``'s table."""
    semiring = problem.semiring
    values: Dict[tuple, Any] = {}
    names = table.support
    # The solution table normally comes out of `to_table`/
    # `DenseFactor.to_table` with every tuple explicit, so defaults are
    # irrelevant and the sparse walk avoids re-enumerating the assignment
    # space.  A degenerate problem (single table, nothing eliminated or
    # projected) can surface the user's sparse table unchanged — only
    # then do defaulted tuples matter.
    if len(table.table) == assignment_space_size(table.scope):
        entries = table.sparse_items()
    else:
        entries = table.items()
    for key, value in entries:
        values[key] = value
    blevel = semiring.sum(values.values())
    frontier = semiring.max_elements(values.values())
    optima = [
        [
            dict(zip(names, key))
            for key, value in values.items()
            if value == fv
        ]
        for fv in frontier
    ]
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=frontier,
        optima=optima,
        method="elimination",
        stats=stats,
    )


def solve_elimination(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
) -> SolverResult:
    """Solve via bucket elimination; exact for partial orders too."""
    semiring = problem.semiring
    used_backend = _backend_label(semiring, backend)
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve", method="elimination", problem=problem.name
    ):
        table, stats = eliminate(problem, ordering, backend=backend)
    record_solve_metrics(
        "elimination",
        stats,
        time.perf_counter() - started,
        backend=used_backend,
    )
    return _result_from_table(problem, table, stats)


def _backend_label(semiring: Any, backend: str) -> str:
    """Which representation a solve with ``backend`` will actually use."""
    try:
        lowering: Optional[Lowering] = resolve_lowering(semiring, backend)
    except KernelError:
        return "dense"  # about to raise in eliminate(); label is moot
    return "dict" if lowering is None else "dense"
