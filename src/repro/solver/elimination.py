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

import hashlib
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
from ..constraints.digest import constraint_digest
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

#: Default number of materialized eliminated buckets kept warm.
DEFAULT_BUCKET_CACHE_SIZE = 4096


class BucketCache:
    """Digest-keyed memo of *materialized eliminated buckets*.

    A bucket's output — ``(⊗ bucket) ⇓ (scope ∖ {var})`` — is a pure
    function of the eliminated variable and the multiset of input
    factors, so it is cached under a Merkle-style key: SHA-256 over the
    backend, semiring, variable name and the *sorted multiset* of input
    digests (initial factors contribute their extensional
    :func:`~repro.constraints.digest.constraint_digest`; intermediates
    contribute the key of the bucket that produced them).  A
    :class:`~repro.constraints.store.FactoredStore` delta (``tell``/
    ``retract``/``update``) then only re-eliminates the buckets whose
    input digests actually changed — every untouched bucket is answered
    from the memo, factor object identity notwithstanding.

    Entries hold immutable factors (dense arrays or tuple tables that
    are never written after construction), so sharing them across solves
    and threads is safe; the LRU itself is the shared thread-safe
    :class:`~repro.caching.LRUCache` under the name ``"buckets"``
    (visible in :func:`repro.caching.cache_stats` and the
    ``cache_*_total{cache="buckets"}`` telemetry counters).
    """

    def __init__(self, maxsize: int = DEFAULT_BUCKET_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize, name="buckets", threadsafe=True)

    def get(self, key: str) -> Optional[tuple]:
        return self._lru.get(key)

    def put(self, key: str, value: tuple) -> None:
        self._lru.put(key, value)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)


_shared_bucket_cache: Optional[BucketCache] = None


def shared_bucket_cache() -> BucketCache:
    """The process-wide bucket memo (created lazily) — the store's query
    paths share it so a delta re-solve hits the buckets a previous
    version of the same store materialized."""
    global _shared_bucket_cache
    if _shared_bucket_cache is None:
        _shared_bucket_cache = BucketCache()
    return _shared_bucket_cache


def clear_bucket_cache() -> None:
    """Drop every materialized bucket (tests and benchmarks)."""
    if _shared_bucket_cache is not None:
        _shared_bucket_cache.clear()


def _bucket_key(
    backend_label: str,
    semiring: Any,
    var_name: str,
    input_digests: Sequence[str],
) -> str:
    """The Merkle key (and output digest) of one eliminated bucket."""
    piece = hashlib.sha256()
    piece.update(
        f"bucket {backend_label};{semiring!r};{var_name};".encode()
    )
    for digest in sorted(input_digests):
        piece.update(digest.encode())
    return piece.hexdigest()


def eliminate(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
    bucket_cache: Optional[BucketCache] = None,
) -> tuple[TableConstraint, SolverStats]:
    """Return ``Sol(P)`` as an explicit table plus work statistics.

    ``backend`` selects the bucket representation: ``"dict"`` forces the
    tuple-table path, ``"dense"`` requires the vectorized kernels (and
    raises :class:`ProblemError` when the semiring does not lower), and
    ``"auto"`` uses dense whenever possible.  ``bucket_cache`` enables
    incremental re-solves: eliminated buckets are looked up (and
    materialized into) the given :class:`BucketCache`, so only buckets
    whose input-factor digests changed since a previous solve are
    recomputed.  The cache never changes results — a key is a pure
    function of a bucket's inputs — only which buckets are recomputed.
    """
    stats = SolverStats()
    try:
        lowering = resolve_lowering(problem.semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None

    plan = elimination_plan(problem, ordering)
    if lowering is None:
        to_eliminate = [problem.variables[var] for var in plan.eliminate]
        table = _eliminate_dict(problem, to_eliminate, stats, bucket_cache)
    else:
        arrays = [
            DenseFactor.from_constraint(c, lowering).array
            for c in problem.constraints
        ]
        digests = None
        if bucket_cache is not None:
            digests = [constraint_digest(c) for c in problem.constraints]
        array, scope = _sweep(
            plan,
            arrays,
            lowering,
            stats,
            problem.variables,
            bucket_cache,
            digests,
        )
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
    bucket_cache: Optional[BucketCache] = None,
) -> TableConstraint:
    """The reference dict-of-tuples bucket schedule."""
    semiring = problem.semiring
    pool: List[TableConstraint] = [to_table(c) for c in problem.constraints]
    digests: Optional[Dict[int, str]] = None
    if bucket_cache is not None:
        digests = {
            id(factor): constraint_digest(constraint)
            for factor, constraint in zip(pool, problem.constraints)
        }
    for var in to_eliminate:
        bucket = [c for c in pool if var.name in c.support]
        rest = [c for c in pool if var.name not in c.support]
        if not bucket:
            continue
        stats.buckets_processed += 1
        eliminated = None
        key = None
        if digests is not None:
            key = _bucket_key(
                "dict",
                semiring,
                var.name,
                [digests[id(c)] for c in bucket],
            )
            hit = bucket_cache.get(key)
            if hit is not None:
                eliminated, combined_size = hit
                stats.buckets_reused += 1
                stats.largest_intermediate = max(
                    stats.largest_intermediate, combined_size
                )
        if eliminated is None:
            combined = combine(bucket, semiring=semiring)
            combined_size = assignment_space_size(combined.scope)
            stats.largest_intermediate = max(
                stats.largest_intermediate, combined_size
            )
            eliminated = to_table(combined.hide(var.name))
            if key is not None:
                bucket_cache.put(key, (eliminated, combined_size))
        if digests is not None:
            digests[id(eliminated)] = key
        pool = rest + [eliminated]
    solution = combine(pool, semiring=semiring).project(problem.con)
    return to_table(solution)


# ---------------------------------------------------------------------------
# Compiled elimination plans
# ---------------------------------------------------------------------------

#: Compiled plans kept warm — one per topology, ordering and ``con``
#: (plus the continuations of permuted bucket-cache hits, see
#: :func:`_sweep`).  Keys hold, by value, everything a plan is compiled
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

    ``eliminate`` lists the variables outside ``con`` in elimination
    order; ``buckets`` holds one step per non-empty bucket and
    ``pools[i]`` the live slots after ``buckets[i]`` (the unreduced rest,
    then its output); ``final`` combines the last pool and projects onto
    ``keep``.  Variables are indices into ``variables`` (names, sizes).
    """

    variables: Tuple[Tuple[str, int], ...]
    scopes: Tuple[Tuple[int, ...], ...]
    eliminate: Tuple[int, ...]
    buckets: Tuple[Step, ...]
    pools: Tuple[Tuple[int, ...], ...]
    final: Step
    keep: FrozenSet[int]


def _compile_elimination(
    variables: Tuple[Tuple[str, int], ...],
    scopes: Sequence[Tuple[int, ...]],
    eliminate: Tuple[int, ...],
    keep: FrozenSet[int],
) -> EliminationPlan:
    sizes = [size for _name, size in variables]
    scopes = list(scopes)
    pool = list(range(len(scopes)))
    buckets: List[Step] = []
    pools: List[Tuple[int, ...]] = []
    for var in eliminate:
        bucket = [slot for slot in pool if var in scopes[slot]]
        if not bucket:
            continue
        step = _compile_step(bucket, scopes, sizes, lambda v: v != var, var)
        pool = [slot for slot in pool if var not in scopes[slot]]
        pool.append(len(scopes))
        scopes.append(step.scope)
        buckets.append(step)
        pools.append(tuple(pool))
    return EliminationPlan(
        variables=variables,
        scopes=tuple(scopes),
        eliminate=eliminate,
        buckets=tuple(buckets),
        pools=tuple(pools),
        final=_compile_step(pool, scopes, sizes, keep.__contains__),
        keep=keep,
    )


def _topology(problem: SCSP) -> tuple:
    """Every constraint's scope as ``(name, size)`` pairs, in order."""
    return tuple(
        [
            tuple([(var.name, len(var.domain)) for var in constraint.scope])
            for constraint in problem.constraints
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
            tuple((var.name, var.size) for var in variables),
            scopes,
            tuple(var for var in order if var not in keep),
            keep,
        )

    key = None if callable(ordering) else (
        "elimination",
        _topology(problem),
        problem.con,
        ordering,
    )
    return _memoized(key, compile)


def _continuation(
    plan: EliminationPlan,
    scopes: Sequence[Tuple[int, ...]],
    eliminate: Tuple[int, ...],
) -> EliminationPlan:
    """The rest of ``plan`` from a live pool with the given scopes."""
    key = ("continuation", plan.variables, tuple(scopes), eliminate, plan.keep)
    return _memoized(
        key,
        lambda: _compile_elimination(
            plan.variables, scopes, eliminate, plan.keep
        ),
    )


def _sweep(
    plan: EliminationPlan,
    arrays: List[np.ndarray],
    lowering: Lowering,
    stats: SolverStats,
    variables: Sequence[Variable],
    bucket_cache: Optional[BucketCache] = None,
    digests: Optional[List[str]] = None,
) -> tuple[np.ndarray, Tuple[int, ...]]:
    """Run ``plan`` over the slot-indexed ``arrays``; return the final
    array and its scope.

    With a ``bucket_cache`` each bucket is looked up under its Merkle
    key first, ``digests`` holding every slot's digest.  The key sorts
    its input digests, so a cached factor may list the planned scope in
    another order — then the sweep resumes with a plan compiled for the
    pool as it now stands, which is what the factor-by-factor loop did
    implicitly.
    """
    for step, pool in zip(plan.buckets, plan.pools):
        stats.buckets_processed += 1
        stats.largest_intermediate = max(
            stats.largest_intermediate, step.size
        )
        if bucket_cache is None:
            arrays.append(run_step(step, arrays, lowering))
            continue
        key = _bucket_key(
            "dense",
            lowering.semiring,
            variables[step.var].name,
            [digests[slot] for slot in step.inputs],
        )
        digests.append(key)
        hit = bucket_cache.get(key)
        if hit is None:
            out = run_step(step, arrays, lowering)
            scope = [variables[var] for var in step.scope]
            bucket_cache.put(
                key, (DenseFactor(lowering, scope, out), step.size)
            )
            arrays.append(out)
            continue
        stats.buckets_reused += 1
        factor = hit[0]
        arrays.append(factor.array)
        names = tuple(plan.variables[var][0] for var in step.scope)
        if factor.support != names:
            index = {name: var for var, (name, _) in enumerate(plan.variables)}
            scopes = [plan.scopes[slot] for slot in pool[:-1]]
            scopes.append(tuple(index[name] for name in factor.support))
            rest = plan.eliminate[plan.eliminate.index(step.var) + 1 :]
            return _sweep(
                _continuation(plan, scopes, rest),
                [arrays[slot] for slot in pool],
                lowering,
                stats,
                variables,
                bucket_cache,
                [digests[slot] for slot in pool],
            )
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
        _topology(problem),
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
    bucket_cache: Optional[BucketCache] = None,
) -> SolverResult:
    """Solve via bucket elimination; exact for partial orders too."""
    semiring = problem.semiring
    used_backend = _backend_label(semiring, backend)
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve", method="elimination", problem=problem.name
    ):
        table, stats = eliminate(
            problem, ordering, backend=backend, bucket_cache=bucket_cache
        )
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
