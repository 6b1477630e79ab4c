"""The dense bucket loops that compiled elimination plans replaced.

Before plans, every dense bucket pass re-derived its schedule per call:
``eliminate`` walked a factor pool with ``combine_factors``/``hide`` (and
the :class:`~repro.solver.elimination.BucketCache` Merkle keys), and
branch & bound's bucket pass built its messages the same way.  Those
loops are kept here, verbatim apart from dropping telemetry, as the
oracles pinning that a compiled plan changes no value, no scope order
and no :class:`~repro.solver.problem.SolverStats` field.

The factor operations those loops ran on are kept with them: the
pairwise ``combine``/``project``/``hide`` of one
:class:`~repro.solver.kernels.DenseFactor` (as functions) and
``combine_factors``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.solver.branch_bound as branch_bound
from repro.constraints.digest import constraint_digest
from repro.constraints.table import TableConstraint
from repro.constraints.variables import (
    Variable,
    assignment_space_size,
    merge_scopes,
)
from repro.solver import (
    DenseFactor,
    KernelError,
    resolve_lowering,
    resolve_ordering,
)
from repro.solver.elimination import BucketCache, _bucket_key
from repro.solver.heuristics import OrderingFn
from repro.solver.kernels import Lowering
from repro.solver.problem import SCSP, SolverStats


# ---------------------------------------------------------------------------
# Factor operations
# ---------------------------------------------------------------------------


def dense_aligned(
    factor: DenseFactor, scope: Tuple[Variable, ...]
) -> np.ndarray:
    """A view of the array broadcastable over ``scope`` (a superset of
    the factor's scope, in any order)."""
    position = {var.name: i for i, var in enumerate(scope)}
    mine = set(factor.support)
    order = sorted(
        range(len(factor.scope)),
        key=lambda axis: position[factor.scope[axis].name],
    )
    array = factor.array
    if order != list(range(len(factor.scope))):
        array = array.transpose(order)
    shape = tuple(var.size if var.name in mine else 1 for var in scope)
    return array.reshape(shape)


def dense_combine(left: DenseFactor, right: DenseFactor) -> DenseFactor:
    """``c1 ⊗ c2`` — broadcast both arrays over the merged scope and
    apply the times-ufunc elementwise."""
    scope = merge_scopes(left.scope, right.scope)
    array = left.lowering.times(
        dense_aligned(left, scope), dense_aligned(right, scope)
    )
    return DenseFactor(left.lowering, scope, array)


def dense_project(
    factor: DenseFactor, keep: Iterable[str | Variable]
) -> DenseFactor:
    """``c ⇓ keep`` — plus-ufunc reduction over the eliminated axes;
    names in ``keep`` that are not in scope are ignored."""
    keep_names = {
        item.name if isinstance(item, Variable) else item for item in keep
    }
    axes = tuple(
        i for i, var in enumerate(factor.scope) if var.name not in keep_names
    )
    if not axes:
        return factor
    kept = tuple(var for var in factor.scope if var.name in keep_names)
    array = factor.lowering.plus.reduce(factor.array, axis=axes)
    return DenseFactor(factor.lowering, kept, array)


def dense_hide(factor: DenseFactor, *names: str | Variable) -> DenseFactor:
    """``∃x.c`` — project the named variables *out*."""
    hidden = {
        item.name if isinstance(item, Variable) else item for item in names
    }
    return dense_project(
        factor, [var for var in factor.scope if var.name not in hidden]
    )


def combine_factors(factors: Sequence[DenseFactor]) -> DenseFactor:
    """``⊗`` over a non-empty sequence in one ufunc chain: all scopes
    merged up front, then a left fold into one preallocated full-scope
    array (``out=``)."""
    if not factors:
        raise KernelError("combine_factors needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    head = factors[0]
    lowering = head.lowering
    times = lowering.times
    scope = merge_scopes(*(factor.scope for factor in factors))
    dims = tuple(var.size for var in scope)
    views = [dense_aligned(factor, scope) for factor in factors]
    out = np.empty(dims, dtype=lowering.dtype)
    times(views[0], views[1], out=out)
    for view in views[2:]:
        times(out, view, out=out)
    return DenseFactor(lowering, scope, out)


# ---------------------------------------------------------------------------
# The bucket loops
# ---------------------------------------------------------------------------


def reference_eliminate(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    bucket_cache: Optional[BucketCache] = None,
) -> Tuple[TableConstraint, SolverStats]:
    """``eliminate(problem, ordering, "dense", bucket_cache)`` as it was."""
    stats = SolverStats()
    lowering = resolve_lowering(problem.semiring, "dense")
    con_set = set(problem.con)
    to_eliminate = [
        var
        for var in resolve_ordering(ordering)(
            problem.variables, problem.constraints
        )
        if var.name not in con_set
    ]
    table = _eliminate_dense(
        problem, to_eliminate, lowering, stats, bucket_cache
    )
    stats.largest_intermediate = max(
        stats.largest_intermediate, assignment_space_size(table.scope)
    )
    return table, stats


def _eliminate_dense(
    problem: SCSP,
    to_eliminate: List[Variable],
    lowering: Lowering,
    stats: SolverStats,
    bucket_cache: Optional[BucketCache] = None,
) -> TableConstraint:
    pool: List[DenseFactor] = [
        DenseFactor.from_constraint(c, lowering)
        for c in problem.constraints
    ]
    digests: Optional[Dict[int, str]] = None
    if bucket_cache is not None:
        digests = {
            id(factor): constraint_digest(constraint)
            for factor, constraint in zip(pool, problem.constraints)
        }
    for var in to_eliminate:
        bucket = [f for f in pool if var.name in f.support]
        rest = [f for f in pool if var.name not in f.support]
        if not bucket:
            continue
        stats.buckets_processed += 1
        eliminated = None
        key = None
        if digests is not None:
            key = _bucket_key(
                "dense",
                problem.semiring,
                var.name,
                [digests[id(f)] for f in bucket],
            )
            hit = bucket_cache.get(key)
            if hit is not None:
                eliminated, combined_size = hit
                stats.buckets_reused += 1
                stats.largest_intermediate = max(
                    stats.largest_intermediate, combined_size
                )
        if eliminated is None:
            combined = combine_factors(bucket)
            combined_size = assignment_space_size(combined.scope)
            stats.largest_intermediate = max(
                stats.largest_intermediate, combined_size
            )
            eliminated = dense_hide(combined, var.name)
            if key is not None:
                bucket_cache.put(key, (eliminated, combined_size))
        if digests is not None:
            digests[id(eliminated)] = key
        pool = rest + [eliminated]
    solution = dense_project(combine_factors(pool), problem.con)
    return solution.to_table()


def reference_bucket_messages(
    problem: SCSP,
    order: Sequence[Variable],
    activation: List[list],
    lowering: Lowering,
) -> Tuple[List[list], bool]:
    """Branch & bound's dense bucket pass as it was: one reader per
    covered depth; honours a patched ``branch_bound._MATERIALIZE_LIMIT``."""
    position = {var.name: depth for depth, var in enumerate(order)}
    buckets: List[list] = [list(constraints) for constraints in activation]
    covering: List[list] = [[] for _ in order]
    exact = True
    for depth in range(len(order) - 1, 0, -1):
        bucket = buckets[depth]
        if not bucket:
            continue
        scope = merge_scopes(*(factor.scope for factor in bucket))
        if assignment_space_size(scope) > branch_bound._MATERIALIZE_LIMIT:
            exact = False
            continue
        message = dense_hide(
            combine_factors(
                [DenseFactor.from_constraint(f, lowering) for f in bucket]
            ),
            order[depth].name,
        )
        perm, depths = branch_bound._depth_axes(message.scope, position)
        rows = message.array.transpose(perm).tolist()
        target = depths[-1] if depths else -1
        if target > 0:
            buckets[target].append(message)
        for covered in range(max(target, 0), depth):
            covering[covered].append(
                branch_bound._reader(rows, depths, covered)
            )
    return covering, exact
