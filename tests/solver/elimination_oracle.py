"""The dense bucket loops that compiled elimination plans replaced.

Before plans, every dense bucket pass re-derived its schedule per call:
``eliminate`` walked a factor pool with ``combine_factors``/``hide`` (and
the :class:`~repro.solver.elimination.BucketCache` Merkle keys),
``eliminate_batch`` ran a third copy of that loop over stacked factors,
and branch & bound's bucket pass built its messages the same way.  Those
loops are kept here, verbatim apart from dropping telemetry, as the
oracles pinning that a compiled plan changes no value, no scope order
and no :class:`~repro.solver.problem.SolverStats` field.

The factor operations those loops ran on are kept with them: the
pairwise ``combine``/``project``/``hide`` of one
:class:`~repro.solver.kernels.DenseFactor` (as functions),
:class:`BatchDenseFactor` with ``stack_factors``/``split_results``, and
``combine_factors``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.solver.branch_bound as branch_bound
from repro.constraints.digest import constraint_digest
from repro.constraints.table import TableConstraint
from repro.constraints.variables import (
    Variable,
    assignment_space_size,
    merge_scopes,
    scope_names,
)
from repro.solver import (
    DenseFactor,
    KernelError,
    ProblemError,
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


class BatchDenseFactor:
    """B problem instances' factors over one shared scope, stacked on a
    leading batch axis.

    ``array.shape == (b, *dims)`` where ``b`` is either the logical batch
    size ``batch`` or ``1`` — a length-1 leading axis marks a factor
    *shared* by every instance and broadcasts lazily.  ``combine``/
    ``project``/``hide`` are the per-instance operations broadcast
    across the batch axis.
    """

    __slots__ = ("semiring", "lowering", "scope", "array", "batch")

    def __init__(
        self,
        lowering: Lowering,
        scope: Sequence[Variable],
        array: np.ndarray,
        batch: Optional[int] = None,
    ) -> None:
        self.lowering = lowering
        self.semiring = lowering.semiring
        self.scope: Tuple[Variable, ...] = tuple(scope)
        self.array = array
        self.batch = array.shape[0] if batch is None else batch
        if array.shape[0] not in (1, self.batch):
            raise KernelError(
                f"batch axis is {array.shape[0]}, expected 1 or "
                f"{self.batch}"
            )

    @property
    def support(self) -> Tuple[str, ...]:
        return scope_names(self.scope)

    def _aligned(self, scope: Tuple[Variable, ...]) -> np.ndarray:
        """:func:`dense_aligned` with the batch axis pinned in front."""
        position = {var.name: i for i, var in enumerate(scope)}
        mine = set(self.support)
        order = sorted(
            range(len(self.scope)),
            key=lambda axis: position[self.scope[axis].name],
        )
        array = self.array
        if order != list(range(len(self.scope))):
            array = array.transpose([0] + [axis + 1 for axis in order])
        shape = (array.shape[0],) + tuple(
            var.size if var.name in mine else 1 for var in scope
        )
        return array.reshape(shape)

    def combine(self, other: "BatchDenseFactor") -> "BatchDenseFactor":
        """``c1 ⊗ c2`` on every instance at once."""
        if self.batch != other.batch and 1 not in (self.batch, other.batch):
            raise KernelError(
                f"cannot combine batches of size {self.batch} and "
                f"{other.batch}"
            )
        scope = merge_scopes(self.scope, other.scope)
        array = self.lowering.times(
            self._aligned(scope), other._aligned(scope)
        )
        return BatchDenseFactor(
            self.lowering, scope, array, batch=max(self.batch, other.batch)
        )

    def project(self, keep: Iterable[str | Variable]) -> "BatchDenseFactor":
        """``c ⇓ keep`` on every instance, batch axis untouched."""
        keep_names = {
            item.name if isinstance(item, Variable) else item
            for item in keep
        }
        axes = tuple(
            i + 1
            for i, var in enumerate(self.scope)
            if var.name not in keep_names
        )
        if not axes:
            return self
        kept = tuple(var for var in self.scope if var.name in keep_names)
        array = self.lowering.plus.reduce(self.array, axis=axes)
        return BatchDenseFactor(self.lowering, kept, array, batch=self.batch)

    def hide(self, *names: str | Variable) -> "BatchDenseFactor":
        """``∃x.c`` — project the named variables *out* of every slice."""
        hidden = {
            item.name if isinstance(item, Variable) else item
            for item in names
        }
        return self.project(
            [var for var in self.scope if var.name not in hidden]
        )

    def consistency(self) -> List[Any]:
        """``c ⇓∅`` per instance — one value per batch member."""
        array = self.array
        if array.ndim > 1:
            array = self.lowering.plus.reduce(
                array, axis=tuple(range(1, array.ndim))
            )
        if array.shape[0] != self.batch:
            array = np.broadcast_to(array, (self.batch,))
        unlift = self.lowering.unlift
        return [unlift(value) for value in array]

    def member(self, index: int) -> DenseFactor:
        """Instance ``index`` as a standalone :class:`DenseFactor`."""
        if not 0 <= index < self.batch:
            raise KernelError(
                f"batch index {index} out of range for batch {self.batch}"
            )
        slice_index = 0 if self.array.shape[0] == 1 else index
        return DenseFactor(self.lowering, self.scope, self.array[slice_index])

    def split(self) -> List[DenseFactor]:
        """All instances, in batch order."""
        return [self.member(index) for index in range(self.batch)]


def stack_factors(factors: Sequence[DenseFactor]) -> BatchDenseFactor:
    """Stack B same-support factors into one :class:`BatchDenseFactor`,
    aligned to the first factor's axis order; B references to one factor
    *object* stack as a length-1 leading axis (a view, no copy)."""
    if not factors:
        raise KernelError("stack_factors needs at least one factor")
    head = factors[0]
    if all(factor is head for factor in factors[1:]):
        return BatchDenseFactor(
            head.lowering,
            head.scope,
            head.array[np.newaxis, ...],
            batch=len(factors),
        )
    support = set(head.support)
    for factor in factors[1:]:
        if set(factor.support) != support:
            raise KernelError(
                f"cannot stack factors over different scopes: "
                f"{sorted(support)} vs {sorted(factor.support)}"
            )
        if factor.lowering is not head.lowering:
            raise KernelError(
                "cannot stack factors lowered under different semirings"
            )
    array = np.stack([dense_aligned(factor, head.scope) for factor in factors])
    return BatchDenseFactor(head.lowering, head.scope, array)


def split_results(batch: BatchDenseFactor) -> List[DenseFactor]:
    """The inverse of :func:`stack_factors`: one :class:`DenseFactor`
    per batch member, in submission order."""
    return batch.split()


def combine_factors(
    factors: "Sequence[DenseFactor | BatchDenseFactor]",
) -> "DenseFactor | BatchDenseFactor":
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
    views = [
        factor._aligned(scope)
        if isinstance(factor, BatchDenseFactor)
        else dense_aligned(factor, scope)
        for factor in factors
    ]
    batched = [
        factor for factor in factors if isinstance(factor, BatchDenseFactor)
    ]
    if batched:
        batch = max(factor.batch for factor in batched)
        lead = max(
            view.shape[0]
            for factor, view in zip(factors, views)
            if isinstance(factor, BatchDenseFactor)
        )
        out = np.empty((lead, *dims), dtype=lowering.dtype)
        times(views[0], views[1], out=out)
        for view in views[2:]:
            times(out, view, out=out)
        return BatchDenseFactor(lowering, scope, out, batch=batch)
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


def reference_eliminate_batch(
    problems: Sequence[SCSP],
    ordering: str | OrderingFn = "min-degree",
) -> List[Tuple[TableConstraint, SolverStats]]:
    """``eliminate_batch(problems, ordering)``'s stacked sweep as it was
    (the topology checks are left to the production function)."""
    head = problems[0]
    lowering = resolve_lowering(head.semiring, "dense")
    if lowering is None:  # pragma: no cover - callers pass lowerable ones
        raise ProblemError("the batch oracle needs a lowerable semiring")
    stats = SolverStats()
    con_set = set(head.con)
    to_eliminate = [
        var
        for var in resolve_ordering(ordering)(
            head.variables, head.constraints
        )
        if var.name not in con_set
    ]
    pool = [
        stack_factors(
            [
                DenseFactor.from_constraint(p.constraints[j], lowering)
                for p in problems
            ]
        )
        for j in range(len(head.constraints))
    ]
    for var in to_eliminate:
        bucket = [f for f in pool if var.name in f.support]
        rest = [f for f in pool if var.name not in f.support]
        if not bucket:
            continue
        stats.buckets_processed += 1
        combined = combine_factors(bucket)
        stats.largest_intermediate = max(
            stats.largest_intermediate,
            assignment_space_size(combined.scope),
        )
        pool = rest + [combined.hide(var.name)]
    solution = combine_factors(pool).project(head.con)
    if isinstance(solution, DenseFactor):
        solution = stack_factors([solution] * len(problems))
    results = []
    for member in solution.split():
        table = member.to_table()
        member_stats = replace(stats)
        member_stats.largest_intermediate = max(
            member_stats.largest_intermediate,
            assignment_space_size(table.scope),
        )
        results.append((table, member_stats))
    return results


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
