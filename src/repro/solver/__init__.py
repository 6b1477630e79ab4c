"""SCSP solving (paper Sec. 2's ``Sol``/``blevel``, mechanized).

Backends: exhaustive enumeration (reference, any semiring), bucket
elimination (exact, any semiring, avoids the full joint table), branch &
bound (totally ordered semirings), stacked dense scans (a group of small
topology-sharing problems at once), plus soft arc consistency and
α-cuts.  ``solve`` picks a backend automatically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from .alphacut import (
    alpha_cut,
    alpha_cut_problem,
    consistency_level_among,
    satisfiable_at,
)
from .branch_bound import solve_branch_bound
from .cache import (
    DEFAULT_SOLVE_CACHE_SIZE,
    SolveCache,
    group_entry,
    group_fingerprint,
    group_results,
    problem_fingerprint,
)
from .consistency import (
    PropagationStats,
    enforce_arc_consistency,
    prune_domains,
)
from .elimination import (
    DEFAULT_BUCKET_CACHE_SIZE,
    BucketCache,
    check_shared_topology,
    clear_bucket_cache,
    eliminate,
    shared_bucket_cache,
    solve_elimination,
)
from .exhaustive import solve_exhaustive
from .kernels import (
    DenseFactor,
    KernelError,
    Lowering,
    lower_semiring,
    lowering_fallback_stats,
    resolve_lowering,
)
from .minibucket import minibucket_bound, screening_test
from .heuristics import (
    ORDERINGS,
    given_order,
    max_degree_order,
    min_degree_order,
    min_domain_order,
    resolve_ordering,
)
from .problem import SCSP, ProblemError, SolverResult, SolverStats
from .stacked import (
    STACK_LIMIT,
    _scan,
    solve_stacked,
    stackable,
    topology_groups,
)

_METHODS = {
    "exhaustive": solve_exhaustive,
    "branch-bound": solve_branch_bound,
    "elimination": solve_elimination,
}


#: Methods whose hot loop can run over dense ndarray kernels.
_BACKEND_AWARE = ("branch-bound", "elimination")


def solve(
    problem: "SCSP | Sequence[SCSP]",
    method: str = "auto",
    backend: str = "auto",
    cache: "SolveCache | None" = None,
    bucket_cache: "BucketCache | None" = None,
    **options,
) -> "SolverResult | List[SolverResult]":
    """Solve an SCSP, or a list of topology-sharing SCSPs, with the
    requested backend.

    ``method="auto"`` picks branch & bound for totally ordered semirings
    and bucket elimination otherwise.  ``backend`` selects the factor
    representation for the methods that support it (``auto``/``dict``/
    ``dense``, see :mod:`repro.solver.kernels`).  When ``cache`` is given
    the solve is keyed by :func:`~repro.solver.cache.problem_fingerprint`
    and answered from a warm entry when one exists.  ``bucket_cache``
    (elimination only) additionally memoizes per-bucket intermediates so
    a near-miss — same topology, one factor changed — re-eliminates only
    the affected buckets; it never changes results, so it is deliberately
    excluded from the problem fingerprint.

    Given a list, ``solve`` returns one result per problem, in order.
    Under ``method="auto"`` a :func:`~repro.solver.stacked.stackable`
    group is answered by one :func:`~repro.solver.stacked.solve_stacked`
    scan, cached as one entry under
    :func:`~repro.solver.cache.group_fingerprint`; its answers equal
    branch & bound's bit for bit.  Any other list is solved problem by
    problem.
    """
    if not isinstance(problem, SCSP):
        return _solve_group(
            list(problem), method, backend, cache, bucket_cache, options
        )
    if method == "auto":
        method = (
            "branch-bound"
            if problem.semiring.is_total_order()
            else "elimination"
        )
    try:
        backend_fn = _METHODS[method]
    except KeyError:
        known = ", ".join(sorted(_METHODS) + ["auto"])
        raise ProblemError(
            f"unknown solve method {method!r}; known: {known}"
        ) from None
    call_options = dict(options)
    if method in _BACKEND_AWARE:
        call_options["backend"] = backend
    if bucket_cache is not None and method == "elimination":
        call_options["bucket_cache"] = bucket_cache
    if cache is not None:
        key = problem_fingerprint(problem, method, backend, options)
        hit = cache.fetch(key, problem)
        if hit is not None:
            return hit
    result = backend_fn(problem, **call_options)
    if cache is not None:
        cache.store(key, result)
    return result


def _solve_group(
    problems: List[SCSP],
    method: str,
    backend: str,
    cache: "SolveCache | None",
    bucket_cache: "BucketCache | None",
    options: Dict[str, Any],
) -> List[SolverResult]:
    """``solve`` over a list: one stacked scan, or one solve each."""
    if not problems:
        raise ProblemError("solve needs at least one problem")
    if method != "auto" or not stackable(problems[0], backend):
        return [
            solve(problem, method, backend, cache, bucket_cache, **options)
            for problem in problems
        ]
    # Checked before the cache is asked: a group key names only the
    # first member's semiring and ``con``.
    check_shared_topology(problems)
    if cache is None:
        return _scan(problems, backend=backend, **options)
    key = group_fingerprint(problems, "stacked", backend, options)
    entry = cache.fetch_entry(key)
    if entry is not None:
        return group_results(entry, problems)
    results = _scan(problems, backend=backend, **options)
    cache.store_entry(key, group_entry(results))
    return results


__all__ = [
    "SCSP",
    "ProblemError",
    "SolverResult",
    "SolverStats",
    "SolveCache",
    "DEFAULT_SOLVE_CACHE_SIZE",
    "problem_fingerprint",
    "group_fingerprint",
    "BucketCache",
    "DEFAULT_BUCKET_CACHE_SIZE",
    "shared_bucket_cache",
    "clear_bucket_cache",
    "DenseFactor",
    "KernelError",
    "Lowering",
    "lower_semiring",
    "lowering_fallback_stats",
    "resolve_lowering",
    "solve",
    "solve_exhaustive",
    "solve_branch_bound",
    "solve_stacked",
    "stackable",
    "topology_groups",
    "STACK_LIMIT",
    "solve_elimination",
    "eliminate",
    "enforce_arc_consistency",
    "prune_domains",
    "PropagationStats",
    "minibucket_bound",
    "screening_test",
    "alpha_cut",
    "alpha_cut_problem",
    "satisfiable_at",
    "consistency_level_among",
    "ORDERINGS",
    "given_order",
    "min_degree_order",
    "min_domain_order",
    "max_degree_order",
    "resolve_ordering",
]
