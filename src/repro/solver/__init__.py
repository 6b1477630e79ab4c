"""SCSP solving (paper Sec. 2's ``Sol``/``blevel``, mechanized).

Backends: exhaustive enumeration (reference, any semiring), bucket
elimination (exact, any semiring, avoids the full joint table), branch &
bound (totally ordered semirings), stacked group solves (a dense scan
of a group of small topology-sharing problems, or one bucket pass and a
branch & bound per member for a larger group), plus soft arc
consistency and α-cuts.  ``solve`` picks a backend automatically.
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
    problem_fingerprint,
)
from .consistency import (
    PropagationStats,
    enforce_arc_consistency,
    prune_domains,
)
from .elimination import (
    check_shared_topology,
    eliminate,
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
    GroupScan,
    GroupSearch,
    OfferGroup,
    Requirement,
    Row,
    _groupable,
    _scan,
    _search,
    _tabulable,
    group_key,
    scan_group,
    search_group,
    solve_stacked,
    stackable,
)

_METHODS = {
    "exhaustive": solve_exhaustive,
    "branch-bound": solve_branch_bound,
    "elimination": solve_elimination,
}


#: Methods whose hot loop can run over dense ndarray kernels.
_BACKEND_AWARE = ("branch-bound", "elimination")


def solve(
    problem: "SCSP | Sequence[SCSP] | GroupScan",
    method: str = "auto",
    backend: str = "auto",
    cache: "SolveCache | None" = None,
    **options,
) -> "SolverResult | List[SolverResult] | List[Row]":
    """Solve an SCSP, or a list of topology-sharing SCSPs, with the
    requested backend.

    ``method="auto"`` picks branch & bound for totally ordered semirings
    and bucket elimination otherwise.  ``backend`` selects the factor
    representation for the methods that support it (``auto``/``dict``/
    ``dense``, see :mod:`repro.solver.kernels`).  When ``cache`` is given
    the solve is keyed by :func:`~repro.solver.cache.problem_fingerprint`
    and answered from a warm entry when one exists.

    Given a list, ``solve`` returns one result per problem, in order.
    Under ``method="auto"``, problems sharing one topology over a totally
    ordered semiring that lowers are solved as one group, cached as one
    entry under :func:`~repro.solver.stacked.group_key`: a
    :func:`~repro.solver.stacked.stackable` group by one stacked scan
    (``method="stacked"``), a larger one by one
    :func:`~repro.solver.stacked.search_group` (``method="branch-bound"``,
    each result with its own search statistics).  Either way the answers
    equal branch & bound's bit for bit.  A group holding a factor over
    the store's materialization limit, and any other list, is solved
    problem by problem.

    Given a :class:`~repro.solver.stacked.GroupScan` or
    :class:`~repro.solver.stacked.GroupSearch` (a session's requirements
    against a stacked group of the broker's market plan), ``solve``
    returns its :func:`~repro.solver.stacked.scan_group` or
    :func:`~repro.solver.stacked.search_group` rows, cached as one entry
    under :func:`~repro.solver.stacked.group_key`; both are dense, so
    ``method`` must be ``"auto"``.
    """
    if isinstance(problem, GroupScan):
        if method != "auto":
            raise ProblemError(
                f"a stacked group solve has no method {method!r}"
            )
        run = search_group if isinstance(problem, GroupSearch) else scan_group
        return run(problem, backend=backend, cache=cache, **options)
    if not isinstance(problem, SCSP):
        return _solve_group(list(problem), method, backend, cache, options)
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
    options: Dict[str, Any],
) -> List[SolverResult]:
    """``solve`` over a list: one stacked scan, one group search, or
    one solve each."""
    if not problems:
        raise ProblemError("solve needs at least one problem")
    head = problems[0]
    if method != "auto" or not _groupable(head, backend):
        return [
            solve(problem, method, backend, cache, **options)
            for problem in problems
        ]
    # Checked before the cache is asked: a group key names only the
    # first member's semiring and ``con``.
    check_shared_topology(problems)
    if stackable(head, backend):
        return _scan(problems, backend=backend, cache=cache, **options)
    if _tabulable(head.constraints):
        return _search(problems, backend=backend, cache=cache, **options)
    return [
        solve(problem, method, backend, cache, **options) for problem in problems
    ]


__all__ = [
    "SCSP",
    "ProblemError",
    "SolverResult",
    "SolverStats",
    "SolveCache",
    "DEFAULT_SOLVE_CACHE_SIZE",
    "problem_fingerprint",
    "group_key",
    "GroupScan",
    "GroupSearch",
    "OfferGroup",
    "Requirement",
    "scan_group",
    "search_group",
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
