"""Stacked dense scans: one solve for a group of candidate SCSPs.

The broker's step 3 solves one problem per candidate, ``requirements ⊗
offer``.  A session's candidates share the requirements, and a market
of uniform offers gives them one constraint topology.  When one such
problem's joint table is small, scanning it densely is cheaper than
branch & bound's search.  Scanning the whole group at once, with the
candidate as a leading member axis, pays the Python overhead once per
group instead of once per candidate.

The offers change only when the registry does, so they are lowered and
stacked once (:class:`OfferGroup`, built by the broker's market plan);
a session lowers its requirements once (:class:`Requirement`) and
broadcasts them as a length-1 member against each group.  A mask of
member indices selects the candidates the registry admits
(:class:`GroupScan`, solved by :func:`scan_group` through
:func:`repro.solver.solve`).  :func:`solve_stacked` scans a list of
topology-sharing problems the same way, each problem a member.

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
from typing import TYPE_CHECKING, Any, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..constraints.constraint import SoftConstraint
from ..constraints.store import _MATERIALIZE_LIMIT
from ..constraints.variables import (
    Variable,
    assignment_space_size,
    merge_scopes,
    scope_names,
)
from ..telemetry import get_registry, get_tracer
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




#: One member's scan answer: its blevel and its optima, each optimum
#: the ``(name, value)`` items of its ``con`` assignment, sorted by
#: name.  A scan's solve-cache entry is the tuple of its members' rows.
Row = Tuple[Any, Tuple[Tuple[Tuple[str, Any], ...], ...]]


class OfferGroup:
    """Topology-sharing members lowered once and stacked on the member
    axis: one array per constraint position, of length ``size``.

    The broker's market plan builds one per topology group of published
    offers, once per registry version; :meth:`scan` pairs it with a
    session's :class:`Requirement`.  ``digest`` covers every member's
    factor bytes, so two groups built from different objects share it
    when their arrays are equal.
    """

    def __init__(
        self,
        members: Sequence[Sequence[SoftConstraint]],
        lowering: Lowering,
    ) -> None:
        lower = DenseFactor.from_constraint
        factors = [
            [lower(constraint, lowering) for constraint in member]
            for member in members
        ]
        #: The first member's constraints: a scan plan is compiled from
        #: them (plans depend on names and domain sizes only).
        self.head: Tuple[SoftConstraint, ...] = tuple(members[0])
        self.lowering = lowering
        self.size = len(members)
        #: The full mask.
        self.everyone = tuple(range(self.size))
        self.topology = _topology(self.head)
        self.variables = merge_scopes(*[c.scope for c in self.head])
        self.arrays = tuple(
            [
                np.stack([row[position].array for row in factors])
                for position in range(len(self.head))
            ]
        )
        empty = [p for p, constraint in enumerate(self.head) if not constraint.scope]
        unlift = lowering.unlift
        #: Each member's empty-scope values, unlifted, in position order.
        self.empties = tuple(
            [tuple([unlift(row[p].array[()]) for p in empty]) for row in factors]
        )
        digest = hashlib.sha256(f"{self.size}x{len(self.head)};".encode())
        digest.update(b"".join([f.digest() for row in factors for f in row]))
        self.digest = digest.digest()

    def scan(
        self, requirement: "Requirement", members: Sequence[int]
    ) -> "GroupScan | None":
        """``requirement`` against the ``members`` (ascending indices),
        or ``None`` when their joint table exceeds :data:`STACK_LIMIT`
        (branch & bound's case)."""
        variables = merge_scopes(requirement.variables, self.variables)
        if assignment_space_size(variables) > STACK_LIMIT:
            return None
        return GroupScan(
            self, requirement, tuple(members), variables, scope_names(variables)
        )


class Requirement:
    """A session's requirements, broadcast against every offer group as
    a length-1 member: the delta a session adds to the market.  They are
    lowered once, by the first scan that reads them (:meth:`lowered`)."""

    __slots__ = ("constraints", "lowering", "variables", "topology", "_lowered")

    def __init__(
        self, constraints: Sequence[SoftConstraint], lowering: Lowering
    ) -> None:
        self.constraints: Tuple[SoftConstraint, ...] = tuple(constraints)
        foreign = {c.semiring for c in self.constraints} - {lowering.semiring}
        if foreign:
            names = sorted(s.name for s in foreign | {lowering.semiring})
            raise ProblemError(
                f"all constraints must share one semiring, got {names}"
            )
        self.lowering = lowering
        self.variables = merge_scopes(*[c.scope for c in self.constraints])
        self.topology = _topology(self.constraints)
        self._lowered: "_Lowered | None" = None

    def lowered(self) -> "_Lowered":
        lowered = self._lowered
        if lowered is None:
            lowering = self.lowering
            factors = [
                DenseFactor.from_constraint(constraint, lowering)
                for constraint in self.constraints
            ]
            lowered = self._lowered = _Lowered(
                [factor.array[np.newaxis] for factor in factors],
                tuple(
                    [
                        lowering.unlift(factor.array[()])
                        for factor, constraint in zip(factors, self.constraints)
                        if not constraint.scope
                    ]
                ),
                b"".join([factor.digest() for factor in factors]),
            )
        return lowered


class _Lowered(NamedTuple):
    """A :class:`Requirement` lowered: each factor's array with a
    length-1 member axis, the empty-scope values unlifted, and the
    factor digests."""

    arrays: List[np.ndarray]
    empties: Tuple[Any, ...]
    digest: bytes


class GroupScan(NamedTuple):
    """One stacked scan: ``requirement ⊗ offer`` for each selected
    member of ``group``, over ``variables`` (the requirement's first),
    projected onto ``con``.  ``members`` is the mask: ascending member
    indices."""

    group: OfferGroup
    requirement: Requirement
    members: Tuple[int, ...]
    variables: Tuple[Variable, ...]
    con: Tuple[str, ...]


def group_key(
    scan: GroupScan, ordering: str | OrderingFn, backend: str
) -> str | None:
    """The solve-cache key of one stacked scan, or ``None`` for a
    callable ``ordering`` (not a value, so not keyable).

    One SHA-256 over the semiring, ``con``, ordering, backend and shape,
    the requirement's factor digests
    (:meth:`~repro.solver.kernels.DenseFactor.digest`), the group's
    digest and the mask.  The scan reads nothing but those arrays, the
    plan (a function of the scope names, domain sizes, ``con`` and
    ordering) and the ``con`` domains, so equal keys run the same ufunc
    calls on the same bytes and read the same rows.  Scans built from
    different objects, or by different brokers, share a key when their
    factors hold equal bytes.
    """
    if callable(ordering):
        return None
    group, requirement = scan.group, scan.requirement
    key = hashlib.sha256(
        f"stacked {group.lowering.semiring!r};con {scan.con!r};"
        f"ordering {ordering};backend {backend};"
        f"{len(requirement.constraints)}+{len(group.head)};".encode()
    )
    key.update(requirement.lowered().digest)
    key.update(group.digest)
    key.update(f"mask {scan.members!r}".encode())
    return key.hexdigest()


def _scan_plan(scan: GroupScan, ordering: str | OrderingFn) -> _ScanPlan:
    key = None if callable(ordering) else (
        "stacked",
        scan.requirement.topology + scan.group.topology,
        scan.con,
        ordering,
    )
    return _memoized(
        key,
        lambda: _compile_scan(
            SCSP(scan.requirement.constraints + scan.group.head, con=scan.con),
            ordering,
        ),
    )


def _base(scan: GroupScan, empty: Tuple[int, ...]) -> np.ndarray:
    """Each member's ``base_value`` exactly as branch & bound folds it
    (length 1 when there is no empty-scope constraint).  Read off the
    empty-scope factors: a 0-d array holds the constraint's value as
    the dtype does, which is what the fold's result is stored as."""
    lowering = scan.group.lowering
    semiring = lowering.semiring
    if not empty:
        values = [semiring.one]
    else:
        head, empties = scan.requirement.lowered().empties, scan.group.empties
        values = [semiring.prod(head + empties[m]) for m in scan.members]
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


def scan_group(
    scan: GroupScan,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
    cache: "SolveCache | None" = None,
) -> List[Row]:
    """One stacked scan's rows, one per selected member, in mask order.

    Each row's blevel and optima equal ``solve_branch_bound`` on the
    member's ``requirement ⊗ offer`` SCSP bit for bit (see the module
    docstring); ``lookahead`` only shapes that search, so it is accepted
    and ignored.  With a ``cache``, the rows are looked up under
    :func:`group_key` first; a hit records no solve metric and opens no
    ``solver.solve`` span.  Wall time is reported to telemetry amortized
    over the members, so ``solver_solve_seconds`` keeps meaning
    per-solve cost.
    """
    key = None
    if cache is not None:
        key = group_key(scan, ordering, backend)
        entry = None if key is None else cache.fetch_entry(key)
        if entry is not None:
            return list(entry)
    group, members = scan.group, scan.members
    lowering = group.lowering
    started = time.perf_counter()
    with get_tracer().span("solver.solve", method="stacked", size=len(members)):
        plan = _scan_plan(scan, ordering)
        variables = {var.name: var for var in scan.variables}
        domains = [variables[name].domain for _depth, name in plan.con]
        offers = group.arrays
        if members != group.everyone:
            offers = [array[list(members)] for array in offers]
        base = _base(scan, plan.empty)
        heads = scan.requirement.lowered().arrays
        chunk = max(1, GRID_LIMIT // plan.step.size)
        rows: List[Row] = []
        for start in range(0, len(members), chunk):
            stop = min(start + chunk, len(members))
            arrays = [*heads, *[array[start:stop] for array in offers]]
            arrays.append(base if len(base) == 1 else base[start:stop])
            # One row answers every member when they share every factor.
            lead = max(len(array) for array in arrays)
            step = plan.step._replace(dims=(lead, *plan.step.dims))
            grid = run_step(step, arrays, lowering)
            read = _read(grid.reshape(len(grid), -1), plan, domains, lowering)
            rows.extend(read * (stop - start) if len(read) == 1 else read)
    elapsed = (time.perf_counter() - started) / len(members)
    if key is not None:
        cache.store_entry(key, tuple(rows))
    if get_registry().enabled:
        # The scan evaluates every leaf of the search tree, once.
        size = plan.step.size
        stats = SolverStats(
            nodes_expanded=size, leaves_evaluated=size, largest_intermediate=size
        )
        for _ in members:
            record_solve_metrics("stacked", stats, elapsed, backend="dense")
    return rows


def _results(
    problems: Sequence[SCSP], rows: Sequence[Row]
) -> List[SolverResult]:
    """One :class:`SolverResult` per member from the scan's rows, with
    fresh lists and dicts: a cache hit and a miss build the same."""
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
    module docstring).
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
    topology: one :func:`scan_group` of the problems as the members of
    one group, with an empty requirement."""
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
    head = problems[0]
    group = OfferGroup([problem.constraints for problem in problems], lowering)
    scan = GroupScan(
        group,
        Requirement((), lowering),
        group.everyone,
        head.variables,
        head.con,
    )
    return _results(problems, scan_group(scan, ordering, lookahead, backend, cache))
