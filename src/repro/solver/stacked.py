"""Stacked group solves: one solve for a group of candidate SCSPs.

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

A group whose joint table exceeds :data:`STACK_LIMIT` is too large to
scan, so branch & bound solves each member; what its members share is
still done once (:class:`GroupSearch`, solved by :func:`search_group`;
:meth:`OfferGroup.work` picks the scan or the search).
The search plan is compiled once, and every bucket message is computed
once for all members with the member axis leading, as in a scan; each
member is then searched on its own rows by branch & bound's own
``search_tree``.  ``solve`` of a list of topology-sharing problems runs
the same scan or search, each problem a member.

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

The group search reproduces it by running it: a stacked message is the
same ``run_step`` ufunc calls, in the same fold order, on the same
values as one member's message (the member axis only broadcasts), and
``tolist`` turns each into the very Python values branch & bound reads.
The search over them is branch & bound's own code, with the member's
own constraints, base value and ``con``.
"""

from __future__ import annotations

import copy
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
from .branch_bound import _reader, activated_readers, base_value, search_tree
from .elimination import (
    SearchPlan,
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


def _groupable(problem: SCSP, backend: str = "auto") -> bool:
    """Whether ``problem``'s topology group is solved as one group (a
    scan or a search): a totally ordered semiring that lowers, on the
    dense backend."""
    semiring = problem.semiring
    return (
        backend != "dict"
        and semiring.is_total_order()
        and lower_semiring(semiring) is not None
    )


def stackable(problem: SCSP, backend: str = "auto") -> bool:
    """Whether a stacked scan solves ``problem``'s topology group: a
    totally ordered semiring that lowers, and a joint table within
    :data:`STACK_LIMIT` entries."""
    return (
        assignment_space_size(problem.variables) <= STACK_LIMIT
        and _groupable(problem, backend)
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
    offers, once per registry version; :meth:`work` pairs it with a
    session's :class:`Requirement`.  A position is
    lowered when a solve first reads it (:meth:`stacked`): a scan reads
    every position, a search only those its bucket pass reads, so an
    uncached search tabulates nothing branch & bound would not.
    ``digest`` covers every member's factor bytes (a cached solve's key
    reads every factor, as a per-problem fingerprint does), so two
    groups built from different objects share it when their arrays are
    equal.
    """

    def __init__(
        self,
        members: Sequence[Sequence[SoftConstraint]],
        lowering: Lowering,
    ) -> None:
        #: Each member's constraints, in position order.
        self.members: Tuple[Tuple[SoftConstraint, ...], ...] = tuple(
            [tuple(member) for member in members]
        )
        #: The first member's constraints: plans are compiled from them
        #: (plans depend on names and domain sizes only).
        self.head = self.members[0]
        self.lowering = lowering
        self.size = len(self.members)
        #: The full mask.
        self.everyone = tuple(range(self.size))
        self.topology = _topology(self.head)
        self.variables = merge_scopes(*[c.scope for c in self.head])
        self._stacks: List[Any] = [None] * len(self.head)
        self._empties: Any = None
        self._digest: Any = None

    def stacked(self, position: int) -> np.ndarray:
        """Every member's factor at ``position``, lowered and stacked on
        the member axis (on first use)."""
        array = self._stacks[position]
        if array is None:
            lower, lowering = DenseFactor.from_constraint, self.lowering
            array = self._stacks[position] = np.stack(
                [lower(member[position], lowering).array for member in self.members]
            )
        return array

    @property
    def empties(self) -> Tuple[Tuple[Any, ...], ...]:
        """Each member's empty-scope values, unlifted, in position order."""
        empties = self._empties
        if empties is None:
            unlift = self.lowering.unlift
            stacks = [
                self.stacked(p) for p, c in enumerate(self.head) if not c.scope
            ]
            empties = self._empties = tuple(
                [tuple([unlift(stack[m]) for stack in stacks])
                 for m in self.everyone]
            )
        return empties

    @property
    def digest(self) -> bytes:
        """SHA-256 over every member's factor digests, member by member."""
        digest = self._digest
        if digest is None:
            lower, lowering = DenseFactor.from_constraint, self.lowering
            piece = hashlib.sha256(f"{self.size}x{len(self.head)};".encode())
            piece.update(
                b"".join(
                    [
                        lower(constraint, lowering).digest()
                        for member in self.members
                        for constraint in member
                    ]
                )
            )
            digest = self._digest = piece.digest()
        return digest

    def work(
        self, requirement: "Requirement", members: Sequence[int]
    ) -> "GroupScan | None":
        """``requirement`` against the ``members`` (ascending indices): a
        :class:`GroupScan` when their joint table is within
        :data:`STACK_LIMIT`, a :class:`GroupSearch` when it is over.
        ``None`` when a search would read a factor over the store's
        materialization limit: branch & bound reads such a factor
        through ``value()``, so those members are solved one by one."""
        scan = GroupScan.of(self, requirement, members)
        if assignment_space_size(scan.variables) <= STACK_LIMIT:
            return scan
        if _tabulable(requirement.constraints + self.head):
            return GroupSearch(*scan)
        return None


def _tabulable(constraints: Sequence[SoftConstraint]) -> bool:
    """Whether every constraint is within the store's materialization
    limit (a group search reads each through its table)."""
    return all(
        [
            assignment_space_size(constraint.scope) <= _MATERIALIZE_LIMIT
            for constraint in constraints
        ]
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

    @classmethod
    def of(
        cls, group: OfferGroup, requirement: Requirement, members: Sequence[int]
    ) -> "GroupScan":
        """``requirement`` against ``group``'s ``members``, projected
        onto every variable, whatever the joint table's size."""
        variables = merge_scopes(requirement.variables, group.variables)
        return cls(
            group, requirement, tuple(members), variables, scope_names(variables)
        )


class GroupSearch(GroupScan):
    """One group search: a :class:`GroupScan`'s work, for members whose
    joint table exceeds :data:`STACK_LIMIT` (:func:`search_group`)."""

    __slots__ = ()


def group_key(
    work: "GroupScan | GroupSearch",
    ordering: str | OrderingFn,
    backend: str,
    lookahead: bool = True,
) -> str | None:
    """The solve-cache key of one stacked scan or group search, or
    ``None`` for a callable ``ordering`` (not a value, so not keyable).

    One SHA-256 over the kind, semiring, ``con``, ordering, backend and
    shape, the requirement's factor digests
    (:meth:`~repro.solver.kernels.DenseFactor.digest`), the group's
    digest and the mask.  The scan reads nothing but those arrays, the
    plan (a function of the scope names, domain sizes, ``con`` and
    ordering) and the ``con`` domains, so equal keys run the same ufunc
    calls on the same bytes and read the same rows.  A search also
    reads the tables those arrays were lowered from, whose values a
    table holds normalized, so equal bytes are equal values; its
    statistics depend on ``lookahead``, which its key adds.  Work built
    from different objects, or by different brokers, shares a key when
    its factors hold equal bytes.
    """
    if callable(ordering):
        return None
    group, requirement = work.group, work.requirement
    kind = (
        f"search lookahead {bool(lookahead)}"
        if isinstance(work, GroupSearch)
        else "stacked"
    )
    key = hashlib.sha256(
        f"{kind} {group.lowering.semiring!r};con {work.con!r};"
        f"ordering {ordering};backend {backend};"
        f"{len(requirement.constraints)}+{len(group.head)};".encode()
    )
    key.update(requirement.lowered().digest)
    key.update(group.digest)
    key.update(f"mask {work.members!r}".encode())
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
        offers = [group.stacked(p) for p in range(len(group.head))]
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
    problems: Sequence[SCSP],
    rows: Sequence[Row],
    method: str,
    stats: Sequence[SolverStats],
) -> List[SolverResult]:
    """One :class:`SolverResult` per member from a group's rows, with
    fresh lists, dicts and statistics: a cache hit and a miss build the
    same."""
    return [
        SolverResult(
            problem=problem,
            blevel=blevel,
            frontier=[blevel],
            optima=[[dict(items) for items in optima]],
            method=method,
            stats=copy.copy(searched),
        )
        for problem, (blevel, optima), searched in zip(problems, rows, stats)
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
    size = assignment_space_size(head.variables)
    stats = SolverStats(
        nodes_expanded=size, leaves_evaluated=size, largest_intermediate=size
    )
    rows = scan_group(scan, ordering, lookahead, backend, cache)
    return _results(problems, rows, "stacked", [stats] * len(problems))


# ----------------------------------------------------------------------
# Group search: over-bound groups, one bucket pass for every member
# ----------------------------------------------------------------------


class _SearchPlan(NamedTuple):
    """A :class:`~repro.solver.elimination.SearchPlan` whose message
    steps are lifted onto a leading member axis: their views and
    reduced axes shift by one, and a run prepends the member count to
    their ``dims``.  ``transposes`` put each lifted message's axes in
    search order behind the member axis."""

    plan: SearchPlan
    steps: Tuple[Step, ...]
    transposes: Tuple[Any, ...]


def _behind(transpose: Any) -> Any:
    """``transpose`` behind a leading member axis."""
    return None if transpose is None else (0, *[a + 1 for a in transpose])


def _lift(step: Step) -> Step:
    return step._replace(
        views=tuple(
            [(_behind(transpose), (-1, *shape)) for transpose, shape in step.views]
        ),
        axes=tuple([axis + 1 for axis in step.axes]),
    )


def _search_plan(work: GroupSearch, ordering: str | OrderingFn) -> _SearchPlan:
    def compile() -> _SearchPlan:
        plan = search_plan(
            SCSP(work.requirement.constraints + work.group.head),
            ordering,
            _MATERIALIZE_LIMIT,
        )
        return _SearchPlan(
            plan,
            tuple([_lift(message.step) for message in plan.messages]),
            tuple([_behind(message.transpose) for message in plan.messages]),
        )

    key = None if callable(ordering) else (
        "group-search",
        work.requirement.topology + work.group.topology,
        ordering,
        _MATERIALIZE_LIMIT,
    )
    return _memoized(key, compile)


def _messages(
    work: GroupSearch, compiled: _SearchPlan, members: Tuple[int, ...]
) -> List[Any]:
    """The bucket pass, run once for ``members`` with the member axis
    leading: each message's rows as nested lists, member first (one
    entry when the message reads no offer).  Only the slots the plan
    reads are lowered, as branch & bound lowers them."""
    group, requirement = work.group, work.requirement
    lowering = group.lowering
    width = len(requirement.constraints)
    arrays: List[Any] = [None] * (width + len(group.head))
    for slot in compiled.plan.lowered:
        if slot < width:
            arrays[slot] = DenseFactor.from_constraint(
                requirement.constraints[slot], lowering
            ).array[np.newaxis]
        else:
            stack = group.stacked(slot - width)
            arrays[slot] = (
                stack if members == group.everyone else stack[list(members)]
            )
    rows = []
    for step, transpose in zip(compiled.steps, compiled.transposes):
        lead = max([len(arrays[slot]) for slot in step.inputs])
        array = run_step(step._replace(dims=(lead, *step.dims)), arrays, lowering)
        arrays.append(array)
        if transpose is not None:
            array = array.transpose(transpose)
        # ``tolist`` yields the very Python values ``to_table`` would.
        rows.append(array.tolist())
    return rows


def _searched(
    work: GroupSearch,
    ordering: str | OrderingFn,
    lookahead: bool,
    backend: str,
    cache: "SolveCache | None",
) -> Tuple[Tuple[Row, ...], Tuple[SolverStats, ...]]:
    """A group search's rows and each member's search statistics: its
    solve-cache entry, looked up under :func:`group_key` first."""
    key = None
    if cache is not None:
        key = group_key(work, ordering, backend, lookahead)
        entry = None if key is None else cache.fetch_entry(key)
        if entry is not None:
            return entry
    group, members = work.group, work.members
    semiring = group.lowering.semiring
    started = time.perf_counter()
    rows: List[Row] = []
    stats: List[SolverStats] = []
    with get_tracer().span(
        "solver.solve", method="branch-bound", size=len(members)
    ):
        compiled = _search_plan(work, ordering)
        plan = compiled.plan
        order = [work.variables[var] for var in plan.order]
        position = {var.name: depth for depth, var in enumerate(order)}
        lookahead = lookahead and semiring.times_monotone and len(order) > 1
        chunk = len(members)
        if lookahead and compiled.steps:
            largest = max([step.size for step in compiled.steps])
            chunk = max(1, GRID_LIMIT // largest)
        head = work.requirement.constraints
        for start in range(0, len(members), chunk):
            picked = members[start : start + chunk]
            messages = _messages(work, compiled, picked) if lookahead else []
            for index, member in enumerate(picked):
                constraints = head + group.members[member]
                covering: List[List[Any]] = [[] for _ in order]
                for message, lists in zip(plan.messages, messages):
                    own = lists[0] if len(lists) == 1 else lists[index]
                    for covered in message.covers:
                        covering[covered].append(
                            _reader(own, message.depths, covered)
                        )
                blevel, optima, searched = search_tree(
                    semiring,
                    order,
                    activated_readers(constraints, plan, order, position),
                    covering,
                    lookahead and plan.exact,
                    base_value(constraints, semiring),
                    work.con,
                )
                rows.append((blevel, tuple(optima)))
                stats.append(searched)
    elapsed = (time.perf_counter() - started) / len(members)
    entry = (tuple(rows), tuple(stats))
    if key is not None:
        cache.store_entry(key, entry)
    if get_registry().enabled:
        for searched in stats:
            record_solve_metrics("branch-bound", searched, elapsed, backend="dense")
    return entry


def search_group(
    work: GroupSearch,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
    cache: "SolveCache | None" = None,
) -> List[Row]:
    """One group search's rows, one per selected member, in mask order.

    Branch & bound for every member at once: the search plan is
    compiled once, every bucket message is computed once for all
    members (the member axis leading, as in a scan), and each member is
    then searched on its own rows with branch & bound's own fold, order,
    pruning rule and threshold seeding
    (:func:`~repro.solver.branch_bound.search_tree`).  So each row's
    blevel and optima equal ``solve_branch_bound`` on the member's
    ``requirement ⊗ offer`` SCSP bit for bit: a stacked ``×`` and ``⊕``
    run the very ufunc calls on the very values a single problem's
    does.  With a ``cache``, the rows are looked up under
    :func:`group_key` first; a hit records no solve metric and opens no
    ``solver.solve`` span.
    """
    return list(_searched(work, ordering, lookahead, backend, cache)[0])


def _search(
    problems: List[SCSP],
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
    cache: "SolveCache | None" = None,
) -> List[SolverResult]:
    """Branch & bound over problems already known to share one topology
    whose semiring lowers: one group search of the problems as the
    members of one group, with an empty requirement.  Each result
    carries its member's own search statistics."""
    lowering = resolve_lowering(problems[0].semiring, backend)
    group = OfferGroup([problem.constraints for problem in problems], lowering)
    work = GroupSearch(
        group,
        Requirement((), lowering),
        group.everyone,
        problems[0].variables,
        problems[0].con,
    )
    rows, stats = _searched(work, ordering, lookahead, backend, cache)
    return _results(problems, rows, "branch-bound", stats)
