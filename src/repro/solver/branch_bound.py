"""Depth-first branch & bound for totally ordered semirings.

Exploits ``×``-monotonicity (``a × b ≤S a``, the absorptive law): the
combined value of a completion can never beat the combination of the
constraints already fully instantiated, so that combination is a sound
upper bound and subtrees strictly worse than the incumbent are pruned.

Bucket-elimination messages over the search order (Kask & Dechter, AIJ
2001) tighten that bound to the *exact* best completion, and the root's
bounds ``⊕`` to the blevel, which seeds the prune threshold.  This needs
monotone, distributive ``×``
(:attr:`~repro.semirings.base.Semiring.times_monotone`); Lexicographic
problems, where tie-collapse breaks it, prune on the accumulated value.

The search addresses every factor by domain index: before descending,
each message and each constraint that already has a table becomes a
nested list whose axes follow the search order, so a node reads its
children's values as one row instead of evaluating constraints on an
assignment.  Any other constraint is evaluated one row per prefix the
search reaches.  The search itself (:func:`search_tree`) takes those
readers as arguments, so a group search (:mod:`repro.solver.stacked`)
runs it per member over messages computed once for the whole group.

Only valid when ``≤S`` is total (Boolean, Fuzzy, Probabilistic, Weighted,
Lexicographic); for partial orders (Set-based, products) use exhaustive
search or bucket elimination.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..constraints.constraint import SoftConstraint
from ..constraints.operations import combine
from ..constraints.store import _MATERIALIZE_LIMIT
from ..constraints.table import TableConstraint, memoized_table, to_table
from ..constraints.variables import Variable, assignment_space_size
from ..telemetry import get_tracer
from .elimination import SearchPlan, run_step, search_plan
from .heuristics import OrderingFn
from .kernels import DenseFactor, KernelError, Lowering, resolve_lowering
from .problem import (
    SCSP,
    ProblemError,
    SolverResult,
    SolverStats,
    record_solve_metrics,
)

#: A factor as the search reads it: ``(rows, path, whole)``.  ``rows`` is
#: a nested list with one axis per scope variable in search order; the
#: search indexes it with the domain indices chosen at the depths in
#: ``path`` and gets the row over the current depth's domain (``whole``)
#: or a scalar that holds for every child.  A constraint read through
#: ``value()`` is ``(_ValueRows, None, True)``.
Reader = Tuple[Any, Optional[Tuple[int, ...]], bool]


def solve_branch_bound(
    problem: SCSP,
    ordering: str | OrderingFn = "max-degree",
    lookahead: bool = True,
    backend: str = "auto",
) -> SolverResult:
    """Find the blevel and all optimal ``con``-assignments by DFS + pruning.

    ``lookahead`` bounds each node by the bucket-elimination messages
    that cover its depth (ablated in the E12 benchmark); off, a node is
    bounded by its accumulated value alone.  The messages are built with
    the dense kernels whenever the semiring lowers (``backend``, see
    :mod:`repro.solver.kernels`) and with table ``combine``/``hide``
    otherwise — bit-identical either way, so both backends search the
    same tree.  The blevel and its witnesses always come from the
    search's own left fold, in domain order.

    A constraint that already has a table (a table, a memoized
    ``to_table`` such as a solve-cache key leaves, or one the bucket
    pass built) is read through that table's rows.  The
    search never tabulates a constraint itself: any other constraint,
    and any beyond the store's materialization limit, is evaluated by
    ``value()`` once per row the search reaches.  So an intensional
    constraint that raises on some assignment raises when its table is
    built, or when the search reaches that assignment.
    """
    semiring = problem.semiring
    if not semiring.is_total_order():
        raise ProblemError(
            f"branch & bound needs a total order; {semiring.name} is partial"
        )
    try:
        lowering = resolve_lowering(semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None
    started = time.perf_counter()

    plan = search_plan(problem, ordering, _MATERIALIZE_LIMIT)
    order = [problem.variables[var] for var in plan.order]
    position = {var.name: depth for depth, var in enumerate(order)}

    covering: List[List[Reader]] = [[] for _ in order]
    exact = False
    if lookahead and semiring.times_monotone and len(order) > 1:
        covering = _bucket_messages(problem, plan, position, lowering)
        exact = plan.exact
    # Built after the bucket pass, whose tables they then read.
    values = activated_readers(problem.constraints, plan, order, position)

    with get_tracer().span(
        "solver.solve", method="branch-bound", problem=problem.name
    ):
        blevel, optima, stats = search_tree(
            semiring,
            order,
            values,
            covering,
            exact,
            base_value(problem.constraints, semiring),
            problem.con,
        )
    record_solve_metrics(
        "branch-bound",
        stats,
        time.perf_counter() - started,
        backend="dict" if lowering is None else "dense",
    )
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=[blevel],
        optima=[[dict(items) for items in optima]],
        method="branch-bound",
        stats=stats,
    )


def activated_readers(
    constraints: Sequence[SoftConstraint],
    plan: SearchPlan,
    order: Sequence[Variable],
    position: Dict[str, int],
) -> List[List[Reader]]:
    """``values[d]``: a reader of each constraint fully assigned once
    depth ``d`` is, in activation order."""
    return [
        [_constraint_reader(constraints[slot], order, position) for slot in slots]
        for slots in plan.activation
    ]


def base_value(constraints: Sequence[SoftConstraint], semiring: Any) -> Any:
    """The ``×`` of the empty-scope constraints' values (``1`` if none):
    the value every leaf's fold starts from."""
    empty = [c for c in constraints if not c.scope]
    if not empty:
        return semiring.one
    return semiring.prod(c.value({}) for c in empty)


def search_tree(
    semiring: Any,
    order: Sequence[Variable],
    values: List[List[Reader]],
    covering: List[List[Reader]],
    exact: bool,
    base: Any,
    con: Sequence[str],
) -> Tuple[Any, List[Tuple[Tuple[str, Any], ...]], SolverStats]:
    """Depth-first branch & bound over ``order``.

    ``values[d]`` reads the constraints activated at depth ``d`` and
    ``covering[d]`` the bucket messages bounding it; ``exact`` seeds the
    prune threshold with the root bounds' ``⊕``.  Every leaf's value is
    the left fold of ``×`` from ``base`` through ``values`` by depth.
    Returns the blevel, the optima (each the ``(name, value)`` items of
    its ``con`` assignment, sorted by name, first-found order, without
    repeats) and the search's statistics.
    """
    stats = SolverStats()
    times, lt = semiring.times, semiring.lt
    sizes = [var.size for var in order]
    prefix = [0] * len(order)
    incumbent: Any = semiring.zero
    # The prune threshold: the better of the incumbent and the seed.
    cutoff: Any = semiring.zero
    witnesses: List[Tuple[int, ...]] = []

    def read(reader: Reader, depth: int) -> List[Any]:
        rows, path, whole = reader
        if path is None:
            return rows.row(prefix)
        for axis in path:
            rows = rows[prefix[axis]]
        return rows if whole else [rows] * sizes[depth]

    def node_values(depth: int, accumulated: Any) -> List[Any]:
        nodes = [accumulated] * sizes[depth]
        for reader in values[depth]:
            nodes = list(map(times, nodes, read(reader, depth)))
        return nodes

    def cut(bound: Any) -> bool:
        # Messages fold ``×`` in another order than the search folds a
        # leaf: prune only when worse *and* not ``equiv``, so an ulp of
        # difference never cuts an optimum.
        return semiring.lt(bound, cutoff) and not semiring.equiv(
            bound, cutoff
        )

    def descend(depth: int, accumulated: Any) -> None:
        nonlocal incumbent, cutoff, witnesses
        if depth == len(order):
            stats.leaves_evaluated += 1
            if semiring.gt(accumulated, incumbent):
                incumbent = accumulated
                cutoff = semiring.plus(cutoff, incumbent)
                stats.incumbent_improvements += 1
                witnesses = [tuple(prefix)]
            elif (
                semiring.equiv(accumulated, incumbent)
                and incumbent != semiring.zero
            ):
                # `equiv` (not raw `==`) so float semirings recognize ties
                # that differ by an ulp after long ⊗ chains.
                witnesses.append(tuple(prefix))
            return
        if depth:
            nodes = node_values(depth, accumulated)
            messages = [read(reader, depth) for reader in covering[depth]]
        else:
            nodes = root_nodes
        for index, node in enumerate(nodes):
            stats.nodes_expanded += 1
            # The accumulated value is compared raw, as ``×`` only ever
            # lowers it (on floats too); the bound only when it is not.
            if lt(node, incumbent):
                stats.prunes += 1
                continue
            if depth:
                bound = node
                for row in messages:
                    bound = times(bound, row[index])
            else:
                bound = root_bounds[index]
            if cut(bound):
                stats.prunes += 1
            else:
                prefix[depth] = index
                descend(depth + 1, node)

    # The root's node values and bounds, computed once before descending;
    # with every bucket eliminated the bounds ``⊕`` to the exact blevel.
    root_nodes: List[Any] = []
    root_bounds: List[Any] = []
    if order:
        root_nodes = node_values(0, base)
        messages = [read(reader, 0) for reader in covering[0]]
        for index, node in enumerate(root_nodes):
            for row in messages:
                node = times(node, row[index])
            root_bounds.append(node)
    if exact:
        cutoff = semiring.sum(root_bounds)

    descend(0, base)

    # Optima are keyed by sorted variable name.
    con_depths = sorted(
        (depth for depth, var in enumerate(order) if var.name in con),
        key=lambda depth: order[depth].name,
    )
    optima = dict.fromkeys(
        tuple(
            (order[depth].name, order[depth].domain[witness[depth]])
            for depth in con_depths
        )
        for witness in witnesses
    )
    return incumbent, list(optima), stats


def _depth_axes(
    scope: Sequence[Variable], position: Dict[str, int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The permutation putting ``scope``'s axes in search order, and the
    search depth of each axis after it."""
    perm = tuple(
        sorted(range(len(scope)), key=lambda axis: position[scope[axis].name])
    )
    return perm, tuple(position[scope[axis].name] for axis in perm)


def _reader(rows: Any, depths: Tuple[int, ...], depth: int) -> Reader:
    """How the search at ``depth`` reads a factor over ``depths``."""
    if depths and depths[-1] == depth:
        return rows, depths[:-1], True
    return rows, depths, False


def _constraint_reader(
    constraint: SoftConstraint,
    order: Sequence[Variable],
    position: Dict[str, int],
) -> Reader:
    """How the search reads an activated constraint.

    A constraint with a table within the materialization limit is read
    through that table's rows, memoized on the table per scope depths;
    any other constraint through ``value()``.
    """
    table = memoized_table(constraint)
    if table is None or (
        assignment_space_size(constraint.scope) > _MATERIALIZE_LIMIT
    ):
        return _ValueRows(constraint, order, position), None, True
    depths = tuple(position[var.name] for var in table.scope)
    memo = getattr(table, "_rows_memo", None)
    if memo is None:
        memo = table._rows_memo = {}
    reader = memo.get(depths)
    if reader is None:
        perm, ordered = _depth_axes(table.scope, position)
        reader = memo[depths] = _reader(
            _table_rows(table, perm), ordered, ordered[-1]
        )
    return reader


def _table_rows(table: TableConstraint, perm: Tuple[int, ...]) -> Any:
    """``table``'s values as nested lists, axis ``i`` enumerating
    ``table.scope[perm[i]]``'s domain (a scalar for an empty scope)."""
    domains = [table.scope[axis].domain for axis in perm]
    keys: Any = itertools.product(*domains)
    if perm != tuple(range(len(perm))):
        inverse = [perm.index(axis) for axis in range(len(perm))]
        keys = (tuple(combo[i] for i in inverse) for combo in keys)
    get, default = table.table.get, table.default
    rows: list = [get(key, default) for key in keys]
    for domain in reversed(domains[1:]):
        size = len(domain)
        rows = [rows[i : i + size] for i in range(0, len(rows), size)]
    return rows if domains else rows[0]


class _ValueRows:
    """A constraint read through ``value()``: one row over its deepest
    variable's domain per assignment of the rest of its scope, computed
    when the search first reaches it and kept for the solve."""

    __slots__ = ("constraint", "axes", "last", "rows")

    def __init__(
        self,
        constraint: SoftConstraint,
        order: Sequence[Variable],
        position: Dict[str, int],
    ) -> None:
        depths = sorted(position[var.name] for var in constraint.scope)
        self.constraint = constraint
        self.axes = [(depth, order[depth]) for depth in depths[:-1]]
        self.last = order[depths[-1]]
        self.rows: Dict[Tuple[int, ...], List[Any]] = {}

    def row(self, prefix: List[int]) -> List[Any]:
        key = tuple(prefix[depth] for depth, _ in self.axes)
        row = self.rows.get(key)
        if row is None:
            assignment = {
                var.name: var.domain[prefix[depth]] for depth, var in self.axes
            }
            name, value = self.last.name, self.constraint.value
            row = []
            for choice in self.last.domain:
                assignment[name] = choice
                row.append(value(assignment))
            self.rows[key] = row
        return row


def _bucket_messages(
    problem: SCSP,
    plan: SearchPlan,
    position: Dict[str, int],
    lowering: Optional[Lowering],
) -> List[List[Reader]]:
    """Run the plan's reverse bucket pass over the search order.

    Bucket ``d`` holds the constraints activated at depth ``d`` plus the
    messages sent to it; eliminating ``order[d]`` sends ``(⊗ bucket) ⇓``
    to the bucket of the deepest variable left in scope (or to none,
    for a constant).  A message from bucket ``j`` landing at depth ``t``
    covers depths ``t … j−1``: there its scope is assigned and its
    constraints are not.  Buckets of depth ≥ 1 are eliminated; a bucket
    whose combined table would exceed the store's materialization limit
    is not in the plan, its factors then add nothing to shallower bounds
    (which stay admissible) and the pass is no longer exact.  Each
    message is returned as one reader per covered depth over the same
    rows.
    """
    covering: List[List[Reader]] = [[] for _ in plan.order]
    factors: List[Any] = list(problem.constraints)
    arrays: List[Any] = [None] * len(factors)
    if lowering is not None:
        for slot in plan.lowered:
            arrays[slot] = DenseFactor.from_constraint(
                factors[slot], lowering
            ).array
    for message in plan.messages:
        step = message.step
        if lowering is not None:
            array = run_step(step, arrays, lowering)
            arrays.append(array)
            if message.transpose is not None:
                array = array.transpose(message.transpose)
            # ``tolist`` yields the very Python values ``to_table`` would.
            rows = array.tolist()
        else:
            table = to_table(
                combine(
                    [to_table(factors[slot]) for slot in step.inputs],
                    semiring=problem.semiring,
                ).hide(problem.variables[step.var].name)
            )
            factors.append(table)
            rows = _table_rows(table, _depth_axes(table.scope, position)[0])
        for covered in message.covers:
            covering[covered].append(_reader(rows, message.depths, covered))
    return covering
