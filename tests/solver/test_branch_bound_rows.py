"""Branch & bound reads every factor by domain index.

Constraints and messages become nested rows in search order before the
search descends.  These pin that the change moves work only: blevel,
optima (in order), best assignment and the whole ``SolverStats`` match
the assignment-reading search kept in
:mod:`tests.solver.assignment_branch_bound`, on both backends.
"""

import itertools
import random

import pytest

import repro.solver.branch_bound as branch_bound
from repro.constraints import (
    ConstantConstraint,
    FunctionConstraint,
    Polynomial,
    TableConstraint,
    polynomial_constraint,
    to_table,
    variable,
)
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    WeightedSemiring,
)
from repro.solver import SCSP, solve_branch_bound

from .assignment_branch_bound import assignment_branch_bound
from .reference_branch_bound import reference_branch_bound

LEX = LexicographicSemiring([FuzzySemiring(), WeightedSemiring()])
SEMIRINGS = (
    WeightedSemiring(),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    BooleanSemiring(),
    LEX,
)


def _draw(semiring, rng):
    if isinstance(semiring, WeightedSemiring):
        return rng.choice((0.0, 0.1, 0.3, 1.1, 2.0, 3.0)) * rng.randint(0, 4)
    if isinstance(semiring, BooleanSemiring):
        return rng.random() < 0.8
    if semiring is LEX:
        return (rng.choice((0.0, 0.5, 1.0)), float(rng.randint(0, 3)))
    return rng.choice((rng.random(), rng.randint(0, 8) / 8))


def mixed_problem(semiring, seed):
    """Sparse tables with either default, function constraints and
    empty-scope constants; scopes listed in random variable order."""
    rng = random.Random(seed)
    variables = [
        variable(f"x{i}", range(rng.randint(1, 4)))
        for i in range(rng.randint(1, 5))
    ]
    constraints = []
    for _ in range(rng.randint(1, 6)):
        scope = rng.sample(variables, rng.randint(1, min(3, len(variables))))
        kind = rng.random()
        if kind < 0.55:
            constraints.append(
                TableConstraint(
                    semiring,
                    scope,
                    {
                        key: _draw(semiring, rng)
                        for key in itertools.product(*(v.domain for v in scope))
                        if rng.random() < 0.7
                    },
                    default=rng.choice((semiring.zero, semiring.one)),
                )
            )
        elif kind < 0.9:
            values = {
                key: _draw(semiring, rng)
                for key in itertools.product(*(v.domain for v in scope))
            }
            constraints.append(
                FunctionConstraint(
                    semiring, scope, lambda *key, values=values: values[key]
                )
            )
        else:
            constraints.append(ConstantConstraint(semiring, _draw(semiring, rng)))
    used = sorted({v.name for c in constraints for v in c.scope})
    con = rng.sample(used, rng.randint(0, len(used)))
    return SCSP(constraints, con=con, name=f"rows-{seed}")


def assert_identical(result, oracle):
    assert result.blevel == oracle.blevel
    assert result.optima == oracle.optima
    assert result.best_assignment == oracle.best_assignment
    assert result.stats == oracle.stats


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("lookahead", (True, False), ids=("messages", "plain"))
def test_bit_identical_to_assignment_search(semiring, lookahead):
    for seed in range(120):
        problem = mixed_problem(semiring, seed)
        # One set of constraint objects under two search orders: the rows
        # memoized on a table serve each order with its own axes.
        for ordering in ("max-degree", "given"):
            oracle = assignment_branch_bound(
                problem, ordering=ordering, lookahead=lookahead
            )
            for backend in ("dense", "dict"):
                result = solve_branch_bound(
                    problem,
                    ordering=ordering,
                    lookahead=lookahead,
                    backend=backend,
                )
                assert_identical(result, oracle)


@pytest.mark.parametrize("semiring", SEMIRINGS[:4], ids=lambda s: s.name)
def test_answers_match_lookahead_oracle(semiring):
    for seed in range(60):
        problem = mixed_problem(semiring, seed)
        reference = reference_branch_bound(problem)
        for backend in ("dense", "dict"):
            result = solve_branch_bound(problem, backend=backend)
            assert result.blevel == reference.blevel
            assert result.optima == reference.optima


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_over_limit_constraints_are_evaluated_per_node(semiring, monkeypatch):
    # Every factor wider than four entries is read through ``value()``
    # (and its bucket skipped); the search and its stats do not move.
    monkeypatch.setattr(branch_bound, "_MATERIALIZE_LIMIT", 4)
    for seed in range(60):
        problem = mixed_problem(semiring, seed)
        oracle = assignment_branch_bound(problem)
        for backend in ("dense", "dict"):
            assert_identical(
                solve_branch_bound(problem, backend=backend), oracle
            )


def test_over_limit_constraint_is_never_tabulated(weighted, monkeypatch):
    monkeypatch.setattr(branch_bound, "_MATERIALIZE_LIMIT", 4)
    x, y = variable("x", range(3)), variable("y", range(3))
    wide = FunctionConstraint(weighted, [x, y], lambda a, b: float(a + b))
    result = solve_branch_bound(SCSP([wide]), lookahead=False)
    assert result.blevel == 0.0
    assert getattr(wide, "_table_memo", None) is None


class _Counting:
    """A unary cost whose every evaluation is counted."""

    def __init__(self):
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return float(value)


@pytest.mark.parametrize("lookahead", (True, False), ids=("messages", "plain"))
def test_constraint_evaluated_once_per_table_entry(weighted, lookahead):
    # ``y`` is searched below ``x``, so a per-node evaluation would ask
    # the unary constraint on ``y`` once per ``x`` value.
    x, y = variable("x", range(4)), variable("y", range(3))
    for backend in ("dense", "dict"):
        count = _Counting()
        problem = SCSP(
            [
                TableConstraint(weighted, [x], {(v,): 0.0 for v in range(4)}),
                FunctionConstraint(weighted, [y], count),
            ]
        )
        result = solve_branch_bound(
            problem, ordering="given", lookahead=lookahead, backend=backend
        )
        assert result.blevel == 0.0
        assert result.stats.nodes_expanded > y.size
        assert count.calls <= y.size


def test_polynomial_read_from_its_memoized_table(weighted):
    x = variable("x", range(9))
    demand = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": -2.0}, 16.0)
    )
    offer = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 1.0}, 3.0)
    )
    # The broker's solve-cache fingerprint tabulates a problem's
    # constraints before solving; the search reads those tables' rows.
    to_table(demand)
    first = solve_branch_bound(SCSP([demand, offer]))
    assert first.blevel == 11.0 and first.optima == [[{"x": 8}]]
    memo = demand._table_memo._rows_memo
    solve_branch_bound(SCSP([offer, demand]))
    assert demand._table_memo._rows_memo is memo
    # The search itself tabulates nothing.
    assert getattr(offer, "_table_memo", None) is None


def test_raising_entry_raises_at_materialization(weighted):
    """The search tabulates no constraint itself: an entry that raises
    does so when the constraint's table is built (here by the bucket
    pass), never under a branch the search prunes."""
    x, y = variable("x", range(2)), variable("y", range(2))
    only_zero = TableConstraint(weighted, [x], {(0,): 0.0})

    def cost(a, b):
        if a == 1:
            raise RuntimeError("entry under a pruned branch")
        return float(b)

    problem = SCSP([only_zero, FunctionConstraint(weighted, [x, y], cost)])
    result = solve_branch_bound(problem, ordering="given", lookahead=False)
    assert result.blevel == 0.0 and result.optima == [[{"x": 0, "y": 0}]]
    with pytest.raises(RuntimeError, match="pruned branch"):
        solve_branch_bound(problem, ordering="given")


def test_concurrent_solves_share_row_memos(weighted):
    """Broker workers solve problems over shared offer tables at once;
    racing fills of a table's rows memo must not change any answer."""
    import sys
    import threading

    problems = [mixed_problem(weighted, seed) for seed in range(12)]
    expected = {
        (index, ordering): assignment_branch_bound(problem, ordering=ordering)
        for index, problem in enumerate(problems)
        for ordering in ("max-degree", "given")
    }
    for problem in problems:  # fresh memos: the threads race to fill them
        for constraint in problem.constraints:
            table = getattr(constraint, "_table_memo", constraint)
            table.__dict__.pop("_rows_memo", None)
    failures = []

    def work(offset):
        for round_ in range(20):
            for index, problem in enumerate(problems):
                ordering = ("max-degree", "given")[(index + offset + round_) % 2]
                result = solve_branch_bound(problem, ordering=ordering)
                oracle = expected[index, ordering]
                if (result.blevel, result.optima, result.stats) != (
                    oracle.blevel,
                    oracle.optima,
                    oracle.stats,
                ):
                    failures.append((index, ordering))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
