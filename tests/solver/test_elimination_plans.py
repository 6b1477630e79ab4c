"""Compiled elimination plans against the loops they replaced.

Every dense bucket pass — ``eliminate`` (and with it the factored
store's queries and their :class:`BucketCache` reuse) and branch &
bound's message pass — runs a plan compiled once per topology, and a
stacked scan runs its compiled step over a leading member axis.  These
pin that a plan moves only bookkeeping: tables (values bit for bit,
scope order, iteration order), messages and every
:class:`~repro.solver.problem.SolverStats` field match the per-call
loops kept in :mod:`tests.solver.elimination_oracle`, a stacked batch
matches the assignment-reading branch & bound oracle member by member,
and the plan memo is keyed by value, bounded, thread-safe and cleared
with the other store caches.
"""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.solver.branch_bound as branch_bound
import repro.solver.elimination as elimination
from repro.caching import cache_stats
from repro.constraints import (
    ConstantConstraint,
    TableConstraint,
    clear_store_caches,
    variable,
)
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    WeightedSemiring,
)
from repro.solver import (
    SCSP,
    BucketCache,
    eliminate,
    resolve_lowering,
    resolve_ordering,
    solve_branch_bound,
    solve_stacked,
)

from .assignment_branch_bound import assignment_branch_bound
from .elimination_oracle import reference_bucket_messages, reference_eliminate

LEX = LexicographicSemiring([FuzzySemiring(), WeightedSemiring()])
SEMIRINGS = (
    BooleanSemiring(),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    WeightedSemiring(),
    LEX,
)
ORDERINGS = ("min-degree", "max-degree", "given", "min-domain")


def _value(semiring, rng):
    if isinstance(semiring, LexicographicSemiring):
        return tuple(_value(part, rng) for part in semiring.components)
    if isinstance(semiring, BooleanSemiring):
        return rng.random() < 0.8
    if isinstance(semiring, WeightedSemiring):
        # Not dyadic: a different ``×`` fold order would round differently.
        return round(rng.uniform(0.0, 10.0), 3)
    return round(rng.random(), 4)


def _table(semiring, scope, rng):
    return TableConstraint(
        semiring,
        scope,
        {
            key: _value(semiring, rng)
            for key in itertools.product(*(var.domain for var in scope))
            if rng.random() < 0.8
        },
        default=_value(semiring, rng),
    )


def random_problem(semiring, seed):
    """2–5 variables (domains of 1–3 values), a shuffled chain backbone,
    extra factors of arity 0–3 and a random ``con`` (empty or full
    included)."""
    rng = random.Random(seed)
    variables = [
        variable(f"v{i}", range(rng.randint(1, 3)))
        for i in range(rng.randint(2, 5))
    ]
    constraints = []
    for left, right in zip(variables, variables[1:]):
        scope = [left, right]
        rng.shuffle(scope)
        constraints.append(_table(semiring, scope, rng))
    for _ in range(rng.randint(0, 3)):
        arity = rng.randint(0, min(3, len(variables)))
        if arity == 0:
            constraints.append(
                ConstantConstraint(semiring, _value(semiring, rng))
            )
        else:
            constraints.append(
                _table(semiring, rng.sample(variables, arity), rng)
            )
    rng.shuffle(constraints)
    con = [var.name for var in variables if rng.random() < 0.4]
    return SCSP(constraints, con=con)


def bits(table):
    """A table down to the bit: scope order, default and every entry in
    iteration order (``repr`` round-trips floats exactly)."""
    return (
        table.scope,
        repr(table.default),
        [(key, repr(value)) for key, value in table.table.items()],
    )


@pytest.fixture(autouse=True)
def _fresh_plans():
    elimination.clear_plan_cache()
    yield
    elimination.clear_plan_cache()


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(12))
def test_elimination_matches_oracle(semiring, seed):
    problem = random_problem(semiring, seed)
    ordering = ORDERINGS[seed % len(ORDERINGS)]
    # Twice: the second call runs the memoized plan.
    for _ in range(2):
        table, stats = eliminate(problem, ordering, backend="dense")
        ref_table, ref_stats = reference_eliminate(problem, ordering)
        assert bits(table) == bits(ref_table)
        assert stats == ref_stats


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_bucket_cache_sequence_matches_oracle(semiring):
    """A run of problems sharing factors: every hit, miss and reused
    factor matches the per-call loop's, solve by solve."""
    plan_cache, ref_cache = BucketCache(), BucketCache()
    base = random_problem(semiring, 5)
    problems = [base]
    rng = random.Random(3)
    for _ in range(6):
        constraints = list(base.constraints)
        rng.shuffle(constraints)
        position = rng.randrange(len(constraints))
        if constraints[position].scope:
            constraints[position] = _table(
                semiring, list(constraints[position].scope), rng
            )
        problems.append(SCSP(constraints, con=base.con))
    problems.extend(problems[:3])
    for problem in problems:
        table, stats = eliminate(
            problem, backend="dense", bucket_cache=plan_cache
        )
        ref_table, ref_stats = reference_eliminate(
            problem, bucket_cache=ref_cache
        )
        assert bits(table) == bits(ref_table)
        assert stats == ref_stats
    assert stats.buckets_reused > 0


@pytest.mark.parametrize(
    "semiring", (WeightedSemiring(), LEX), ids=lambda s: s.name
)
def test_permuted_bucket_cache_hit_matches_oracle(semiring, monkeypatch):
    """The Merkle key sorts its input digests, so a bucket cached by one
    topology can answer another whose plan lists the output scope in a
    different order; the sweep must then resume as the loop did."""
    rng = random.Random(11)
    x, y, z, w = (variable(name, range(3)) for name in "xyzw")
    a = _table(semiring, [x, y], rng)
    b = _table(semiring, [y, z], rng)
    c = _table(semiring, [x, w], rng)
    first = SCSP([a, b, c], con=["x", "z"])
    second = SCSP([b, a, c], con=["x", "z"])
    resumed = []
    continuation = elimination._continuation
    monkeypatch.setattr(
        elimination,
        "_continuation",
        lambda *args: resumed.append(args) or continuation(*args),
    )
    plan_cache, ref_cache = BucketCache(), BucketCache()
    for problem in (first, second):
        table, stats = eliminate(
            problem, "given", backend="dense", bucket_cache=plan_cache
        )
        ref_table, ref_stats = reference_eliminate(
            problem, "given", bucket_cache=ref_cache
        )
        assert bits(table) == bits(ref_table)
        assert stats == ref_stats
    assert stats.buckets_reused == stats.buckets_processed == 2
    assert len(resumed) == 1
    # The cached (x, z) factor stands where the plan expected (z, x).
    assert table.support == ("x", "z")


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("batch", (1, 3))
def test_batch_matches_oracle(semiring, seed, batch):
    template = random_problem(semiring, seed)
    rng = random.Random(seed + 100)
    shared = rng.randrange(len(template.constraints))
    problems = []
    for _ in range(batch):
        constraints = [
            constraint
            if position == shared or not constraint.scope
            else _table(semiring, list(constraint.scope), rng)
            for position, constraint in enumerate(template.constraints)
        ]
        problems.append(SCSP(constraints, con=template.con))
    # One member axis over stacked and shared (length-1) positions; each
    # member answers as branch & bound does on it alone.
    for problem, result in zip(problems, solve_stacked(problems)):
        single = solve_branch_bound(problem)
        assert result.blevel == single.blevel
        assert result.optima == single.optima
        if semiring.times_monotone:
            reference = assignment_branch_bound(problem)
            assert result.blevel == reference.blevel
            assert result.optima == reference.optima


def _oracle_inputs(problem, ordering="max-degree"):
    order = resolve_ordering(ordering)(problem.variables, problem.constraints)
    position = {var.name: depth for depth, var in enumerate(order)}
    activation = [[] for _ in order]
    for constraint in problem.constraints:
        if constraint.scope:
            last = max(position[var.name] for var in constraint.scope)
            activation[last].append(constraint)
    return order, position, activation


def _readers(covering):
    return [
        [(repr(rows), path, whole) for rows, path, whole in readers]
        for readers in covering
    ]


def _messages_match(problem):
    lowering = resolve_lowering(problem.semiring, "dense")
    order, position, activation = _oracle_inputs(problem)
    plan = elimination.search_plan(
        problem, "max-degree", branch_bound._MATERIALIZE_LIMIT
    )
    covering = branch_bound._bucket_messages(
        problem, plan, position, lowering
    )
    ref_covering, ref_exact = reference_bucket_messages(
        problem, order, activation, lowering
    )
    assert [problem.variables[var] for var in plan.order] == order
    assert _readers(covering) == _readers(ref_covering)
    assert plan.exact == ref_exact


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(12))
def test_branch_bound_messages_match_oracle(semiring, seed):
    problem = random_problem(semiring, seed)
    _messages_match(problem)
    if semiring.times_monotone:
        result = solve_branch_bound(problem)
        reference = assignment_branch_bound(problem)
        assert result.blevel == reference.blevel
        assert result.optima == reference.optima
        assert result.stats == reference.stats


def test_patched_limit_compiles_a_new_plan(monkeypatch):
    """A plan compiled under one materialization limit is never served
    under another: the limit is part of the key."""
    weighted = WeightedSemiring()
    for seed in range(12):
        problem = random_problem(weighted, seed)
        _messages_match(problem)
        solve_branch_bound(problem)
    monkeypatch.setattr(branch_bound, "_MATERIALIZE_LIMIT", 4)
    skipped = 0
    for seed in range(12):
        problem = random_problem(weighted, seed)
        _messages_match(problem)
        skipped += not elimination.search_plan(problem, "max-degree", 4).exact
        result = solve_branch_bound(problem)
        assert result.stats == assignment_branch_bound(problem).stats
    assert skipped


def test_plans_are_keyed_by_value():
    weighted = WeightedSemiring()
    problem = random_problem(weighted, 2)
    rng = random.Random(0)
    twin = SCSP(
        [
            _table(weighted, list(c.scope), rng) if c.scope else c
            for c in problem.constraints
        ],
        con=problem.con,
    )
    plan = elimination.elimination_plan(problem)
    assert elimination.elimination_plan(twin) is plan
    assert elimination.elimination_plan(problem, "given") is not plan
    other_con = SCSP(
        problem.constraints,
        con=() if problem.con else [problem.variables[0].name],
    )
    assert elimination.elimination_plan(other_con) is not plan
    wider = SCSP(
        [
            _table(
                weighted,
                [variable(var.name, range(var.size + 1)) for var in c.scope],
                rng,
            )
            if c.scope
            else c
            for c in problem.constraints
        ],
        con=problem.con,
    )
    assert elimination.elimination_plan(wider) is not plan


def test_plans_are_shared_across_semirings_and_con():
    """A plan reads only scopes, sizes, the ordering and ``con`` (the
    search plan not even ``con``): one topology under another semiring,
    or searched with another ``con``, reuses it."""
    problem = random_problem(WeightedSemiring(), 2)
    fuzzy = FuzzySemiring()
    rng = random.Random(1)
    twin = SCSP(
        [
            _table(fuzzy, list(c.scope), rng)
            if c.scope
            else ConstantConstraint(fuzzy, 0.5)
            for c in problem.constraints
        ],
        con=problem.con,
    )
    limit = branch_bound._MATERIALIZE_LIMIT
    assert elimination.elimination_plan(twin) is (
        elimination.elimination_plan(problem)
    )
    search = elimination.search_plan(problem, "max-degree", limit)
    assert elimination.search_plan(twin, "max-degree", limit) is search
    other_con = SCSP(problem.constraints, con=())
    assert elimination.search_plan(other_con, "max-degree", limit) is search


def test_callable_ordering_compiles_every_call():
    weighted = WeightedSemiring()
    problem = random_problem(weighted, 4)
    calls = []

    def ordering(variables, constraints):
        calls.append(1)
        return list(reversed(variables))

    first = eliminate(problem, ordering, backend="dense")
    second = eliminate(problem, ordering, backend="dense")
    assert len(calls) == 2
    assert bits(first[0]) == bits(second[0])
    assert bits(first[0]) == bits(reference_eliminate(problem, ordering)[0])
    assert len(elimination._plan_cache) == 0


def test_plan_cache_is_visible_and_cleared_with_store_caches():
    problem = random_problem(WeightedSemiring(), 1)
    eliminate(problem)
    assert len(elimination._plan_cache) == 1
    rows = cache_stats()["plans"]
    assert rows[0]["size"] == 1 and rows[0]["misses"] >= 1
    clear_store_caches()
    assert len(elimination._plan_cache) == 0


def test_concurrent_solves_match_serial():
    weighted = WeightedSemiring()
    template = random_problem(weighted, 9)
    problems = []
    for member in range(24):
        rng = random.Random(member)
        problems.append(
            SCSP(
                [
                    _table(weighted, list(c.scope), rng) if c.scope else c
                    for c in template.constraints
                ],
                con=template.con,
            )
        )

    def run(problem):
        elim = eliminate(problem, backend="dense")
        search = solve_branch_bound(problem)
        return bits(elim[0]), elim[1], search.blevel, search.optima, search.stats

    serial = [run(problem) for problem in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            elimination.clear_plan_cache()
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(run, problems, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)
