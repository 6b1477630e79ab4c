"""List solves of topology-sharing problems, and the materialized-bucket
memo.

``solve([...])`` over B topology-sharing problems (one stacked scan when
they are small enough) must answer, member by member, exactly as B
independent ``solve`` calls do, and refuses a list that does not share
one topology.  The :class:`BucketCache` must answer unchanged buckets
from the memo after a re-solve (``buckets_reused`` > 0, same result),
and after a :class:`ConstraintStore` delta only the buckets downstream of
the changed factor may recompute.
"""

import random

import pytest

from repro.constraints import ConstraintStore, TableConstraint, variable
from repro.semirings import BoundedWeightedSemiring
from repro.solver import (
    SCSP,
    BucketCache,
    ProblemError,
    clear_bucket_cache,
    shared_bucket_cache,
    solve,
    solve_elimination,
    solve_stacked,
    stackable,
)

from .test_kernels_equivalence import (
    LOWERABLE,
    _random_table,
    assert_identical,
    random_problem,
)


def batch_problems(semiring, structure_seed, batch):
    """B problems sharing one topology with independently random tables."""
    template = random_problem(semiring, structure_seed)
    problems = []
    for member in range(batch):
        rng = random.Random(1000 * structure_seed + member + 17)
        constraints = [
            _random_table(semiring, list(c.scope), rng)
            for c in template.constraints
        ]
        problems.append(
            SCSP(constraints, con=template.con, name=f"member-{member}")
        )
    return problems


@pytest.mark.parametrize("semiring", LOWERABLE, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("batch", (1, 3))
def test_batch_matches_independent_solves(semiring, seed, batch):
    problems = batch_problems(semiring, seed, batch)
    assert stackable(problems[0])
    results = solve(problems)
    assert len(results) == batch
    assert {result.method for result in results} == {"stacked"}
    for problem, batched in zip(problems, results):
        assert_identical(solve(problem), batched)


def test_shared_constraint_objects_broadcast(weighted):
    # One shared "offer" plus per-member "requirements" — the market
    # shape step 3 stacks.  Sharing must not perturb results.
    x = variable("x", (0, 1, 2))
    y = variable("y", (0, 1))
    offer = TableConstraint(
        weighted, [x, y], {(i, j): float(i + j) for i in range(3)
                           for j in range(2)}
    )
    problems = []
    for member in range(4):
        requirement = TableConstraint(
            weighted, [x], {(i,): float((i * member) % 3) for i in range(3)}
        )
        problems.append(SCSP([offer, requirement], con=["x"]))
    for problem, batched in zip(problems, solve(problems)):
        assert batched.method == "stacked"
        assert_identical(solve(problem), batched)


class TestBatchValidation:
    def test_empty_batch_refused(self):
        with pytest.raises(ProblemError, match="at least one problem"):
            solve([])

    def test_mixed_semirings_refused(self, weighted, fuzzy):
        x = variable("x", (0, 1))
        a = SCSP([TableConstraint(weighted, [x], {(0,): 1.0})])
        b = SCSP([TableConstraint(fuzzy, [x], {(0,): 0.5})])
        with pytest.raises(ProblemError, match="share one semiring"):
            solve([a, b])

    def test_mixed_scopes_refused(self, weighted):
        x = variable("x", (0, 1))
        y = variable("y", (0, 1))
        a = SCSP([TableConstraint(weighted, [x], {(0,): 1.0})])
        b = SCSP([TableConstraint(weighted, [y], {(0,): 1.0})])
        with pytest.raises(ProblemError, match="scopes differ"):
            solve([a, b])

    def test_mixed_con_refused(self, weighted):
        x = variable("x", (0, 1))
        y = variable("y", (0, 1))
        a = SCSP([TableConstraint(weighted, [x, y], {})], con=["x"])
        b = SCSP([TableConstraint(weighted, [x, y], {})], con=["y"])
        with pytest.raises(ProblemError, match="con"):
            solve([a, b])

    def test_non_lowerable_semiring_refused(self):
        # A list solve answers such a group one problem at a time; only
        # an explicit stacked scan refuses it.
        semiring = BoundedWeightedSemiring(10.0)
        x = variable("x", (0, 1))
        c = TableConstraint(semiring, [x], {(0,): 1.0})
        with pytest.raises(ProblemError, match="lowerable semiring"):
            solve_stacked([SCSP([c])])


@pytest.mark.parametrize("backend", ("dict", "dense"))
@pytest.mark.parametrize("semiring", LOWERABLE, ids=lambda s: s.name)
def test_bucket_cache_reuse_is_exact(semiring, backend):
    problem = random_problem(semiring, 3)
    cache = BucketCache()
    cold = solve_elimination(problem, backend=backend, bucket_cache=cache)
    assert cold.stats.buckets_reused == 0
    warm = solve_elimination(problem, backend=backend, bucket_cache=cache)
    assert_identical(cold, warm)
    # Every bucket is answered from the memo on the identical re-solve.
    assert warm.stats.buckets_reused == warm.stats.buckets_processed > 0


def test_bucket_cache_partial_reuse_after_delta(weighted):
    # A chain x0-x1-x2-x3: changing the tail constraint must leave the
    # head buckets reusable.
    variables = [variable(f"x{i}", (0, 1)) for i in range(4)]
    chain = [
        TableConstraint(
            weighted,
            [variables[i], variables[i + 1]],
            {(a, b): float(a + 2 * b + i) for a in (0, 1) for b in (0, 1)},
        )
        for i in range(3)
    ]
    cache = BucketCache()
    base = SCSP(chain, con=["x3"])
    cold = solve_elimination(base, bucket_cache=cache)
    assert cold.stats.buckets_reused == 0
    tail = TableConstraint(
        weighted,
        [variables[2], variables[3]],
        {(a, b): float(5 * a + b) for a in (0, 1) for b in (0, 1)},
    )
    changed = SCSP(chain[:2] + [tail], con=["x3"])
    warm = solve_elimination(changed, bucket_cache=cache)
    # Head-of-chain buckets hit the memo; the bucket that consumes the
    # changed tail (and everything downstream of it) recomputes.
    assert 0 < warm.stats.buckets_reused < warm.stats.buckets_processed
    assert_identical(solve_elimination(changed), warm)


def test_store_deltas_reuse_shared_bucket_cache(weighted):
    clear_bucket_cache()
    x = variable("x", range(0, 6))
    y = variable("y", range(0, 6))
    store = ConstraintStore(weighted)
    store = store.tell(TableConstraint(
        weighted, [x], {(i,): float(i) for i in range(6)}
    ))
    store = store.tell(TableConstraint(
        weighted, [x, y],
        {(i, j): float(abs(i - j)) for i in range(6) for j in range(6)},
    ))
    first = store.consistency()
    baseline = len(shared_bucket_cache())
    assert baseline > 0
    # A tell touching only y leaves x-only buckets reusable; consistency
    # answers must track the delta exactly.
    grown = store.tell(TableConstraint(
        weighted, [y], {(j,): float(2 * j) for j in range(6)}
    ))
    assert grown.consistency() >= first  # weighted: costs only grow
    assert len(shared_bucket_cache()) > baseline
    stats = shared_bucket_cache().stats()
    assert stats["hits"] > 0
    clear_bucket_cache()


def test_bucket_cache_does_not_change_uncached_results(weighted):
    problem = random_problem(weighted, 7)
    plain = solve_elimination(problem)
    cached = solve_elimination(problem, bucket_cache=BucketCache())
    assert_identical(plain, cached)
    assert plain.stats.buckets_processed == cached.stats.buckets_processed
