"""Composite semirings through the dense kernels: bit-identical results.

PR 9's compositional lowering maps Product/Lexicographic composites onto
nested NumPy structured dtypes (one float64/bool plane per leaf
component), so multicriteria problems ride the same vectorized sweeps as
their bases.  These tests are the acceptance criterion: randomized
composite SCSPs — pairs *and* nested composites over all four lowered
bases — must solve bit-identically on the dict and dense paths, through
single-problem elimination, branch & bound (Lex: the total order
``solve("auto")`` routes to it) and warm
:class:`~repro.solver.elimination.BucketCache` re-solves.  Composites
with an unlowerable component must fall back silently on ``auto`` and
tally the ``lowering-fallbacks`` stats row (the observability satellite).
"""

import itertools
import random

import pytest

from repro.constraints import TableConstraint, variable
from repro.semirings import (
    BooleanSemiring,
    BoundedWeightedSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    SetSemiring,
    WeightedSemiring,
)
from repro.solver import (
    SCSP,
    BucketCache,
    ProblemError,
    lower_semiring,
    lowering_fallback_stats,
    solve,
    solve_branch_bound,
    solve_elimination,
)

from .test_kernels_equivalence import assert_identical

WEIGHTED = WeightedSemiring()
FUZZY = FuzzySemiring()
PROBABILISTIC = ProbabilisticSemiring()
BOOLEAN = BooleanSemiring()

#: Pairs and nested composites over the four lowered bases.
PRODUCTS = (
    ProductSemiring([WEIGHTED, FUZZY]),
    ProductSemiring([FUZZY, PROBABILISTIC, BOOLEAN]),
    ProductSemiring(
        [WEIGHTED, ProductSemiring([FUZZY, BOOLEAN])]
    ),
    ProductSemiring(
        [LexicographicSemiring([FUZZY, PROBABILISTIC]), WEIGHTED]
    ),
)

LEXES = (
    LexicographicSemiring([FUZZY, PROBABILISTIC]),
    LexicographicSemiring([WEIGHTED, WEIGHTED]),
    LexicographicSemiring(
        [FUZZY, LexicographicSemiring([PROBABILISTIC, FUZZY])]
    ),
)

COMPOSITES = PRODUCTS + LEXES


def _random_value(semiring, rng):
    if isinstance(semiring, (ProductSemiring, LexicographicSemiring)):
        return tuple(
            _random_value(component, rng)
            for component in semiring.components
        )
    if isinstance(semiring, WeightedSemiring):
        return float(rng.randint(0, 12))
    if isinstance(semiring, BooleanSemiring):
        return rng.random() < 0.8
    # Fuzzy / Probabilistic carriers are [0, 1].
    return round(rng.random(), 6)


def _random_table(semiring, scope, rng):
    table = {}
    for key in itertools.product(*(v.domain for v in scope)):
        # ~25% of tuples stay at the default, exercising sparse storage
        # of structured fill values.
        if rng.random() < 0.75:
            table[key] = _random_value(semiring, rng)
    default = semiring.zero if rng.random() < 0.5 else semiring.one
    return TableConstraint(semiring, scope, table, default=default)


def random_composite_problem(semiring, seed, n_vars=5, max_arity=3, domain=3):
    """A connected random SCSP over a composite carrier (mirrors
    ``test_kernels_equivalence.random_problem``, with tuple values)."""
    rng = random.Random(seed)
    variables = [
        variable(f"x{i}", list(range(rng.randint(2, domain))))
        for i in range(n_vars)
    ]
    constraints = []
    for i in range(n_vars - 1):
        scope = [variables[i], variables[i + 1]]
        rng.shuffle(scope)
        constraints.append(_random_table(semiring, scope, rng))
    for _ in range(2):
        arity = rng.randint(1, max_arity)
        scope = rng.sample(variables, arity)
        constraints.append(_random_table(semiring, scope, rng))
    con = sorted(
        v.name for v in rng.sample(variables, rng.randint(1, n_vars))
    )
    return SCSP(constraints, con=con, name=f"composite-{seed}")


@pytest.mark.parametrize("semiring", COMPOSITES, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(4))
class TestCompositeDenseMatchesDict:
    def test_elimination(self, semiring, seed):
        problem = random_composite_problem(semiring, seed)
        dict_result = solve_elimination(problem, backend="dict")
        dense_result = solve_elimination(problem, backend="dense")
        assert_identical(dict_result, dense_result)
        assert (
            dict_result.stats.buckets_processed
            == dense_result.stats.buckets_processed
        )

    def test_auto_entrypoint(self, semiring, seed):
        # Product routes to elimination (partial order), Lex to branch &
        # bound (total) — both must agree with the forced dict path.
        problem = random_composite_problem(semiring, seed)
        assert_identical(
            solve(problem, backend="auto"),
            solve(problem, backend="dict"),
        )


@pytest.mark.parametrize(
    "semiring", LEXES, ids=lambda s: s.name
)
@pytest.mark.parametrize("seed", range(4))
class TestLexBranchBound:
    def test_branch_bound_dense_matches_dict(self, semiring, seed):
        problem = random_composite_problem(semiring, seed)
        dict_result = solve_branch_bound(problem, backend="dict")
        dense_result = solve_branch_bound(problem, backend="dense")
        assert_identical(dict_result, dense_result)
        assert (
            dict_result.stats.nodes_expanded
            == dense_result.stats.nodes_expanded
        )
        assert dict_result.stats.prunes == dense_result.stats.prunes

    def test_auto_routes_to_branch_bound(self, semiring, seed):
        problem = random_composite_problem(semiring, seed)
        result = solve(problem, method="auto", backend="auto")
        assert result.method == "branch-bound"
        assert_identical(
            result, solve_branch_bound(problem, backend="dict")
        )
        # Cross-method, only the *leading* criterion is guaranteed: the
        # first component of lex-``⊕`` is the base ``⊕``, so elimination
        # computes its true optimum — but pushing ``⊕`` inside ``×`` is
        # exactly the tie-collapse distributivity failure pinned in
        # tests/semirings/test_composite_laws.py, so trailing tie-break
        # components may differ.  Branch & bound (enumeration + the
        # absorptive pruning bound) is the exact method for Lex, which
        # is why ``auto`` routes there.
        leading = semiring.components[0]
        assert leading.equiv(
            result.blevel[0],
            solve_elimination(problem, backend="dict").blevel[0],
        )


# ----------------------------------------------------------------------
# Warm bucket caches over composite carriers
# ----------------------------------------------------------------------


def _chain_problems(semiring, sessions, n_vars=4, domain=3, tweak=0):
    """Topology-sharing chain problems with per-session tables."""
    variables = [
        variable(f"r{i}", list(range(domain))) for i in range(n_vars)
    ]
    problems = []
    for session in range(sessions):
        rng = random.Random(session * 1009 + tweak)
        constraints = [
            _random_table(
                semiring, [variables[i], variables[i + 1]], rng
            )
            for i in range(n_vars - 1)
        ]
        problems.append(
            SCSP(constraints, con=["r0"], name=f"chain-{session}")
        )
    return problems


@pytest.mark.parametrize(
    "semiring",
    (PRODUCTS[0], PRODUCTS[2], LEXES[0], LEXES[2]),
    ids=lambda s: s.name,
)
class TestCompositeBatchAndCache:
    def test_warm_bucket_cache_reuses_and_matches(self, semiring):
        base = _chain_problems(semiring, sessions=1, tweak=0)[0]
        delta_constraints = list(base.constraints)
        rng = random.Random(99)
        delta_constraints[-1] = _random_table(
            semiring, list(delta_constraints[-1].scope), rng
        )
        delta = SCSP(delta_constraints, con=["r0"], name="chain-delta")

        warm_cache = BucketCache()
        solve_elimination(base, bucket_cache=warm_cache)
        cold = solve_elimination(delta, bucket_cache=BucketCache())
        warm = solve_elimination(delta, bucket_cache=warm_cache)
        assert_identical(cold, warm)
        assert_identical(solve_elimination(delta, backend="dict"), warm)
        assert warm.stats.buckets_reused > 0


# ----------------------------------------------------------------------
# Unlowerable composites: silent fallback, loud refusal, tallied stats
# ----------------------------------------------------------------------


class TestCompositeFallback:
    def _unlowerable_problem(self):
        semiring = ProductSemiring(
            [FUZZY, SetSemiring(frozenset({"r", "w"}))]
        )
        x = variable("x", [0, 1])
        constraint = TableConstraint(
            semiring,
            [x],
            {
                (0,): (0.5, frozenset({"r"})),
                (1,): (0.9, frozenset({"w"})),
            },
        )
        return semiring, SCSP([constraint])

    def test_bounded_component_does_not_lower(self):
        composite = ProductSemiring(
            [WEIGHTED, BoundedWeightedSemiring(8.0)]
        )
        assert lower_semiring(composite) is None

    def test_auto_falls_back_and_counts(self):
        semiring, problem = self._unlowerable_problem()
        before = {
            row["semiring"]: row["fallbacks"]
            for row in lowering_fallback_stats()
        }
        result = solve_elimination(problem, backend="auto")
        assert result.blevel == (0.9, frozenset({"r", "w"}))
        after = {
            row["semiring"]: row["fallbacks"]
            for row in lowering_fallback_stats()
        }
        # One solve may take the fallback in more than one internal
        # phase; the row must exist and strictly grow.
        assert after[semiring.name] > before.get(semiring.name, 0)

    def test_fallback_rows_surface_in_cache_stats(self):
        _, problem = self._unlowerable_problem()
        solve_elimination(problem, backend="auto")
        from repro.caching import cache_stats

        stats = cache_stats()
        assert "lowering-fallbacks" in stats
        names = {row["semiring"] for row in stats["lowering-fallbacks"]}
        assert "Product[Fuzzy, SetBased]" in names

    def test_dense_refuses_loudly(self):
        _, problem = self._unlowerable_problem()
        with pytest.raises(ProblemError, match="does not lower"):
            solve_elimination(problem, backend="dense")
