"""Dense ndarray kernels vs the dict path: bit-identical results.

Randomized SCSPs across all four lowerable semirings, solved with both
backends through bucket elimination and branch & bound — blevel,
frontier and optima must match exactly (not approximately: min/max
select operands and float64 add/multiply are the same IEEE-754 ops
CPython floats use).  Non-lowerable semirings must route to the dict
path on ``auto`` and refuse ``dense`` loudly.
"""

import random

import pytest

from repro.constraints import TableConstraint, variable
from repro.semirings import (
    BooleanSemiring,
    BoundedWeightedSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    SetSemiring,
    WeightedSemiring,
)
from repro.solver import (
    SCSP,
    DenseFactor,
    KernelError,
    ProblemError,
    lower_semiring,
    resolve_lowering,
    solve,
    solve_branch_bound,
    solve_elimination,
)

from .elimination_oracle import dense_combine

LOWERABLE = (
    WeightedSemiring(),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    BooleanSemiring(),
)


def _random_value(semiring, rng):
    if isinstance(semiring, WeightedSemiring):
        return float(rng.randint(0, 12))
    if isinstance(semiring, BooleanSemiring):
        return rng.random() < 0.8
    # Fuzzy / Probabilistic carriers are [0, 1].
    return round(rng.random(), 6)


def random_problem(semiring, seed, n_vars=5, max_arity=3, domain=3):
    """A connected random SCSP with mixed arities and sparse defaults."""
    rng = random.Random(seed)
    variables = [
        variable(f"x{i}", list(range(rng.randint(2, domain))))
        for i in range(n_vars)
    ]
    constraints = []
    # A chain backbone keeps the constraint graph connected; extra random
    # constraints add shared variables in shuffled scope orders.
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
    return SCSP(constraints, con=con, name=f"rand-{seed}")


def _random_table(semiring, scope, rng):
    import itertools

    table = {}
    for key in itertools.product(*(v.domain for v in scope)):
        # ~25% of tuples stay at the default, exercising sparse storage.
        if rng.random() < 0.75:
            table[key] = _random_value(semiring, rng)
    default = semiring.zero if rng.random() < 0.5 else semiring.one
    return TableConstraint(semiring, scope, table, default=default)


def assert_identical(left, right):
    assert left.blevel == right.blevel
    assert left.frontier == right.frontier
    assert left.optima == right.optima


@pytest.mark.parametrize(
    "semiring", LOWERABLE, ids=lambda s: s.name
)
@pytest.mark.parametrize("seed", range(6))
class TestDenseMatchesDict:
    def test_elimination(self, semiring, seed):
        problem = random_problem(semiring, seed)
        dict_result = solve_elimination(problem, backend="dict")
        dense_result = solve_elimination(problem, backend="dense")
        assert_identical(dict_result, dense_result)
        # The bucket schedule is shared, so the work counters agree too.
        assert (
            dict_result.stats.buckets_processed
            == dense_result.stats.buckets_processed
        )
        assert (
            dict_result.stats.largest_intermediate
            == dense_result.stats.largest_intermediate
        )

    def test_branch_bound(self, semiring, seed):
        problem = random_problem(semiring, seed)
        dict_result = solve_branch_bound(problem, backend="dict")
        dense_result = solve_branch_bound(problem, backend="dense")
        assert_identical(dict_result, dense_result)
        # Dense and table bucket messages are bit-identical, so the
        # search trees are node-for-node identical.
        assert dict_result.stats == dense_result.stats
        unbounded_dict = solve_branch_bound(
            problem, backend="dict", lookahead=False
        )
        unbounded_dense = solve_branch_bound(
            problem, backend="dense", lookahead=False
        )
        assert_identical(unbounded_dict, dense_result)
        assert_identical(unbounded_dense, dense_result)
        assert unbounded_dict.stats == unbounded_dense.stats

    def test_methods_agree(self, semiring, seed):
        problem = random_problem(semiring, seed)
        elim = solve_elimination(problem, backend="dense")
        bb = solve_branch_bound(problem, backend="dense")
        # The two methods associate ``×`` differently, so Probabilistic
        # float products may differ by an ulp — equiv, not ==, is the
        # cross-method contract (bit identity only holds per method).
        assert semiring.equiv(elim.blevel, bb.blevel)

    def test_solve_entrypoint(self, semiring, seed):
        problem = random_problem(semiring, seed)
        auto = solve(problem, backend="auto")
        forced = solve(problem, backend="dict")
        assert_identical(auto, forced)


class TestFallbackRouting:
    def _setbased_problem(self):
        semiring = SetSemiring(frozenset({"r", "w", "x"}))
        x = variable("x", [0, 1])
        c = TableConstraint(
            semiring,
            [x],
            {(0,): frozenset({"r"}), (1,): frozenset({"w"})},
        )
        return SCSP([c])

    def test_setbased_lowering_is_none(self):
        semiring = SetSemiring(frozenset({"r", "w"}))
        assert lower_semiring(semiring) is None
        assert resolve_lowering(semiring, "auto") is None

    def test_setbased_auto_routes_to_dict(self):
        result = solve(self._setbased_problem(), backend="auto")
        assert result.method == "elimination"
        assert result.blevel == frozenset({"r", "w"})

    def test_setbased_dense_raises(self):
        with pytest.raises(ProblemError, match="does not lower"):
            solve_elimination(self._setbased_problem(), backend="dense")

    def test_product_of_lowerables_lowers(self, fuzzy, weighted):
        # PR 9: composites lower compositionally (structured dtypes).
        product = ProductSemiring([fuzzy, weighted])
        lowering = lower_semiring(product)
        assert lowering is not None
        assert lowering.dtype.names == ("f0", "f1")

    def test_product_with_unlowerable_component_does_not_lower(self, fuzzy):
        product = ProductSemiring(
            [fuzzy, SetSemiring(frozenset({"r", "w"}))]
        )
        assert lower_semiring(product) is None

    def test_bounded_weighted_does_not_lower(self):
        semiring = BoundedWeightedSemiring(10.0)
        assert lower_semiring(semiring) is None
        x = variable("x", [0, 1])
        c = TableConstraint(semiring, [x], {(0,): 2.0, (1,): 4.0})
        problem = SCSP([c])
        # auto silently keeps the dict path (saturating × is not a ufunc)
        result = solve_branch_bound(problem, backend="auto")
        assert result.blevel == 2.0
        with pytest.raises(ProblemError, match="does not lower"):
            solve_branch_bound(problem, backend="dense")

    def test_unknown_backend_rejected(self, weighted):
        with pytest.raises(KernelError, match="unknown solver backend"):
            resolve_lowering(weighted, "vectorised")


class TestDenseFactorUnits:
    def test_roundtrip_preserves_values(self, weighted):
        x = variable("x", ["a", "b"])
        y = variable("y", [0, 1, 2])
        c = TableConstraint(
            weighted, [x, y], {("a", 0): 1.0, ("b", 2): 4.0}, default=2.0
        )
        lowering = lower_semiring(weighted)
        factor = DenseFactor.from_constraint(c, lowering)
        back = factor.to_table()
        for key, value in c.items():
            assert back.value(dict(zip(("x", "y"), key))) == value

    def test_combine_aligns_shuffled_scopes(self, fuzzy):
        x = variable("x", [0, 1])
        y = variable("y", [0, 1, 2])
        lowering = lower_semiring(fuzzy)
        c1 = TableConstraint(
            fuzzy,
            [x, y],
            {(a, b): 0.1 * (a + b + 1) for a in (0, 1) for b in (0, 1, 2)},
        )
        c2 = TableConstraint(
            fuzzy,
            [y, x],
            {(b, a): 0.2 * (b + 1) for a in (0, 1) for b in (0, 1, 2)},
        )
        dense = dense_combine(
            DenseFactor.from_constraint(c1, lowering),
            DenseFactor.from_constraint(c2, lowering),
        )
        reference = c1.combine(c2)
        for a in (0, 1):
            for b in (0, 1, 2):
                assignment = {"x": a, "y": b}
                assert dense.value(assignment) == pytest.approx(
                    reference.value(assignment)
                )

    def test_memoized_conversion_is_reused(self, weighted):
        x = variable("x", [0, 1])
        c = TableConstraint(weighted, [x], {(0,): 1.0, (1,): 2.0})
        lowering = lower_semiring(weighted)
        first = DenseFactor.from_constraint(c, lowering)
        second = DenseFactor.from_constraint(c, lowering)
        assert first is second
