"""Branch & bound bounded by bucket-elimination messages.

The message bound replaces the old one-constraint lookahead; these pin
that it changes *work only*: blevel, optima (in order) and the best
assignment stay bit-identical to the lookahead solver kept as an oracle
in :mod:`tests.solver.reference_branch_bound`, on every base semiring.
Lexicographic problems, where ``×`` is not monotone, must agree with
exhaustive enumeration — the old lookahead pruned their optima.
"""

import itertools
import random

import pytest

import repro.solver.branch_bound as branch_bound
from repro.constraints import TableConstraint, variable
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    WeightedSemiring,
)
from repro.solver import SCSP, solve, solve_branch_bound, solve_exhaustive

from .reference_branch_bound import reference_branch_bound

BASES = (
    WeightedSemiring(),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    BooleanSemiring(),
)


def _exact_value(semiring, rng):
    """Exactly representable values: every ``⊗`` fold rounds alike."""
    if isinstance(semiring, WeightedSemiring):
        return float(rng.randint(0, 12))
    if isinstance(semiring, BooleanSemiring):
        return rng.random() < 0.8
    return rng.randint(0, 8) / 8


def _float_value(semiring, rng):
    """Values whose ``⊗`` folds round differently in different orders."""
    if isinstance(semiring, WeightedSemiring):
        return rng.choice((0.1, 0.2, 0.3, 0.7, 1.1, 2.3)) * rng.randint(0, 5)
    return rng.random()


def random_problem(semiring, seed, draw=_exact_value, n_vars=7):
    """A connected chain plus three random constraints of arity 1–3."""
    rng = random.Random(seed)
    variables = [
        variable(f"x{i}", list(range(rng.randint(2, 3))))
        for i in range(n_vars)
    ]
    scopes = [
        rng.sample(variables[i : i + 2], 2) for i in range(n_vars - 1)
    ]
    scopes += [rng.sample(variables, rng.randint(1, 3)) for _ in range(3)]
    constraints = [
        TableConstraint(
            semiring,
            scope,
            {
                key: draw(semiring, rng)
                for key in itertools.product(*(v.domain for v in scope))
                if rng.random() < 0.8
            },
            default=semiring.zero if rng.random() < 0.5 else semiring.one,
        )
        for scope in scopes
    ]
    con = sorted(
        v.name for v in rng.sample(variables, rng.randint(1, n_vars))
    )
    return SCSP(constraints, con=con, name=f"bb-{seed}")


def assert_same_answer(result, reference):
    assert result.blevel == reference.blevel
    assert result.optima == reference.optima
    assert result.best_assignment == reference.best_assignment


@pytest.mark.parametrize("semiring", BASES, ids=lambda s: s.name)
class TestMatchesLookaheadOracle:
    def test_exact_inputs_bit_identical(self, semiring):
        nodes = reference_nodes = 0
        for seed in range(40):
            problem = random_problem(semiring, seed)
            reference = reference_branch_bound(problem)
            for backend in ("dense", "dict"):
                result = solve_branch_bound(problem, backend=backend)
                assert_same_answer(result, reference)
            nodes += result.stats.nodes_expanded
            reference_nodes += reference.stats.nodes_expanded
        assert nodes < reference_nodes

    def test_without_messages_bit_identical(self, semiring):
        for seed in range(10):
            problem = random_problem(semiring, seed)
            result = solve_branch_bound(problem, lookahead=False)
            reference = reference_branch_bound(problem, lookahead=False)
            assert_same_answer(result, reference)
            assert result.stats == reference.stats


class TestFloatFoldOrder:
    """The elimination fold and the search fold of one optimum may differ
    by an ulp; the threshold prunes only what is worse and not ``equiv``.
    """

    @pytest.mark.parametrize(
        "semiring",
        (WeightedSemiring(), ProbabilisticSemiring()),
        ids=lambda s: s.name,
    )
    def test_float_inputs_bit_identical(self, semiring):
        # Probabilistic products of random floats and non-dyadic Weighted
        # costs: the messages fold ``×`` in another order than the search
        # does, yet no optimum may be cut.
        for seed in range(40):
            problem = random_problem(semiring, seed, draw=_float_value)
            assert_same_answer(
                solve_branch_bound(problem), reference_branch_bound(problem)
            )

    def _chain(self, semiring, values):
        x, y, z = (variable(name, [0]) for name in "xyz")
        tables = [((x,), values[0]), ((x, y), values[1]), ((y, z), values[2])]
        return SCSP(
            [
                TableConstraint(semiring, scope, {(0,) * len(scope): value})
                for scope, value in tables
            ]
        )

    @pytest.mark.parametrize(
        "semiring, values",
        [
            (WeightedSemiring(), (0.1, 0.2, 0.3)),
            (ProbabilisticSemiring(), (0.1, 0.7, 0.3)),
        ],
        ids=("Weighted", "Probabilistic"),
    )
    def test_ulp_apart_optimum_survives(self, semiring, values):
        problem = self._chain(semiring, values)
        result = solve_branch_bound(problem, ordering="given")
        search_fold = semiring.times(
            semiring.times(values[0], values[1]), values[2]
        )
        message_fold = semiring.times(
            values[0], semiring.times(values[1], values[2])
        )
        # The witness really is ulp-apart, and the answer is the search's.
        assert search_fold != message_fold
        assert result.blevel == search_fold
        assert result.optima == [[{"x": 0, "y": 0, "z": 0}]]


class TestEdgeCases:
    def test_disconnected_problem(self, weighted):
        left = [variable(f"a{i}", range(3)) for i in range(3)]
        right = [variable(f"b{i}", range(3)) for i in range(3)]
        rng = random.Random(5)
        constraints = [
            TableConstraint(
                weighted,
                pair,
                {
                    key: float(rng.randint(0, 9))
                    for key in itertools.product(range(3), range(3))
                },
            )
            for part in (left, right)
            for pair in zip(part, part[1:])
        ]
        problem = SCSP(constraints)
        result = solve_branch_bound(problem)
        assert_same_answer(result, reference_branch_bound(problem))
        assert result.blevel == solve_exhaustive(problem).blevel

    def test_single_variable_builds_no_tables(self, weighted, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-variable search needs no messages")

        monkeypatch.setattr(branch_bound, "run_step", refuse)
        monkeypatch.setattr(branch_bound, "combine", refuse)
        monkeypatch.setattr(branch_bound.DenseFactor, "from_constraint", refuse)
        x = variable("x", range(4))
        problem = SCSP(
            [
                TableConstraint(weighted, [x], {(d,): 3.0 - d for d in range(4)}),
                TableConstraint(weighted, [x], {(3,): 2.0}, default=0.0),
            ]
        )
        for backend in ("dense", "dict"):
            result = solve_branch_bound(problem, backend=backend)
            assert result.blevel == 1.0
            assert result.optima == [[{"x": 2}]]

    def test_over_limit_buckets_are_skipped(self, weighted, monkeypatch):
        problem = random_problem(weighted, 3)
        exact = solve_branch_bound(problem)
        unbounded = solve_branch_bound(problem, lookahead=False)
        # Every bucket over the limit: no message, no seeded threshold —
        # the very search ``lookahead=False`` runs.
        monkeypatch.setattr(branch_bound, "_MATERIALIZE_LIMIT", 0)
        skipped = solve_branch_bound(problem)
        assert_same_answer(skipped, exact)
        assert skipped.stats == unbounded.stats
        # Only the wide buckets skipped: the rest still bound, admissibly.
        monkeypatch.setattr(branch_bound, "_MATERIALIZE_LIMIT", 4)
        for seed in range(20):
            problem = random_problem(weighted, seed)
            partial = solve_branch_bound(problem)
            assert_same_answer(partial, reference_branch_bound(problem))


class TestTimesMonotoneLaw:
    def test_base_semirings_are_monotone(self):
        assert all(semiring.times_monotone for semiring in BASES)
        assert ProductSemiring(list(BASES[:2])).times_monotone

    def test_lex_is_not(self):
        lex = LexicographicSemiring([FuzzySemiring(), FuzzySemiring()])
        assert not lex.times_monotone


LEX = LexicographicSemiring([FuzzySemiring(), FuzzySemiring()])


def _random_lex_problem(seed):
    """2–3 binary variables, 2–4 constraints, tie-heavy levels."""
    rng = random.Random(seed)
    levels = (0.0, 0.5, 1.0)
    variables = [variable(f"v{i}", [0, 1]) for i in range(rng.randint(2, 3))]
    constraints = []
    for _ in range(rng.randint(2, 4)):
        scope = rng.sample(variables, rng.randint(1, len(variables)))
        constraints.append(
            TableConstraint(
                LEX,
                scope,
                {
                    key: (rng.choice(levels), rng.choice(levels))
                    for key in itertools.product(*(v.domain for v in scope))
                },
            )
        )
    return SCSP(constraints)


def _optimum_set(result):
    return sorted(tuple(sorted(a.items())) for a in result.optima[0])


class TestLexicographicProblems:
    """Tie-collapse breaks ``×``-monotonicity, so a message (or lookahead)
    bound can undercut a Lex optimum; the solver must fall back to the
    absorptive accumulated-value bound."""

    def test_tie_collapse_witness(self):
        v0, v1 = variable("v0", [0, 1]), variable("v1", [0, 1])
        c1 = TableConstraint(
            LEX,
            [v0, v1],
            {
                (0, 0): (0.0, 0.5),
                (0, 1): (0.0, 0.5),
                (1, 0): (0.5, 0.0),
                (1, 1): (0.0, 1.0),
            },
        )
        c2 = TableConstraint(LEX, [v0], {(0,): (0.0, 1.0), (1,): (0.0, 1.0)})
        problem = SCSP([c1, c2])
        assert solve_exhaustive(problem).blevel == (0.0, 1.0)
        for backend in ("dense", "dict"):
            result = solve(problem, backend=backend)
            assert result.method == "branch-bound"
            assert result.blevel == (0.0, 1.0)
            assert result.optima == [[{"v0": 1, "v1": 1}]]

    @pytest.mark.parametrize("backend", ("dense", "dict"))
    def test_seeded_sweep_matches_exhaustive(self, backend):
        for seed in range(2000):
            problem = _random_lex_problem(seed)
            result = solve(problem, backend=backend)
            expected = solve_exhaustive(problem)
            assert result.blevel == expected.blevel, seed
            if result.blevel != LEX.zero:
                # (An inconsistent problem has no B&B witnesses.)
                assert _optimum_set(result) == _optimum_set(expected), seed
