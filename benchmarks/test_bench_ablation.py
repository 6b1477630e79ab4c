"""E12 — solver ablations for the design choices called out in DESIGN.md.

(a) branch & bound pruning and the bucket-elimination message bound;
(b) bucket-elimination variable orderings (given vs min-degree);
(c) soft arc consistency as a preprocessing step.
"""

import itertools
import random

import pytest
from conftest import report

from repro.constraints import TableConstraint, variable
from repro.semirings import FuzzySemiring, WeightedSemiring
from repro.solver import (
    SCSP,
    enforce_arc_consistency,
    prune_domains,
    solve_branch_bound,
    solve_elimination,
    solve_exhaustive,
)


#: Fuzzy levels drawn for random problems; the explicit 0.0 mass is what
#: gives arc consistency genuine values to prune.
_FUZZY_LEVELS = (0.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def random_problem(n_vars, domain, density, seed, semiring=None, con=None):
    rng = random.Random(seed)
    semiring = semiring or WeightedSemiring()
    variables = [variable(f"v{i}", range(domain)) for i in range(n_vars)]

    def level():
        if isinstance(semiring, WeightedSemiring):
            return float(rng.randint(0, 9))
        return rng.choice(_FUZZY_LEVELS)

    constraints = []
    for var in variables:
        constraints.append(
            TableConstraint(
                semiring, [var], {(d,): level() for d in var.domain}
            )
        )
    for left, right in itertools.combinations(variables, 2):
        if rng.random() < density:
            constraints.append(
                TableConstraint(
                    semiring,
                    [left, right],
                    {
                        key: level()
                        for key in itertools.product(
                            left.domain, right.domain
                        )
                    },
                )
            )
    return SCSP(constraints, con=con)


class TestBranchBoundAblation:
    def test_pruning_vs_exhaustive(self, benchmark):
        def sweep():
            rows = []
            for n_vars in (5, 7, 9):
                problem = random_problem(n_vars, 3, 0.4, seed=n_vars)
                full = solve_exhaustive(problem)
                pruned = solve_branch_bound(problem)
                assert full.blevel == pruned.blevel
                rows.append(
                    (
                        n_vars,
                        full.stats.leaves_evaluated,
                        pruned.stats.leaves_evaluated,
                        f"{full.stats.leaves_evaluated / max(1, pruned.stats.leaves_evaluated):.1f}×",
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(
            "E12a — B&B pruning vs exhaustive enumeration",
            rows,
            ["n", "exhaustive leaves", "B&B leaves", "speedup"],
        )
        for _, full, pruned, _ in rows:
            assert pruned < full

    def test_lookahead_ablation(self, benchmark):
        def sweep():
            rows = []
            for seed in (1, 2, 3):
                problem = random_problem(8, 3, 0.35, seed=seed)
                with_la = solve_branch_bound(problem, lookahead=True)
                without_la = solve_branch_bound(problem, lookahead=False)
                assert with_la.blevel == without_la.blevel
                rows.append(
                    (
                        seed,
                        without_la.stats.nodes_expanded,
                        with_la.stats.nodes_expanded,
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(
            "E12a — bucket-elimination message bound",
            rows,
            ["seed", "nodes (no messages)", "nodes (messages)"],
        )
        total_without = sum(row[1] for row in rows)
        total_with = sum(row[2] for row in rows)
        assert total_with <= total_without

    @pytest.mark.parametrize("ordering", ("given", "max-degree", "min-domain"))
    def test_branching_order_timing(self, benchmark, ordering):
        problem = random_problem(8, 3, 0.35, seed=11)
        result = benchmark(
            lambda: solve_branch_bound(problem, ordering=ordering)
        )
        assert result.is_consistent


class TestEliminationAblation:
    def test_ordering_changes_intermediate_width(self, benchmark):
        def sweep():
            rows = []
            for seed in (4, 5, 6):
                # con = one variable, so the other eight get eliminated —
                # that is where the ordering matters.
                problem = random_problem(9, 3, 0.3, seed=seed, con=["v0"])
                given = solve_elimination(problem, ordering="given")
                smart = solve_elimination(problem, ordering="min-degree")
                assert given.blevel == smart.blevel
                rows.append(
                    (
                        seed,
                        given.stats.largest_intermediate,
                        smart.stats.largest_intermediate,
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(
            "E12b — elimination ordering vs largest intermediate table",
            rows,
            ["seed", "given order", "min-degree"],
        )
        assert sum(r[2] for r in rows) <= sum(r[1] for r in rows)

    @pytest.mark.parametrize("ordering", ("given", "min-degree"))
    def test_elimination_timing(self, benchmark, ordering):
        problem = random_problem(9, 3, 0.3, seed=4, con=["v0"])
        result = benchmark(
            lambda: solve_elimination(problem, ordering=ordering)
        )
        assert result.blevel is not None


class TestMiniBucketAblation:
    def test_bound_tightness_vs_i_bound(self, benchmark):
        """Mini-bucket bounds tighten monotonically with the i-bound and
        reach the exact blevel once the cap covers the widest bucket."""
        from repro.solver import minibucket_bound

        def sweep():
            rows = []
            for seed in (21, 22, 23):
                problem = random_problem(8, 3, 0.45, seed=seed)
                exact = solve_exhaustive(problem).blevel
                bounds = [
                    minibucket_bound(problem, i)[0] for i in (1, 2, 3, 8)
                ]
                rows.append(
                    (seed, *(f"{b:g}" for b in bounds), f"{exact:g}")
                )
                semiring = problem.semiring
                for looser, tighter in zip(bounds, bounds[1:]):
                    assert semiring.geq(looser, tighter)
                assert semiring.geq(bounds[0], exact)
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(
            "E12d — mini-bucket bound vs i-bound (weighted: optimistic cost lower-bounds rising to the exact cost)",
            rows,
            ["seed", "i=1", "i=2", "i=3", "i=8", "exact"],
        )

    def test_minibucket_cost_vs_exact(self, benchmark):
        from repro.solver import minibucket_bound

        problem = random_problem(9, 3, 0.4, seed=31)
        bound, stats = benchmark(lambda: minibucket_bound(problem, 2))
        assert stats.largest_intermediate <= 3**2


class TestArcConsistencyAblation:
    def test_preprocessing_prunes_domains(self, benchmark):
        def sweep():
            fuzzy = FuzzySemiring()
            rows = []
            for seed in (7, 8, 9):
                problem = random_problem(
                    6, 4, 0.5, seed=seed, semiring=fuzzy
                )
                tightened, stats = enforce_arc_consistency(problem)
                pruned, removed = prune_domains(tightened)
                before = solve_exhaustive(problem)
                after = solve_exhaustive(pruned)
                assert fuzzy.equiv(before.blevel, after.blevel)
                rows.append(
                    (
                        seed,
                        stats.revisions,
                        stats.changes,
                        removed,
                        before.stats.leaves_evaluated,
                        after.stats.leaves_evaluated,
                    )
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(
            "E12c — soft arc consistency as preprocessing (fuzzy)",
            rows,
            ["seed", "revisions", "changes", "values pruned", "leaves before", "leaves after"],
        )
        assert all(row[5] <= row[4] for row in rows)
