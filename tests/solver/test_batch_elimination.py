"""List solves of topology-sharing problems.

``solve([...])`` over B topology-sharing problems (one stacked scan when
they are small enough) must answer, member by member, exactly as B
independent ``solve`` calls do, and refuses a list that does not share
one topology.
"""

import random

import pytest

from repro.constraints import TableConstraint, variable
from repro.semirings import BoundedWeightedSemiring
from repro.solver import (
    SCSP,
    ProblemError,
    solve,
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
