"""Stacked candidate solves equal per-candidate branch & bound, bit for bit.

``solve_stacked`` scans a group of topology-sharing problems in one
dense fold (``repro.solver.stacked``), and the broker's market plan
scans a session's requirements against a stacked group of offers under
a member mask (``OfferGroup.work``); ``solve_branch_bound`` stays the
oracle.  Equality is checked on ``repr`` (exact for floats, and it tells
``-0.0`` from ``0.0`` and ``1`` from ``1.0``) and on the optima's key
order.  The broker-level half runs seeded ``benchmarks/e2e`` inputs
with stacking on, with the size bound monkeypatched to 0 (every group
searched as one), with group solves patched out (every candidate solved
on its own), and through fleets of 1, 2 and 4 shards.  Over the size
bound, ``OfferGroup.work`` gives a ``GroupSearch``: ``search_group``
runs one bucket pass for every member and branch & bound per member;
their rows, and a list
solve's results with their statistics, equal per-candidate branch &
bound too, with ``lookahead`` on and off.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.constraints import (
    ConstantConstraint,
    Polynomial,
    TableConstraint,
    polynomial_constraint,
    variable,
)
from repro.constraints.table import memoized_table
from repro.fleet import FleetConfig, FleetFrontend
from repro.runtime import RuntimeConfig, SessionStatus
from repro.semirings import (
    BooleanSemiring,
    BoundedWeightedSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    WeightedSemiring,
)
from repro.soa import (
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)
from repro.soa.broker import Broker
from repro.soa.market import MarketPlan
from repro.solver import (
    SCSP,
    GroupScan,
    GroupSearch,
    OfferGroup,
    ProblemError,
    Requirement,
    SolveCache,
    group_key,
    lower_semiring,
    scan_group,
    search_group,
    solve,
    solve_branch_bound,
    solve_stacked,
    stackable,
)
from repro.solver import stacked

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

# Values chosen so sums and products land on ties an ulp apart
# (0.1 + 0.2 != 0.3) as well as on exact ties.
VALUES = {
    "weighted": (
        WeightedSemiring(),
        lambda rng: rng.choice(
            [0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 0.30000000000000004, float("inf")]
        ),
    ),
    "fuzzy": (
        FuzzySemiring(),
        lambda rng: rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]),
    ),
    "probabilistic": (
        ProbabilisticSemiring(),
        lambda rng: rng.choice([0.0, 0.1, 0.3, 0.5, 0.6, 1.0, 0.2]),
    ),
    "boolean": (BooleanSemiring(), lambda rng: rng.random() < 0.7),
    "lex": (
        LexicographicSemiring([FuzzySemiring(), ProbabilisticSemiring()]),
        lambda rng: (
            rng.choice([0.2, 0.5, 1.0]),
            rng.choice([0.1, 0.3, 0.6, 1.0]),
        ),
    ),
}


def fingerprint(result):
    """Everything branch & bound promises, in comparable form."""
    return (
        repr(result.blevel),
        repr(result.frontier),
        [[list(assignment.items()) for assignment in group]
         for group in result.optima],
    )


def assert_matches_branch_bound(problems, **options):
    for problem, result in zip(problems, solve_stacked(problems, **options)):
        oracle = solve_branch_bound(problem, **options)
        assert fingerprint(result) == fingerprint(oracle), problem
        assert result.method == "stacked"


def random_group(rng, semiring, value):
    """A group sharing one topology: some positions hold one shared
    constraint object, the others a fresh table per member; sometimes an
    empty-scope constraint, sometimes a ``con`` subset."""
    variables = [
        variable(name, range(rng.randint(1, 4)))
        for name in "abcd"[: rng.randint(1, 4)]
    ]
    scopes = [
        rng.sample(variables, rng.randint(1, len(variables)))
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.3:
        scopes.insert(rng.randrange(len(scopes) + 1), [])

    def make(scope):
        if not scope:
            return ConstantConstraint(semiring, value(rng))
        domains = [var.domain for var in scope]
        return TableConstraint(
            semiring,
            scope,
            {key: value(rng) for key in itertools.product(*domains)},
        )

    shared = [make(scope) if rng.random() < 0.4 else None for scope in scopes]
    used = sorted({var.name for scope in scopes for var in scope})
    con = None if rng.random() < 0.5 else rng.sample(used, rng.randint(0, len(used)))
    return [
        SCSP(
            [
                constraint if constraint is not None else make(scope)
                for constraint, scope in zip(shared, scopes)
            ],
            con=con,
        )
        for _ in range(rng.randint(1, 5))
    ]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_random_groups_match_branch_bound(name):
    semiring, value = VALUES[name]
    for seed in range(120):
        rng = random.Random(f"{name}:{seed}")
        assert_matches_branch_bound(random_group(rng, semiring, value))


def plan_rows_match_branch_bound(rng, group, semiring, masks=3):
    """``group``'s first ``k`` constraints (of member 0) as a session's
    requirements, every member's rest as its offer: the plan scan's rows,
    for the full mask and random sub-masks, equal branch & bound on each
    selected member's ``requirements ⊗ offer``."""
    lowering = lower_semiring(semiring)
    width = len(group[0].constraints)
    k = rng.randrange(width)
    requirements = group[0].constraints[:k]
    offers = [problem.constraints[k:] for problem in group]
    stack = OfferGroup(offers, lowering)
    requirement = Requirement(requirements, lowering)
    everyone = list(range(len(offers)))
    selections = [everyone] + [
        sorted(rng.sample(everyone, rng.randint(1, len(everyone))))
        for _ in range(masks)
    ]
    for members in selections:
        scan = stack.work(requirement, members)
        assert type(scan) is GroupScan
        for member, (blevel, optima) in zip(members, scan_group(scan)):
            oracle = solve_branch_bound(SCSP(requirements + offers[member]))
            assert repr(blevel) == repr(oracle.blevel)
            assert repr([blevel]) == repr(oracle.frontier)
            assert [[list(items) for items in optima]] == [
                [list(assignment.items()) for assignment in found]
                for found in oracle.optima
            ]


@pytest.mark.parametrize("name", sorted(VALUES))
def test_plan_rows_match_branch_bound_under_masks(name):
    semiring, value = VALUES[name]
    for seed in range(60):
        rng = random.Random(f"plan:{name}:{seed}")
        group = random_group(rng, semiring, value)
        plan_rows_match_branch_bound(rng, group, semiring)


def test_chunked_plan_rows_match_branch_bound(monkeypatch):
    monkeypatch.setattr(stacked, "GRID_LIMIT", 4)
    semiring, value = VALUES["weighted"]
    for seed in range(30):
        rng = random.Random(f"chunked:{seed}")
        plan_rows_match_branch_bound(rng, random_group(rng, semiring, value), semiring)


@pytest.mark.parametrize("ordering", ["max-degree", "min-degree", "given"])
def test_orderings_match_branch_bound(ordering):
    semiring, value = VALUES["weighted"]
    for seed in range(40):
        group = random_group(random.Random(seed), semiring, value)
        assert_matches_branch_bound(group, ordering=ordering)


# ----------------------------------------------------------------------
# Group search: over-bound groups, one bucket pass for every member
# ----------------------------------------------------------------------


ORDERINGS = ["max-degree", "min-degree", "given"]


def search_rows_match_branch_bound(rng, group, semiring, options, masks=3):
    """As :func:`plan_rows_match_branch_bound`, through the group
    search (the caller patches the size bound so every group is over
    it)."""
    lowering = lower_semiring(semiring)
    width = len(group[0].constraints)
    k = rng.randrange(width)
    requirements = group[0].constraints[:k]
    offers = [problem.constraints[k:] for problem in group]
    stack = OfferGroup(offers, lowering)
    requirement = Requirement(requirements, lowering)
    everyone = list(range(len(offers)))
    selections = [everyone] + [
        sorted(rng.sample(everyone, rng.randint(1, len(everyone))))
        for _ in range(masks)
    ]
    for members in selections:
        work = stack.work(requirement, members)
        assert type(work) is GroupSearch
        rows = search_group(work, **options)
        assert len(rows) == len(members)
        for member, (blevel, optima) in zip(members, rows):
            oracle = solve_branch_bound(
                SCSP(requirements + offers[member]), **options
            )
            assert repr(blevel) == repr(oracle.blevel)
            assert repr([blevel]) == repr(oracle.frontier)
            assert [[list(items) for items in optima]] == [
                [list(assignment.items()) for assignment in found]
                for found in oracle.optima
            ]


def exact_result(result):
    """:func:`fingerprint` plus the method and the search statistics."""
    return fingerprint(result) + (result.method, result.stats)


@pytest.mark.parametrize("lookahead", [True, False])
@pytest.mark.parametrize("name", sorted(VALUES))
def test_search_rows_match_branch_bound_under_masks(name, lookahead, monkeypatch):
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    semiring, value = VALUES[name]
    for seed in range(40):
        rng = random.Random(f"search:{name}:{lookahead}:{seed}")
        group = random_group(rng, semiring, value)
        options = {"lookahead": lookahead, "ordering": rng.choice(ORDERINGS)}
        search_rows_match_branch_bound(rng, group, semiring, options)


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("lookahead", [True, False])
def test_search_rows_follow_every_ordering(ordering, lookahead, monkeypatch):
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    options = {"lookahead": lookahead, "ordering": ordering}
    for name in ("weighted", "probabilistic"):
        semiring, value = VALUES[name]
        for seed in range(20):
            rng = random.Random(f"ordering:{name}:{ordering}:{seed}")
            group = random_group(rng, semiring, value)
            search_rows_match_branch_bound(rng, group, semiring, options)


@pytest.mark.parametrize("lookahead", [True, False])
@pytest.mark.parametrize("name", sorted(VALUES))
def test_list_search_equals_branch_bound_with_stats(name, lookahead, monkeypatch):
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    semiring, value = VALUES[name]
    calls = []
    original = stacked._searched
    monkeypatch.setattr(
        stacked,
        "_searched",
        lambda work, *args: calls.append(len(work.members)) or original(work, *args),
    )
    for seed in range(40):
        rng = random.Random(f"list-search:{name}:{seed}")
        group = random_group(rng, semiring, value)
        ordering = rng.choice(ORDERINGS)
        results = solve(group, ordering=ordering, lookahead=lookahead)
        assert [exact_result(r) for r in results] == [
            exact_result(
                solve_branch_bound(p, ordering=ordering, lookahead=lookahead)
            )
            for p in group
        ]
        assert [r.problem for r in results] == group
    assert len(calls) == 40


@pytest.mark.parametrize("lookahead", [True, False])
def test_search_tabulates_what_branch_bound_does(lookahead, monkeypatch):
    # Intensional offers: branch & bound tabulates only what its bucket
    # pass lowers (nothing without lookahead), and so must the search.
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    weighted = WeightedSemiring()
    x, y, z = variable("x", range(3)), variable("y", range(4)), variable("z", range(2))

    def group():
        return [
            SCSP(
                [
                    polynomial_constraint(
                        weighted, [x], Polynomial.linear({"x": 1.0}, 0.5)
                    ),
                    polynomial_constraint(
                        weighted, [x, y], Polynomial.linear({"x": 0.5, "y": k}, 1.0)
                    ),
                    polynomial_constraint(
                        weighted, [y, z], Polynomial.linear({"z": 2.0, "y": 0.25}, k)
                    ),
                ]
            )
            for k in (1.0, 2.0, 3.0)
        ]

    def tabulated(problems):
        return [
            [memoized_table(c) is not None for c in p.constraints] for p in problems
        ]

    searched, oracle = group(), group()
    results = solve(searched, lookahead=lookahead)
    expected = [solve_branch_bound(p, lookahead=lookahead) for p in oracle]
    assert [exact_result(r) for r in results] == [exact_result(r) for r in expected]
    assert tabulated(searched) == tabulated(oracle)
    assert any(map(any, tabulated(oracle))) is lookahead


def test_chunked_search_rows_match_branch_bound(monkeypatch):
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    monkeypatch.setattr(stacked, "GRID_LIMIT", 4)
    semiring, value = VALUES["weighted"]
    for seed in range(30):
        rng = random.Random(f"chunked-search:{seed}")
        group = random_group(rng, semiring, value)
        search_rows_match_branch_bound(rng, group, semiring, {})


class TestTies:
    def test_weighted_ties_an_ulp_apart(self):
        weighted = WeightedSemiring()
        x = variable("x", range(4))
        first = TableConstraint(
            weighted, [x], {(0,): 0.1, (1,): 0.3, (2,): 0.2, (3,): 0.0}
        )
        second = TableConstraint(
            weighted, [x], {(0,): 0.2, (1,): 0.0, (2,): 0.1, (3,): 0.3}
        )
        problem = SCSP([first, second])
        (result,) = solve_stacked([problem])
        # 0.1 + 0.2 and 0.2 + 0.1 are an ulp above 0.3: only x=1 and
        # x=3 reach the optimum raw.
        assert result.blevel == 0.3
        assert result.optima == [[{"x": 1}, {"x": 3}]]
        assert_matches_branch_bound([problem])

    def test_probabilistic_ties_an_ulp_apart(self):
        probabilistic = ProbabilisticSemiring()
        x = variable("x", range(3))
        first = TableConstraint(
            probabilistic, [x], {(0,): 0.7, (1,): 0.1, (2,): 0.07}
        )
        second = TableConstraint(
            probabilistic, [x], {(0,): 0.1, (1,): 0.7, (2,): 1.0}
        )
        problem = SCSP([first, second])
        (result,) = solve_stacked([problem])
        # 0.7 * 0.1 is an ulp below 0.07: only x=2 is optimal.
        assert result.blevel == 0.07
        assert result.optima == [[{"x": 2}]]
        assert_matches_branch_bound([problem])

    def test_exact_ties_keep_search_order(self):
        fuzzy = FuzzySemiring()
        x, y = variable("x", range(3)), variable("y", range(3))
        flat = TableConstraint(
            fuzzy, [y, x], {key: 0.5 for key in itertools.product(range(3), repeat=2)}
        )
        (result,) = solve_stacked([SCSP([flat])])
        assert len(result.optima[0]) == 9
        assert_matches_branch_bound([SCSP([flat])])


class TestDegenerate:
    def test_all_zero_member(self):
        weighted = WeightedSemiring()
        x = variable("x", range(3))
        requirement = TableConstraint(weighted, [x], {(0,): 1.0, (1,): 2.0, (2,): 3.0})
        dead = TableConstraint(weighted, [x], {}, default=float("inf"))
        live = TableConstraint(weighted, [x], {(0,): 5.0, (1,): 0.0, (2,): 1.0})
        group = [SCSP([requirement, dead]), SCSP([requirement, live])]
        zero, good = solve_stacked(group)
        assert zero.blevel == weighted.zero and zero.optima == [[]]
        assert good.blevel == 2.0 and good.optima == [[{"x": 1}]]
        assert_matches_branch_bound(group)

    def test_empty_scope_constraints_only(self):
        fuzzy = FuzzySemiring()
        group = [
            SCSP([ConstantConstraint(fuzzy, 0.4), ConstantConstraint(fuzzy, 0.7)]),
            SCSP([ConstantConstraint(fuzzy, 0.0), ConstantConstraint(fuzzy, 0.7)]),
        ]
        assert_matches_branch_bound(group)
        assert [r.optima for r in solve_stacked(group)] == [[[{}]], [[]]]

    def test_empty_con(self):
        semiring, value = VALUES["probabilistic"]
        rng = random.Random(3)
        x, y = variable("x", range(3)), variable("y", range(2))
        group = [
            SCSP(
                [
                    TableConstraint(
                        semiring,
                        [x, y],
                        {k: value(rng) for k in itertools.product(range(3), range(2))},
                    )
                ],
                con=(),
            )
            for _ in range(3)
        ]
        assert_matches_branch_bound(group)


class TestGrouping:
    def test_shared_positions_keep_a_length_one_axis(self):
        weighted = WeightedSemiring()
        x = variable("x", range(5))
        requirement = TableConstraint(
            weighted, [x], {(k,): float(k) for k in range(5)}
        )
        group = [
            SCSP(
                [
                    requirement,
                    TableConstraint(
                        weighted,
                        [x],
                        {(k,): float(max(5 - k * m, 0)) for k in range(5)},
                    ),
                ]
            )
            for m in range(1, 4)
        ]
        assert_matches_branch_bound(group)
        # all members share every constraint: one row answers them all
        same = [SCSP([requirement]) for _ in range(3)]
        results = solve_stacked(same)
        assert_matches_branch_bound(same)
        results[0].optima[0][0]["x"] = 99
        assert results[1].optima[0][0]["x"] == 0

    def test_mixed_topologies_group_in_first_appearance_order(self):
        weighted = WeightedSemiring()
        x, y = variable("x", range(2)), variable("y", range(3))
        unary = TableConstraint(weighted, [x], {(0,): 1.0, (1,): 0.0})
        tables = [
            ({"x": x.domain, "y": y.domain}, {(0, 0): 1.0}),
            ({"x": x.domain}, {(0,): 2.0}),
            ({"x": x.domain, "y": y.domain}, {(1, 2): 1.0}),
            ({"x": x.domain}, {(1,): 2.0}),
        ]
        registry = ServiceRegistry()
        for index, (variables, table) in enumerate(tables):
            registry.publish(
                ServiceDescription(
                    service_id=f"s{index}",
                    name="op",
                    provider=f"P{index}",
                    interface=ServiceInterface(operation="op"),
                    qos=QoSDocument(
                        "op",
                        f"P{index}",
                        [QoSPolicy("cost", variables=variables, table=table)],
                    ),
                )
            )
        plan = MarketPlan(registry, "op", "cost", weighted)
        assert [
            [offer.description.service_id for offer in group.offers]
            for group in plan.groups
        ] == [["s0", "s2"], ["s1", "s3"]]
        problems = [
            SCSP([unary, *plan.offers[f"s{index}"].constraints])
            for index in range(4)
        ]
        with pytest.raises(ProblemError, match="stacked topology"):
            solve_stacked(problems)
        for group in ([0, 2], [1, 3]):
            assert_matches_branch_bound([problems[i] for i in group])

    def test_list_solve_answers_per_problem_and_caches_one_entry(self):
        semiring, value = VALUES["weighted"]
        group = random_group(random.Random(11), semiring, value)
        cache = SolveCache()
        first = solve(group, cache=cache)
        assert len(cache) == 1
        again = solve(group, cache=cache)
        assert cache.stats()["hits"] == 1
        assert [fingerprint(r) for r in again] == [fingerprint(r) for r in first]
        assert [r.problem for r in again] == group


def test_large_groups_scan_in_chunks(monkeypatch):
    semiring, value = VALUES["weighted"]
    rng = random.Random(5)
    x, y = variable("x", range(3)), variable("y", range(4))
    requirement = TableConstraint(
        semiring, [x], {(k,): value(rng) for k in range(3)}
    )
    group = [
        SCSP(
            [
                requirement,
                TableConstraint(
                    semiring,
                    [y, x],
                    {k: value(rng) for k in itertools.product(range(4), range(3))},
                ),
            ]
        )
        for _ in range(7)
    ]
    whole = [fingerprint(r) for r in solve_stacked(group)]
    monkeypatch.setattr(stacked, "GRID_LIMIT", 25)  # two members per chunk
    assert [fingerprint(r) for r in solve_stacked(group)] == whole
    assert_matches_branch_bound(group)
    shared = [SCSP([requirement])] * 5
    monkeypatch.setattr(stacked, "GRID_LIMIT", 6)
    assert_matches_branch_bound(shared)


class TestSizeBound:
    def problem(self, size):
        weighted = WeightedSemiring()
        x = variable("x", range(size))
        table = {(k,): float(k % 7) for k in range(size)}
        return SCSP([TableConstraint(weighted, [x], table)])

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(stacked, "STACK_LIMIT", 12)
        assert stackable(self.problem(11))
        assert stackable(self.problem(12))
        assert not stackable(self.problem(13))

    def test_auto_list_solve_follows_the_bound(self, monkeypatch):
        monkeypatch.setattr(stacked, "STACK_LIMIT", 12)
        for size, method in ((11, "stacked"), (12, "stacked"), (13, "branch-bound")):
            problems = [self.problem(size), self.problem(size)]
            results = solve(problems)
            assert [r.method for r in results] == [method, method]
            assert [fingerprint(r) for r in results] == [
                fingerprint(solve_branch_bound(p)) for p in problems
            ]


class TestUnstackable:
    """Semirings the scan cannot match keep per-candidate solves within
    the size bound (:class:`TestUnstackableOverBound` runs the same
    cases over it)."""

    limit = stacked.STACK_LIMIT

    @pytest.fixture(autouse=True)
    def no_group_solves(self, monkeypatch):
        monkeypatch.setattr(stacked, "STACK_LIMIT", self.limit)

        def refuse(*args, **kwargs):
            raise AssertionError("solved as a group")

        monkeypatch.setattr(stacked, "_searched", refuse)
        monkeypatch.setattr(stacked, "scan_group", refuse)

    def test_bounded_weighted_does_not_lower(self):
        bounded = BoundedWeightedSemiring(5.0)
        x = variable("x", range(3))
        problems = [
            SCSP([TableConstraint(bounded, [x], {(0,): 4.0, (1,): 3.0, (2,): 1.0})])
            for _ in range(2)
        ]
        assert not stackable(problems[0])
        assert {r.method for r in solve(problems)} == {"branch-bound"}
        with pytest.raises(ProblemError, match="lowerable"):
            solve_stacked(problems)

    def test_partial_orders_are_not_stacked(self):
        product = ProductSemiring([WeightedSemiring(), FuzzySemiring()])
        x = variable("x", range(2))
        table = {(0,): (1.0, 0.5), (1,): (0.0, 0.2)}
        problem = SCSP([TableConstraint(product, [x], table)])
        assert not stackable(problem)
        assert solve([problem])[0].method == "elimination"

    def test_dict_backend_is_not_stacked(self):
        semiring, value = VALUES["fuzzy"]
        group = random_group(random.Random(2), semiring, value)
        assert not stackable(group[0], backend="dict")
        assert {r.method for r in solve(group, backend="dict")} == {"branch-bound"}


class TestUnstackableOverBound(TestUnstackable):
    """Over the size bound the same problems get no group search either."""

    limit = 0

    def test_factor_over_the_materialization_limit(self, monkeypatch):
        # Branch & bound reads such a factor through ``value()``; a group
        # solve would tabulate it.
        monkeypatch.setattr(stacked, "_MATERIALIZE_LIMIT", 2)
        semiring, value = VALUES["weighted"]
        x, y = variable("x", range(2)), variable("y", range(2))
        rng = random.Random(4)
        group = [
            SCSP(
                [
                    TableConstraint(
                        semiring,
                        [x, y],
                        {k: value(rng) for k in itertools.product(range(2), repeat=2)},
                    )
                ]
            )
            for _ in range(3)
        ]
        cache = SolveCache()
        results = solve(group, cache=cache)
        assert len(cache) == 3
        assert [fingerprint(r) for r in results] == [
            fingerprint(solve_branch_bound(p)) for p in group
        ]


# ----------------------------------------------------------------------
# Broker level, on the end-to-end benchmark's seeded inputs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e():
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    return workloads


def sla_facts(sla):
    if sla is None:
        return None
    return (
        sla.providers,
        repr(sla.agreed_level),
        list(sla.resource_assignment.items()),
        sla.service_ids,
        sla.created_at,
    )


def negotiate_all(inputs, sessions):
    broker = Broker(inputs.registry())
    out = []
    for index in range(sessions):
        result = broker.negotiate(inputs.request(index)[1])
        out.append(
            (
                [
                    (
                        e.description.service_id,
                        repr(e.blevel),
                        e.accepted,
                        e.best_assignment,
                    )
                    for e in result.evaluations
                ],
                sla_facts(result.sla),
            )
        )
    return out


@pytest.mark.parametrize(
    "workload", ["unique-market", "hot-market", "verified-market"]
)
def test_broker_agreements_equal_per_candidate_solves(e2e, workload, monkeypatch):
    inputs = e2e.Inputs(e2e.WORKLOADS[workload], 3, 0)
    calls = []
    original = stacked.scan_group

    def counting(scan, *args, **kwargs):
        calls.append(len(scan.members))
        return original(scan, *args, **kwargs)

    monkeypatch.setattr(stacked, "scan_group", counting)
    monkeypatch.setattr("repro.solver.scan_group", counting)
    stacked_run = negotiate_all(inputs, 40)
    assert calls and all(size > 1 for size in calls)
    # Over the size bound: every group is one group search.
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    calls.clear()
    assert negotiate_all(inputs, 40) == stacked_run
    assert calls == []
    # No stacked work at all: every candidate solved on its own.
    monkeypatch.setattr(stacked.OfferGroup, "work", lambda *args: None)
    assert negotiate_all(inputs, 40) == stacked_run


def fleet_agreements(e2e, shards):
    inputs = e2e.Inputs(e2e.WORKLOADS["unique-market"], 4, 0)
    requests = [inputs.request(index)[1] for index in range(24)]
    frontend = FleetFrontend(
        inputs.registry(),
        FleetConfig(
            shards=shards,
            workers_per_shard=1,
            seed=2,
            runtime=RuntimeConfig(deadline_s=None),
        ),
    )
    frontend.run(requests)
    return {
        key: (result.status, sla_facts(result.sla)[:4])
        for key, result in frontend.results_by_key().items()
    }


def test_fleet_agreements_identical_at_1_2_and_4_shards(e2e):
    single = fleet_agreements(e2e, 1)
    assert len(single) == 24
    assert all(status is SessionStatus.COMPLETED for status, _ in single.values())
    assert fleet_agreements(e2e, 2) == single
    assert fleet_agreements(e2e, 4) == single


def test_group_entries_promote_from_l2_across_shards(e2e):
    inputs = e2e.Inputs(e2e.WORKLOADS["hot-market"], 1, 0)
    # One pooled request, many sessions: every shard negotiates the
    # same group of eight candidates.
    request = inputs.request(0)[1]
    frontend = FleetFrontend(
        inputs.registry(), FleetConfig(
            shards=4,
            seed=5,
            runtime=RuntimeConfig(deadline_s=None),
        )
    )
    results = frontend.run(
        [
            type(request)(
                client=f"c{index}",
                operation=request.operation,
                attribute=request.attribute,
                requirements=request.requirements,
                acceptance=request.acceptance,
            )
            for index in range(16)
        ]
    )
    assert all(r.status is SessionStatus.COMPLETED for r in results)
    # the whole session is one L2 entry holding all eight candidates
    assert len(frontend.l2) == 1
    broker = Broker(inputs.registry())
    semiring = request.resolved_semiring()
    plan = broker._market(request.operation, request.attribute, semiring)
    (group,) = plan.groups
    scan = group.stack.work(
        Requirement(request.requirements, plan.lowering),
        group.stack.everyone,
    )
    entry = frontend.l2.fetch_entry(group_key(scan, "max-degree", "auto"))
    assert len(entry) == group.stack.size == 8
    stats = frontend.cache_stats()
    busy = sum(1 for done in frontend.results_by_shard.values() if done)
    promotions = sum(shard["promotions"] for shard in stats["per_shard"].values())
    assert busy > 1 and promotions >= busy - 1
