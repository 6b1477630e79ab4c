"""Stacked candidate solves equal per-candidate branch & bound, bit for bit.

``solve_stacked`` scans a group of topology-sharing problems in one
dense fold (``repro.solver.stacked``); ``solve_branch_bound`` stays the
oracle.  Equality is checked on ``repr`` (exact for floats, and it tells
``-0.0`` from ``0.0`` and ``1`` from ``1.0``) and on the optima's key
order.  The broker-level half runs seeded ``benchmarks/e2e`` inputs
with stacking on and with the size bound monkeypatched to 0 (every group
solved candidate by candidate), and through fleets of 1, 2 and 4 shards.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.constraints import ConstantConstraint, TableConstraint, variable
from repro.fleet import FleetConfig, FleetFrontend
from repro.runtime import SessionStatus
from repro.semirings import (
    BooleanSemiring,
    BoundedWeightedSemiring,
    FuzzySemiring,
    LexicographicSemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    WeightedSemiring,
)
from repro.soa.broker import Broker
from repro.solver import (
    SCSP,
    ProblemError,
    SolveCache,
    group_fingerprint,
    solve,
    solve_branch_bound,
    solve_stacked,
    stackable,
    topology_groups,
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


@pytest.mark.parametrize("ordering", ["max-degree", "min-degree", "given"])
def test_orderings_match_branch_bound(ordering):
    semiring, value = VALUES["weighted"]
    for seed in range(40):
        group = random_group(random.Random(seed), semiring, value)
        assert_matches_branch_bound(group, ordering=ordering)


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
        problems = [
            SCSP([unary, TableConstraint(weighted, [x, y], {(0, 0): 1.0})]),
            SCSP([unary, TableConstraint(weighted, [x], {(0,): 2.0})]),
            SCSP([unary, TableConstraint(weighted, [x, y], {(1, 2): 1.0})]),
            SCSP([unary, TableConstraint(weighted, [x], {(1,): 2.0})]),
        ]
        assert topology_groups(problems) == [[0, 2], [1, 3]]
        with pytest.raises(ProblemError, match="stacked topology"):
            solve_stacked(problems)
        for group in topology_groups(problems):
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
    """Semirings the scan cannot match keep per-candidate solves."""

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
    original = stacked._scan

    def counting(problems, *args, **kwargs):
        calls.append(len(problems))
        return original(problems, *args, **kwargs)

    monkeypatch.setattr(stacked, "_scan", counting)
    monkeypatch.setattr("repro.solver._scan", counting)
    stacked_run = negotiate_all(inputs, 40)
    assert calls and all(size > 1 for size in calls)
    monkeypatch.setattr(stacked, "STACK_LIMIT", 0)
    calls.clear()
    assert negotiate_all(inputs, 40) == stacked_run
    assert calls == []


def fleet_agreements(e2e, shards):
    inputs = e2e.Inputs(e2e.WORKLOADS["unique-market"], 4, 0)
    requests = [inputs.request(index)[1] for index in range(24)]
    frontend = FleetFrontend(
        inputs.registry(),
        FleetConfig(shards=shards, workers_per_shard=1, seed=2, deadline_s=None),
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
        inputs.registry(), FleetConfig(shards=4, seed=5, deadline_s=None)
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
    group = [
        broker._candidate_problem(description, request, semiring)
        for description in broker.registry.find(operation=request.operation)
    ]
    entry = frontend.l2.get(group_fingerprint(group, "stacked", "auto", {}))
    assert len(entry) == len(group) == 8
    stats = frontend.cache_stats()
    busy = sum(1 for done in frontend.results_by_shard.values() if done)
    promotions = sum(shard["promotions"] for shard in stats["per_shard"].values())
    assert busy > 1 and promotions >= busy - 1
