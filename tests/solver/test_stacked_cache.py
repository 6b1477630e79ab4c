"""The stacked scan's solve-cache key (``repro.solver.stacked.group_key``).

A scan's entry is keyed on the lowered factor bytes it reads (the
requirements' digests and the offer group's digest) and on its member
mask, so scans built from different objects — or by different brokers,
as the fleet's shared L2 needs — share an entry when their arrays are
equal, and any change the scan would see — a table value, a domain
label, ``con``, the semiring, the mask, a republished offer — is a
different key.  Every hit must equal a cache-less scan bit for bit.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from repro.constraints import (
    Polynomial,
    TableConstraint,
    polynomial_constraint,
    to_table,
    variable,
)
from repro.semirings import FuzzySemiring, WeightedSemiring
from repro.soa import QoSDocument, QoSPolicy, ServiceDescription, ServiceInterface
from repro.soa.broker import Broker
from repro.solver import (
    SCSP,
    Requirement,
    SolveCache,
    scan_group,
    search_group,
    solve,
    solve_branch_bound,
)
from repro.solver import stacked

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

WEIGHTED = WeightedSemiring()
X = variable("x", range(5))
Y = variable("y", range(3))


def poly_requirement(semiring=WEIGHTED):
    return polynomial_constraint(
        semiring, [X], Polynomial.linear({"x": -0.125}, 0.75)
    )


def offers(semiring=WEIGHTED, y=Y, shift=0.0):
    return [
        TableConstraint(
            semiring,
            [X, y],
            {
                (a, label): ((a * 7 + b * 3 + k) % 5) / 8 + shift
                for a in X.domain
                for b, label in enumerate(y.domain)
            },
        )
        for k in range(4)
    ]


def group(requirement, offer_list, con=None):
    return [SCSP([requirement, offer], con=con) for offer in offer_list]


def bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


def exact(result):
    """Every bit a result carries: float.hex of the blevel and frontier,
    the optima with their key order, the method and the stats."""
    return (
        bits(result.blevel),
        [bits(value) for value in result.frontier],
        [[list(assignment.items()) for assignment in optima]
         for optima in result.optima],
        result.method,
        result.stats,
    )


def assert_hits_equal_cacheless_scans(problems):
    cache = SolveCache()
    solve(problems, cache=cache)
    hits = cache.stats()["hits"]
    hit = solve(problems, cache=cache)
    assert cache.stats()["hits"] == hits + 1
    assert [r.problem for r in hit] == problems
    assert [exact(r) for r in hit] == [
        exact(r) for r in stacked._scan(problems)
    ]


class TestHits:
    def test_polynomial_and_its_table_copy_share_an_entry(self):
        offer_list = offers()
        cache = SolveCache()
        first = solve(group(poly_requirement(), offer_list), cache=cache)
        copy = group(to_table(poly_requirement()), offer_list)
        again = solve(copy, cache=cache)
        assert len(cache) == 1 and cache.stats()["hits"] == 1
        assert [exact(r) for r in again] == [exact(r) for r in first]
        assert [r.problem for r in again] == copy

    def test_fresh_offer_compile_shares_an_entry(self):
        # Two brokers over two registries compile their own plans; a
        # scan of one hits the entry the other stored.
        inputs, request = unique_market()
        semiring = request.resolved_semiring()
        first, second = [
            market_scan(Broker(inputs.registry()), request, semiring)
            for _ in range(2)
        ]
        assert first.group.head[0] is not second.group.head[0]
        cache = SolveCache()
        solve(first, cache=cache)
        hit = solve(second, cache=cache)
        assert len(cache) == 1 and cache.stats()["hits"] == 1
        assert [exact_row(row) for row in hit] == [
            exact_row(row) for row in scan_group(second)
        ]


def unique_market(workload="unique-market"):
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    inputs = workloads.Inputs(workloads.WORKLOADS[workload], 1, 0)
    return inputs, inputs.request(0)[1]


def market_scan(broker, request, semiring, members=None):
    """The broker's scan of ``request`` against its one stacked group
    (a search when the joint table is over ``STACK_LIMIT``)."""
    plan = broker._market(request.operation, request.attribute, semiring)
    (group,) = plan.groups
    stack = group.stack
    return stack.work(
        Requirement(request.requirements, plan.lowering),
        stack.everyone if members is None else members,
    )


def exact_row(row):
    blevel, optima = row
    return bits(blevel), [list(items) for items in optima]


class TestPlanMisses:
    def test_changed_mask(self):
        inputs, request = unique_market()
        semiring = request.resolved_semiring()
        broker = Broker(inputs.registry())
        cache = SolveCache()
        solve(market_scan(broker, request, semiring), cache=cache)
        narrow = market_scan(broker, request, semiring, members=(0, 2, 5))
        rows = solve(narrow, cache=cache)
        assert cache.stats()["hits"] == 0 and len(cache) == 2
        full = scan_group(market_scan(broker, request, semiring))
        assert [exact_row(r) for r in rows] == [
            exact_row(full[m]) for m in (0, 2, 5)
        ]

    def test_republished_offer_bytes(self):
        inputs, request = unique_market()
        semiring = request.resolved_semiring()
        registry = inputs.registry()
        broker = Broker(registry)
        cache = SolveCache()
        before = solve(market_scan(broker, request, semiring), cache=cache)
        old = registry.unpublish("render-P3")
        (policy,) = old.qos.policies
        registry.publish(
            ServiceDescription(
                service_id=old.service_id,
                name=old.name,
                provider=old.provider,
                interface=ServiceInterface(operation=old.interface.operation),
                qos=QoSDocument(
                    old.qos.service_name,
                    old.provider,
                    [
                        QoSPolicy(
                            "cost",
                            variables=policy.variables,
                            polynomial=policy.polynomial + 0.5,
                        )
                    ],
                ),
            )
        )
        after = solve(market_scan(broker, request, semiring), cache=cache)
        assert cache.stats()["hits"] == 0 and len(cache) == 2
        assert before[3][0] + 0.5 == after[3][0]
        assert [exact_row(r) for i, r in enumerate(after) if i != 3] == [
            exact_row(r) for i, r in enumerate(before) if i != 3
        ]


class TestMisses:
    def misses(self, base, changed):
        cache = SolveCache()
        solve(base, cache=cache)
        results = solve(changed, cache=cache)
        assert cache.stats()["hits"] == 0
        assert len(cache) == 2
        for problem, result in zip(changed, results):
            oracle = solve_branch_bound(problem)
            assert exact(result)[:3] == exact(oracle)[:3]

    def test_changed_table_value(self):
        requirement = poly_requirement()
        self.misses(
            group(requirement, offers()),
            group(requirement, offers(shift=0.5)),
        )

    def test_changed_domain_label_of_equal_size(self):
        relabelled = variable("y", ("a", "b", "c"))
        requirement = poly_requirement()
        self.misses(
            group(requirement, offers()),
            group(requirement, offers(y=relabelled)),
        )

    def test_different_con(self):
        requirement = poly_requirement()
        offer_list = offers()
        self.misses(
            group(requirement, offer_list),
            group(requirement, offer_list, con=["y"]),
        )

    def test_different_semiring(self):
        fuzzy = FuzzySemiring()
        self.misses(
            group(to_table(poly_requirement()), offers()),
            group(
                TableConstraint(
                    fuzzy, [X], dict(to_table(poly_requirement()).table)
                ),
                offers(semiring=fuzzy),
            ),
        )


def random_members(rng, size):
    values = [0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 1.0, float("inf")]
    a, b = variable("a", range(3)), variable("b", range(4))
    shared = TableConstraint(
        WEIGHTED, [a], {(k,): rng.choice(values) for k in range(3)}
    )
    con = rng.choice([None, ["a"], ["b"], []])
    return [
        SCSP(
            [
                shared,
                TableConstraint(
                    WEIGHTED,
                    [b, a],
                    {
                        key: rng.choice(values)
                        for key in itertools.product(range(4), range(3))
                    },
                ),
            ],
            con=con,
        )
        for _ in range(size)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_hits_equal_cacheless_scans(seed):
    rng = random.Random(seed)
    assert_hits_equal_cacheless_scans(random_members(rng, rng.randint(1, 6)))


def test_chunked_hits_equal_cacheless_scans(monkeypatch):
    monkeypatch.setattr(stacked, "GRID_LIMIT", 25)  # two members per chunk
    for seed in range(5):
        assert_hits_equal_cacheless_scans(random_members(random.Random(seed), 7))


class TestGroupSearch:
    """Over the size bound a group is one search, one entry: keyed like
    a scan, plus ``lookahead``, on which its statistics depend."""

    @pytest.fixture(autouse=True)
    def over_the_bound(self, monkeypatch):
        monkeypatch.setattr(stacked, "STACK_LIMIT", 0)

    def test_equal_requirement_bytes_hit_one_entry(self):
        offer_list = offers()
        cache = SolveCache()
        first = solve(group(poly_requirement(), offer_list), cache=cache)
        copy = group(to_table(poly_requirement()), offer_list)
        again = solve(copy, cache=cache)
        assert len(cache) == 1 and cache.stats()["hits"] == 1
        assert [exact(r) for r in again] == [exact(r) for r in first]
        assert {r.method for r in again} == {"branch-bound"}
        assert [r.problem for r in again] == copy
        assert [exact(r) for r in again] == [
            exact(solve_branch_bound(problem)) for problem in copy
        ]

    def test_fresh_requests_on_chain_market_hit_one_entry(self):
        inputs, request = unique_market("chain-market")
        semiring = request.resolved_semiring()
        first = market_scan(Broker(inputs.registry()), request, semiring)
        fresh = inputs.request(0)[1]
        assert fresh.requirements[0] is not request.requirements[0]
        second = market_scan(Broker(inputs.registry()), fresh, semiring)
        cache = SolveCache()
        solve(first, cache=cache)
        hit = solve(second, cache=cache)
        assert len(cache) == 1 and cache.stats()["hits"] == 1
        assert [exact_row(row) for row in hit] == [
            exact_row(row) for row in search_group(second)
        ]

    def test_changed_mask_misses(self):
        inputs, request = unique_market("chain-market")
        semiring = request.resolved_semiring()
        broker = Broker(inputs.registry())
        cache = SolveCache()
        full = solve(market_scan(broker, request, semiring), cache=cache)
        narrow = market_scan(broker, request, semiring, (0, 2))
        rows = solve(narrow, cache=cache)
        assert cache.stats()["hits"] == 0 and len(cache) == 2
        assert [exact_row(r) for r in rows] == [exact_row(full[m]) for m in (0, 2)]

    def misses(self, base, changed, **options):
        cache = SolveCache()
        solve(base, cache=cache)
        results = solve(changed, cache=cache, **options)
        assert cache.stats()["hits"] == 0
        assert len(cache) == 2
        assert [exact(r) for r in results] == [
            exact(solve_branch_bound(problem, **options)) for problem in changed
        ]

    def test_changed_table_value(self):
        requirement = poly_requirement()
        self.misses(
            group(requirement, offers()),
            group(requirement, offers(shift=0.5)),
        )

    def test_different_con(self):
        requirement = poly_requirement()
        offer_list = offers()
        self.misses(
            group(requirement, offer_list),
            group(requirement, offer_list, con=["y"]),
        )

    def test_lookahead_off(self):
        problems = group(poly_requirement(), offers())
        self.misses(problems, problems, lookahead=False)
