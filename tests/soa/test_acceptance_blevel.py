"""Acceptance reads the candidate solve's blevel (paper Fig. 3, case C1).

``Broker._evaluate_candidates`` solves each candidate SCSP once and
judges level thresholds against that solve's blevel, the level the SLA
is signed at.
These tests pin the decision to the old store-backed path
(:mod:`acceptance_oracle`) wherever both folds are exact, check that
constraint thresholds (C2–C4) still build and query a store, and show
that on non-dyadic floats a signed ``agreed_level`` always meets the
client's interval.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.constraints import TableConstraint, Variable
from repro.sccp import CheckError, CheckSpec
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    ProductSemiring,
    WeightedSemiring,
    lexicographic_of,
)
from repro.soa import (
    Broker,
    ClientRequest,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)
from repro.soa import broker as broker_module

from .acceptance_oracle import evaluate_via_store, store_consistency

DOMAIN = (0, 1, 2)
ATTRIBUTE = "quality"


def random_table(rng, value, arity=2):
    return {
        key: value(rng) for key in itertools.product(DOMAIN, repeat=arity)
    }


def random_market(rng, semiring, value, providers=3):
    """Requirements over (x, y) and (y, z); each offer over (x, z)."""
    x, y, z = (Variable(name, DOMAIN) for name in "xyz")
    requirements = [
        TableConstraint(semiring, [x, y], random_table(rng, value)),
        TableConstraint(semiring, [y, z], random_table(rng, value)),
    ]
    registry = ServiceRegistry()
    for index in range(providers):
        provider = f"P{index}"
        document = QoSDocument(
            service_name="op",
            provider=provider,
            policies=[
                QoSPolicy(
                    attribute=ATTRIBUTE,
                    variables={"x": DOMAIN, "z": DOMAIN},
                    table=random_table(rng, value),
                )
            ],
        )
        registry.publish(
            ServiceDescription(
                service_id=f"op-{provider}",
                name="op",
                provider=provider,
                interface=ServiceInterface(operation="op"),
                qos=document,
            )
        )
    return registry, requirements


def request_for(requirements, acceptance):
    return ClientRequest(
        client="C",
        operation="op",
        attribute=ATTRIBUTE,
        requirements=requirements,
        acceptance=acceptance,
    )


def in_interval(semiring, level, spec):
    """Fig. 3's level conditions, spelled out on a plain value."""
    if spec.lower is not None and semiring.lt(level, spec.lower):
        return False
    if spec.upper is not None and semiring.gt(level, spec.upper):
        return False
    return True


def level_intervals(semiring, levels):
    """Lower-only, upper-only and two-sided C1 intervals over ``levels``."""
    specs = []
    for level in levels:
        specs.append(CheckSpec(semiring, lower=level))
        specs.append(CheckSpec(semiring, upper=level))
    for first, second in itertools.combinations(levels, 2):
        lower, upper = (
            (second, first) if semiring.gt(first, second) else (first, second)
        )
        specs.append(CheckSpec(semiring, lower=lower, upper=upper))
    return specs


# Exactly representable values: every fold order gives the same bits.
EXACT = {
    "boolean": (BooleanSemiring(), lambda r: r.random() < 0.85),
    "fuzzy": (FuzzySemiring(), lambda r: r.choice((0.0, 0.25, 0.5, 0.75, 1.0))),
    "probabilistic": (
        ProbabilisticSemiring(),
        lambda r: r.choice((0.25, 0.5, 0.75, 1.0)),
    ),
    "weighted": (WeightedSemiring(), lambda r: float(r.randint(0, 9))),
    # Finite integer costs keep lex-⊕ distributive over ⊗, so the
    # store's bucket elimination is exact on this composite too.
    "lex": (
        lexicographic_of("weighted", "weighted"),
        lambda r: (float(r.randint(0, 4)), float(r.randint(0, 9))),
    ),
    # Partially ordered: solve() eliminates instead of branching.
    "product": (
        ProductSemiring([WeightedSemiring(), FuzzySemiring()]),
        lambda r: (float(r.randint(0, 9)), r.choice((0.25, 0.5, 0.75, 1.0))),
    ),
}


@pytest.mark.parametrize("store", ["monolith", "factored"])
@pytest.mark.parametrize("name", sorted(EXACT))
def test_level_acceptance_matches_store_oracle(name, store):
    semiring, value = EXACT[name]
    decisions = set()
    for seed in range(4):
        rng = random.Random(seed)
        registry, requirements = random_market(rng, semiring, value)
        broker = Broker(registry)
        candidates = registry.find(operation="op")
        probe = request_for(requirements, None)
        levels = [
            evaluate_via_store(broker, d, probe, semiring, store).blevel
            for d in candidates
        ]
        levels += [value(rng), value(rng)]
        for spec in level_intervals(semiring, levels):
            request = request_for(requirements, spec)
            for description in candidates:
                (new,) = broker._evaluate_candidates(
                    [description], request, semiring
                )
                old = evaluate_via_store(
                    broker, description, request, semiring, store
                )
                assert new.blevel == old.blevel
                assert new.best_assignment == old.best_assignment
                assert new.accepted == old.accepted, (name, seed, spec)
                decisions.add(new.accepted)
    # The intervals straddle the candidates: both outcomes occur.
    assert decisions == {True, False}


def test_incomparable_consistency_passes_on_partial_order():
    semiring, value = EXACT["product"]
    registry, requirements = random_market(random.Random(0), semiring, value)
    broker = Broker(registry)
    description = registry.find(operation="op")[0]
    cost, quality = evaluate_via_store(
        broker, description, request_for(requirements, None), semiring
    ).blevel
    assert cost >= 1.0 and quality >= 0.25
    # A cheaper-but-lower-quality threshold: incomparable with blevel.
    lower = (cost - 1.0, quality - 0.25)
    assert not semiring.leq(lower, (cost, quality))
    assert not semiring.leq((cost, quality), lower)
    request = request_for(requirements, CheckSpec(semiring, lower=lower))
    (evaluation,) = broker._evaluate_candidates(
        [description], request, semiring
    )
    assert evaluation.accepted
    assert evaluate_via_store(broker, description, request, semiring).accepted


def constraint_intervals(semiring, rng, value, requirements):
    """C2, C3 and C4 intervals; the intrinsically wrong ones dropped."""
    x, y = requirements[0].scope
    nothing = dict.fromkeys(itertools.product(DOMAIN, repeat=2), semiring.zero)
    tables = [
        TableConstraint(semiring, [x, y], random_table(rng, value)),
        requirements[0],
        TableConstraint(semiring, [x, y], nothing),
    ]
    levels = [value(rng), semiring.zero, semiring.one]
    shapes = []
    for phi in tables:
        for level in levels:
            shapes.append((level, phi))  # C2
            shapes.append((phi, level))  # C3
        for other in tables:
            shapes.append((phi, other))  # C4
    specs = []
    for lower, upper in shapes:
        try:
            specs.append(CheckSpec(semiring, lower=lower, upper=upper))
        except CheckError:
            continue
    return specs


@pytest.mark.parametrize("name", ["fuzzy", "probabilistic", "weighted"])
def test_constraint_thresholds_still_build_the_store(name, monkeypatch):
    semiring, value = EXACT[name]
    built = []
    real_empty_store = broker_module.empty_store

    def counting_empty_store(*args, **kwargs):
        built.append(args)
        return real_empty_store(*args, **kwargs)

    monkeypatch.setattr(broker_module, "empty_store", counting_empty_store)
    decisions = set()
    for seed in range(3):
        rng = random.Random(100 + seed)
        registry, requirements = random_market(rng, semiring, value)
        broker = Broker(registry)
        candidates = registry.find(operation="op")
        specs = constraint_intervals(semiring, rng, value, requirements)
        assert {spec.case for spec in specs} == {"C2", "C3", "C4"}
        for spec in specs:
            request = request_for(requirements, spec)
            for description in candidates:
                built.clear()
                (new,) = broker._evaluate_candidates(
                    [description], request, semiring
                )
                assert len(built) == 1
                old = evaluate_via_store(
                    broker, description, request, semiring
                )
                assert new.accepted == old.accepted, (name, seed, spec)
                decisions.add(new.accepted)
    assert decisions == {True, False}


def test_level_thresholds_build_no_store(monkeypatch):
    semiring, value = EXACT["weighted"]
    registry, requirements = random_market(random.Random(0), semiring, value)

    def no_store(*args, **kwargs):
        raise AssertionError("a level threshold built a store")

    monkeypatch.setattr(broker_module, "empty_store", no_store)
    calls = []
    real_holds = CheckSpec.holds

    def counting_holds(self, store, consistency=None):
        calls.append((store, consistency))
        return real_holds(self, store, consistency)

    monkeypatch.setattr(CheckSpec, "holds", counting_holds)
    request = request_for(
        requirements, CheckSpec(semiring, lower=30.0, upper=0.0)
    )
    result = Broker(registry).negotiate(request)
    assert result.success
    # One check per candidate, each fed that candidate's blevel.
    assert [consistency for _, consistency in calls] == [
        e.blevel for e in result.evaluations
    ]
    assert all(store is None for store, _ in calls)


# Non-dyadic floats: branch & bound's left fold and the store's bucket
# elimination sum or multiply in different orders.
INEXACT = {
    "weighted": (WeightedSemiring(), lambda r: round(r.uniform(0, 10), 2)),
    "probabilistic": (
        ProbabilisticSemiring(),
        lambda r: round(r.uniform(0.5, 1.0), 2),
    ),
}


def boundary_market(semiring, value):
    """The first seeded market where some candidate's blevel and its
    store's own σ⇓∅ differ in the last bits."""
    for seed in range(200):
        registry, requirements = random_market(
            random.Random(seed), semiring, value
        )
        broker = Broker(registry)
        probe = request_for(requirements, None)
        for description in registry.find(operation="op"):
            (evaluation,) = broker._evaluate_candidates(
                [description], probe, semiring
            )
            blevel = evaluation.blevel
            other = store_consistency(broker, description, probe, semiring)
            if blevel != other:
                return registry, requirements, description, blevel, other
    raise AssertionError("no boundary case in 200 seeded markets")


@pytest.mark.parametrize("shape", ["one-sided", "point"])
@pytest.mark.parametrize("name", sorted(INEXACT))
def test_signed_level_meets_interval_on_boundary(name, shape):
    semiring, value = INEXACT[name]
    registry, requirements, boundary, blevel, other = boundary_market(
        semiring, value
    )
    if shape == "point":
        spec = CheckSpec(semiring, lower=blevel, upper=blevel)
    elif semiring.lt(other, blevel):
        spec = CheckSpec(semiring, lower=blevel)
    else:
        spec = CheckSpec(semiring, upper=blevel)
    request = request_for(requirements, spec)
    broker = Broker(registry)
    # The store's own solve lands just outside the interval.
    assert not evaluate_via_store(
        broker, boundary, request, semiring
    ).accepted

    for result in (
        broker.negotiate(request),
        broker.negotiate_round([request])[0],
    ):
        assert result.success
        assert in_interval(semiring, result.sla.agreed_level, spec)
        by_id = {e.description.service_id: e for e in result.evaluations}
        assert by_id[boundary.service_id].accepted
        for evaluation in result.evaluations:
            assert evaluation.accepted == in_interval(
                semiring, evaluation.blevel, spec
            )
