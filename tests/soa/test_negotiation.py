"""Negotiation primitives: parties, fuzzy agreements, concessions."""

from dataclasses import FrozenInstanceError

import pytest

from repro.constraints import FunctionConstraint, integer_variable
from repro.sccp import interval
from repro.soa import (
    Party,
    fuzzy_agreement,
    iterative_concession,
    merged_policy,
    negotiate,
)


@pytest.fixture
def curves(fuzzy):
    resource = integer_variable("r", 9, lower=1)
    provider = FunctionConstraint(
        fuzzy, (resource,), lambda r: (r - 1) / 8.0, name="Cp"
    )
    client = FunctionConstraint(
        fuzzy, (resource,), lambda r: (9 - r) / 8.0, name="Cc"
    )
    return resource, provider, client


class TestFuzzyAgreement:
    def test_fig5_intersection_level(self, curves):
        _, provider, client = curves
        combined, blevel = fuzzy_agreement(provider, client)
        assert blevel == 0.5

    def test_agreement_is_min_of_curves(self, curves):
        _, provider, client = curves
        combined, _ = fuzzy_agreement(provider, client)
        assert combined({"r": 3}) == min(2 / 8, 6 / 8)

    def test_agreement_point_is_crossing(self, curves):
        _, provider, client = curves
        combined, blevel = fuzzy_agreement(provider, client)
        winners = [
            a["r"] for a, v in combined.enumerate_values() if v == blevel
        ]
        assert winners == [5]


class TestNegotiate:
    def test_compatible_parties_agree(self, weighted, fig7):
        provider = Party("P1", [fig7["c4"]])
        client = Party(
            "C", [fig7["c3"]], interval(weighted, lower=10.0, upper=0.0)
        )
        outcome = negotiate([provider, client], weighted)
        assert outcome.success
        assert outcome.agreed_level == 5.0
        assert outcome.scheduler_independent is True
        assert outcome.parties == ("P1", "C")

    def test_incompatible_acceptance_fails(self, weighted, fig7):
        provider = Party("P1", [fig7["c4"]])
        client = Party(
            "C", [fig7["c3"]], interval(weighted, lower=4.0, upper=1.0)
        )
        outcome = negotiate([provider, client], weighted)
        assert not outcome.success
        assert outcome.scheduler_independent is True  # fails on every schedule

    def test_trace_available(self, weighted, fig7):
        outcome = negotiate([Party("P1", [fig7["c4"]])], weighted)
        assert outcome.trace is not None
        assert len(outcome.trace) >= 1

    def test_skip_exploration(self, weighted, fig7):
        outcome = negotiate(
            [Party("P1", [fig7["c4"]])],
            weighted,
            verify_scheduler_independence=False,
        )
        assert outcome.scheduler_independent is None

    def test_no_parties_rejected(self, weighted):
        with pytest.raises(ValueError):
            negotiate([], weighted)

    def test_party_without_constraints_succeeds_trivially(self, weighted):
        outcome = negotiate([Party("idle", [])], weighted)
        assert outcome.success
        assert outcome.agreed_level == weighted.one


class TestIterativeConcession:
    def test_accepts_first_good_offer(self, weighted, fig7):
        offers = [fig7["c4"], fig7["c1"], fig7["c3"]]  # x+5, x+3, 2x
        demand = fig7["c3"]
        acceptance = interval(weighted, lower=4.0, upper=0.0)
        index, trail = iterative_concession(
            weighted, offers, demand, acceptance
        )
        # offer0: (x+5 ⊗ 2x)⇓∅ = 5 ∉ [0,4]; offer1: (x+3 ⊗ 2x)⇓∅ = 3 ✓
        assert index == 1
        assert trail == [5.0, 3.0]

    def test_no_acceptable_offer(self, weighted, fig7):
        offers = [fig7["c4"]]
        acceptance = interval(weighted, lower=2.0, upper=0.0)
        index, trail = iterative_concession(
            weighted, offers, fig7["c3"], acceptance
        )
        assert index is None
        assert trail == [5.0]


class TestMergedPolicy:
    def test_merges_constraints(self, weighted, fig7):
        merged = merged_policy(weighted, [fig7["c4"], fig7["c3"]])
        assert merged({"x": 1}) == 8.0  # (1+5) + 2·1

    def test_empty_is_one(self, weighted):
        merged = merged_policy(weighted, [])
        assert merged({}) == weighted.one


class TestTraceLevelsOnDemand:
    def test_only_checked_and_final_stores_are_solved(
        self, weighted, monkeypatch
    ):
        from repro.constraints import (
            FactoredStore,
            clear_store_caches,
            empty_store,
        )

        clear_store_caches()
        solved = []
        solve = FactoredStore._solve_consistency

        def counting(store):
            solved.append(store.digest)
            return solve(store)

        monkeypatch.setattr(FactoredStore, "_solve_consistency", counting)
        x = integer_variable("x", 6)
        first = FunctionConstraint(weighted, (x,), lambda v: 2.0 * v + 1.0)
        second = FunctionConstraint(weighted, (x,), lambda v: 9.0 - v)
        demand = FunctionConstraint(weighted, (x,), lambda v: float(v % 3))
        provider = Party("P", [first, second])
        client = Party(
            "C", [demand], interval(weighted, lower=20.0, upper=0.0)
        )
        outcome = negotiate(
            [provider, client],
            weighted,
            verify_scheduler_independence=False,
            store_backend="factored",
        )
        assert outcome.success and outcome.agreed_level == 10.0

        # The stores after each step, oldest first.
        stores, store = [], empty_store(weighted, backend="factored")
        for constraint in (first, second, demand):
            store = store.tell(constraint)
            stores.append(store)
        # The leftmost scheduler tells both offers unchecked, then the
        # demand under its check; the check runs on every step's
        # candidate ``σ ⊗ demand`` and the last one is the agreed store.
        # The two unchecked intermediate stores are never solved.
        assert stores[-1].digest in solved
        assert not {stores[0].digest, stores[1].digest} & set(solved)
        checked = len(solved)

        assert outcome.trace.consistencies() == [1.0, 10.0, 10.0]
        assert len(solved) == checked + 2
        assert outcome.trace.consistencies() == [
            s.consistency() for s in stores
        ]
        assert len(solved) == checked + 2
        assert outcome.trace.events[-1].agent_after == "success"

        # Events stay immutable: what a set or dict hashed cannot move.
        event = outcome.trace.events[0]
        with pytest.raises(FrozenInstanceError):
            event.index = 7
        assert event in set(outcome.trace.events)
