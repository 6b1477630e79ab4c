"""Allocation rounds: greedy bit-identity, fair max-min, round metadata.

A round's contract has two halves.  ``greedy`` must be invisible:
agreements served through :meth:`Broker.negotiate_round` are bit-identical
to sequential :meth:`Broker.negotiate` calls — same providers, same agreed
levels, same service ids — with only the :class:`AllocationInfo`
annotation added.  ``fair`` must actually buy fairness: on a contention
market where every client's individually-best choice is the same
provider, the joint lexicographic solve spreads sessions so Jain's index
and the worst-off client's realized satisfaction both beat greedy.
"""

import pytest

from repro.constraints import TableConstraint, integer_variable
from repro.runtime import (
    contention_request_factory,
    jain_index,
    synthesize_contention_market,
)
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
from repro.soa import (
    AllocationError,
    AllocationInfo,
    Broker,
    BrokerConfig,
    ClientRequest,
    FairAllocation,
    MessageBus,
    satisfaction_score,
)
from repro.sccp.check import CheckSpec
from repro.telemetry import telemetry_session

from .allocation_oracle import ScspFairAllocation

CLIENTS = 12


@pytest.fixture
def contention_market():
    """Three providers at 0.9 / 0.8 / 0.7 constant fuzzy reliability."""
    return synthesize_contention_market(providers=3)


@pytest.fixture
def contention_requests():
    factory = contention_request_factory()
    return [factory(f"c{i}", i) for i in range(CLIENTS)]


def realized(results):
    return [r.allocation.realized_satisfaction for r in results]


# ----------------------------------------------------------------------
# satisfaction_score: the [0,1] bridge between semiring levels and Jain
# ----------------------------------------------------------------------


class TestSatisfactionScore:
    def test_boolean_endpoints(self):
        boolean = BooleanSemiring()
        assert satisfaction_score(boolean, True) == 1.0
        assert satisfaction_score(boolean, False) == 0.0

    def test_weighted_costs(self):
        weighted = WeightedSemiring()
        assert satisfaction_score(weighted, 0.0) == 1.0
        assert satisfaction_score(weighted, 1.0) == 0.5
        assert satisfaction_score(weighted, float("inf")) == 0.0

    def test_bounded_weighted_normalizes_by_cap(self):
        bounded = BoundedWeightedSemiring(cap=10.0)
        assert satisfaction_score(bounded, 0.0) == 1.0
        assert satisfaction_score(bounded, 5.0) == 0.5
        assert satisfaction_score(bounded, 10.0) == 0.0

    def test_fuzzy_and_probabilistic_are_identity(self):
        assert satisfaction_score(FuzzySemiring(), 0.7) == 0.7
        assert satisfaction_score(ProbabilisticSemiring(), 0.3) == 0.3

    def test_composites_take_worst_component(self):
        product = ProductSemiring([FuzzySemiring(), WeightedSemiring()])
        assert satisfaction_score(product, (0.9, 1.0)) == 0.5
        lex = LexicographicSemiring(
            [FuzzySemiring(), ProbabilisticSemiring()]
        )
        assert satisfaction_score(lex, (0.8, 0.4)) == 0.4

    def test_unknown_semirings_interpret_endpoints_only(self):
        setbased = SetSemiring({"r", "w"})
        assert satisfaction_score(setbased, setbased.zero) == 0.0
        assert satisfaction_score(setbased, setbased.one) == 1.0
        assert satisfaction_score(setbased, frozenset({"r"})) == 0.5

    def test_monotone_in_the_total_order(self):
        weighted = WeightedSemiring()
        levels = [0.0, 0.5, 2.0, 10.0, float("inf")]
        scores = [satisfaction_score(weighted, level) for level in levels]
        assert scores == sorted(scores, reverse=True)


# ----------------------------------------------------------------------
# Policy resolution and configuration
# ----------------------------------------------------------------------


class TestPolicyResolution:
    def test_names_resolve(self, contention_market):
        # Greedy is the absence of a joint step 4; both names open rounds.
        greedy = Broker(
            contention_market, BrokerConfig(allocation_policy="greedy")
        )
        assert greedy.allocation_policy is None
        assert greedy.rounds is not None
        fair = Broker(
            contention_market, BrokerConfig(allocation_policy="fair")
        )
        assert isinstance(fair.allocation_policy, FairAllocation)
        assert fair.rounds is not None
        plain = Broker(contention_market)
        assert plain.allocation_policy is None and plain.rounds is None

    def test_fair_validates_joint_limit(self):
        with pytest.raises(AllocationError, match="joint_limit"):
            FairAllocation(joint_limit=0)


# ----------------------------------------------------------------------
# Greedy: the legacy path behind the seam, bit for bit
# ----------------------------------------------------------------------


class TestGreedyBitIdentity:
    def test_round_matches_sequential_negotiate(
        self, contention_market, contention_requests
    ):
        legacy = Broker(contention_market, name="legacy")
        seamed = Broker(contention_market, name="seamed")
        expected = [
            legacy.negotiate(request) for request in contention_requests
        ]
        actual = seamed.negotiate_round(contention_requests)
        assert len(actual) == len(expected)
        for old, new in zip(expected, actual):
            assert new.success == old.success
            assert new.sla.providers == old.sla.providers
            assert new.sla.agreed_level == old.sla.agreed_level
            assert new.sla.service_ids == old.sla.service_ids

    def test_greedy_piles_onto_best_provider(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="greedy",
        ))
        results = broker.negotiate_round(contention_requests)
        assert {r.sla.providers[0] for r in results} == {"P0"}

    def test_annotation_attached(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market)
        results = broker.negotiate_round(
            contention_requests[:4], round_id=7
        )
        for rank, result in enumerate(results):
            info = result.allocation
            assert isinstance(info, AllocationInfo)
            assert info.policy == "greedy"
            assert info.round_id == 7
            assert info.round_size == 4
            assert info.provider == "P0"
            assert info.rank == rank
            assert info.provider_load == 4
            assert info.satisfaction == pytest.approx(0.9)
            assert info.realized_satisfaction == pytest.approx(
                0.9 * 0.9**rank
            )

    def test_plain_negotiate_carries_no_annotation(
        self, contention_market, contention_requests
    ):
        result = Broker(contention_market).negotiate(
            contention_requests[0]
        )
        assert result.allocation is None


# ----------------------------------------------------------------------
# Fair: the joint lexicographic solve actually buys fairness
# ----------------------------------------------------------------------


class TestFairAllocation:
    def test_spreads_load_across_providers(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="fair",
        ))
        results = broker.negotiate_round(contention_requests)
        assert all(r.success for r in results)
        by_provider = {}
        for result in results:
            provider = result.sla.providers[0]
            by_provider[provider] = by_provider.get(provider, 0) + 1
        # All three providers carry load; nobody hoards the round.
        assert set(by_provider) == {"P0", "P1", "P2"}
        assert max(by_provider.values()) <= 5

    def test_beats_greedy_on_jain_and_min(
        self, contention_market, contention_requests
    ):
        greedy = Broker(
            contention_market,
            BrokerConfig(allocation_policy="greedy"),
            name="greedy-broker",
        ).negotiate_round(contention_requests)
        fair = Broker(
            contention_market,
            BrokerConfig(allocation_policy="fair"),
            name="fair-broker",
        ).negotiate_round(contention_requests)
        jain_greedy = jain_index(realized(greedy))
        jain_fair = jain_index(realized(fair))
        assert jain_fair > jain_greedy + 0.05
        assert jain_fair > 0.95
        assert min(realized(fair)) > min(realized(greedy))
        assert min(realized(fair)) >= 0.5

    def test_cohort_splitting_preserves_spread(
        self, contention_market, contention_requests
    ):
        # joint_limit=2 forces six cohorts; carried loads must still
        # steer later cohorts away from saturated providers.
        broker = Broker(contention_market)
        broker.allocation_policy = FairAllocation(joint_limit=2)
        results = broker.negotiate_round(contention_requests)
        assert len(results) == len(contention_requests)
        providers = {r.sla.providers[0] for r in results}
        assert providers == {"P0", "P1", "P2"}
        assert jain_index(realized(results)) > 0.9

    def test_dense_and_scsp_engines_agree(
        self, contention_market, contention_requests
    ):
        # The vectorized plane evaluation and the reference
        # FunctionConstraint-through-solve() formulation optimize the
        # same ⟨worst, welfare⟩ objective — allocations must agree.
        dense_broker = Broker(contention_market, name="dense-broker")
        dense_broker.allocation_policy = FairAllocation()
        dense = dense_broker.negotiate_round(contention_requests)
        scsp_broker = Broker(contention_market, name="scsp-broker")
        scsp_broker.allocation_policy = ScspFairAllocation()
        scsp = scsp_broker.negotiate_round(contention_requests)
        assert sorted(realized(dense)) == pytest.approx(
            sorted(realized(scsp))
        )
        loads = {}
        for result in dense:
            provider = result.sla.providers[0]
            loads[provider] = loads.get(provider, 0) + 1
        scsp_loads = {}
        for result in scsp:
            provider = result.sla.providers[0]
            scsp_loads[provider] = scsp_loads.get(provider, 0) + 1
        assert loads == scsp_loads

    def test_cohort_packer_respects_row_cap(self, contention_market):
        from repro.soa.allocation import MAX_JOINT_ROWS, _Member

        policy = FairAllocation(joint_limit=64)

        def member(width):
            stub = _Member(
                index=0,
                request=None,
                semiring=None,
                evaluations=[],
                accepted=[object()] * width,
            )
            return stub

        cohorts = policy._pack_cohorts([member(64) for _ in range(6)])
        for cohort in cohorts:
            rows = 1
            for m in cohort:
                rows *= len(m.accepted)
            assert rows <= MAX_JOINT_ROWS

    def test_uncontended_sessions_keep_best_provider(
        self, contention_market
    ):
        # A singleton round has no contention: fair == greedy choice.
        factory = contention_request_factory()
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="fair",
        ))
        [result] = broker.negotiate_round([factory("solo", 0)])
        assert result.sla.providers == ("P0",)
        assert result.allocation.realized_satisfaction == pytest.approx(
            0.9
        )

    def test_slas_recorded_like_legacy(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="fair",
        ))
        results = broker.negotiate_round(contention_requests[:6])
        recorded = {sla.sla_id for sla in broker.slas.active()}
        assert {r.sla.sla_id for r in results} <= recorded

    def test_failure_details_match_legacy_path(self, contention_market):
        # A session with no provider and one with no accepted candidate
        # end a fair round exactly as negotiate ends them on a twin
        # broker: same detail, evaluations, bus traffic and outcome
        # counter.
        factory = contention_request_factory()
        requests = [
            ClientRequest(
                client="lost",
                operation="teleport",
                attribute="fuzzy-reliability",
            ),
            ClientRequest(
                client="picky",
                operation="store",
                attribute="fuzzy-reliability",
                acceptance=CheckSpec(FuzzySemiring(), lower=0.95),
            ),
            factory("c0", 0),
        ]

        def serve(config, run):
            bus = MessageBus()
            broker = Broker(contention_market, config, bus=bus)
            with telemetry_session() as session:
                results = run(broker)
            counter = session.registry.get("broker_requests_total")
            outcomes = {
                sample["labels"]["outcome"]: sample["value"]
                for sample in counter.samples()
            }
            return results, bus.journal_kinds(), outcomes

        fair, fair_kinds, fair_outcomes = serve(
            BrokerConfig(allocation_policy="fair"),
            lambda broker: broker.negotiate_round(requests),
        )
        twin, twin_kinds, twin_outcomes = serve(
            BrokerConfig(),
            lambda broker: [broker.negotiate(r) for r in requests],
        )
        assert len(fair) == 3
        for got, expected in zip(fair[:2], twin[:2]):
            assert not got.success
            assert got.detail == expected.detail
            assert got.evaluations == expected.evaluations
            assert got.allocation.policy == "fair"
        assert fair[1].evaluations  # the rejection did evaluate
        assert fair[2].success
        assert fair_kinds == twin_kinds
        assert "negotiate-reject" in fair_kinds
        assert fair_outcomes == twin_outcomes == {
            "no-provider": 1.0,
            "rejected": 1.0,
            "success": 1.0,
        }

    def test_members_open_the_broker_step_spans(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="fair",
        ))
        with telemetry_session() as session:
            results = broker.negotiate_round(contention_requests[:4])
        (root,) = session.tracer.finished
        assert root.name == "broker.allocation-round"
        names = [child.name for child in root.children]
        for step in (
            "broker.step1-request",
            "broker.step2-registry-search",
            "broker.step3-negotiation",
            "broker.step5-sla",
        ):
            assert names.count(step) == len(results)
        signed = [
            child.attributes["sla_id"]
            for child in root.children
            if child.name == "broker.step5-sla"
        ]
        assert signed == [result.sla.sla_id for result in results]

    def test_verified_round_certify_spans_name_their_member(
        self, contention_market
    ):
        # A requirement makes each client a telling party, so its
        # confirmation is certified on the told-prefix grid.
        x = integer_variable("x", 2)
        requests = [
            ClientRequest(
                client=f"c{i}",
                operation="store",
                attribute="fuzzy-reliability",
                requirements=[
                    TableConstraint(
                        FuzzySemiring(), [x], {(0,): 1.0, (1,): 0.5}
                    )
                ],
            )
            for i in range(4)
        ]
        broker = Broker(contention_market, BrokerConfig(
            allocation_policy="fair",
        ))
        with telemetry_session() as session:
            results = broker.negotiate_round(requests, True)
            dump = session.tracer.to_dicts()
        certified = sorted(
            tuple(record["attributes"]["parties"])
            for record in dump
            if record["name"] == "sccp.certify"
        )
        assert all(result.success for result in results)
        assert certified == sorted(
            (*result.sla.providers, result.sla.client) for result in results
        )

    def test_explored_confirmations_name_their_member(self):
        # Bare contention requests carry no requirement: the client party
        # has no tell, so each confirmation runs and explores.
        factory = contention_request_factory()
        requests = [factory(f"c{i}", i) for i in range(10)]
        broker = Broker(
            synthesize_contention_market(),
            BrokerConfig(allocation_policy="fair"),
        )
        with telemetry_session() as session:
            results = broker.negotiate_round(requests, True)
            dump = session.tracer.to_dicts()
        certify = [r for r in dump if r["name"] == "sccp.certify"]
        assert [r["attributes"]["method"] for r in certify] == ["explore"] * 10
        assert sorted(tuple(r["attributes"]["parties"]) for r in certify) == sorted(
            (*result.sla.providers, result.sla.client)
            for result in results
            if result.success
        )
        explored = [r for r in dump if r["name"] in ("sccp.run", "sccp.explore")]
        assert len(explored) == 20
        assert {r["parent"] for r in explored} == {"sccp.certify"}


# ----------------------------------------------------------------------
# Serving one session: plain negotiate, or the broker's round scheduler
# ----------------------------------------------------------------------


class TestServeSession:
    def test_no_policy_is_plain_negotiate(
        self, contention_market, contention_requests
    ):
        broker = Broker(contention_market)
        assert broker.rounds is None
        result = broker.negotiate(contention_requests[0])
        assert result.success
        assert result.allocation is None

    def test_policy_routes_through_rounds(
        self, contention_market, contention_requests
    ):
        import asyncio

        from repro.runtime import BatchConfig

        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=1.0, max_batch=1),
            ),
        )
        result = asyncio.run(
            broker.rounds.negotiate(broker, contention_requests[0])
        )
        assert result.success
        assert result.allocation is not None
        assert result.allocation.policy == "fair"
        assert result.allocation.round_size == 1
