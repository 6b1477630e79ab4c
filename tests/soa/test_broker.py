"""The broker-orchestrator: selection, acceptance, composition, SLAs."""

import gc
import sys
from pathlib import Path

import pytest

from repro.constraints import (
    Polynomial,
    TableConstraint,
    integer_variable,
    polynomial_constraint,
)
from repro.sccp import interval
from repro.semirings import FuzzySemiring, ProbabilisticSemiring, WeightedSemiring
from repro.soa import broker as broker_module
from repro.solver import SCSP, ProblemError, solve_branch_bound
from repro.solver import stacked
from repro.soa import (
    Broker,
    QoSError,
    BrokerError,
    ClientRequest,
    MessageBus,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def publish_cost_provider(registry, provider, base, slope=1.0, operation="filter"):
    document = QoSDocument(
        service_name=operation,
        provider=provider,
        policies=[
            QoSPolicy(
                attribute="cost",
                variables={"x": range(0, 11)},
                polynomial=Polynomial.linear({"x": slope}, base),
            )
        ],
    )
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=document,
        )
    )


def publish_reliability_provider(registry, provider, level, operation):
    document = QoSDocument(
        service_name=operation,
        provider=provider,
        policies=[QoSPolicy(attribute="reliability", constant=level)],
    )
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=document,
        )
    )


@pytest.fixture
def cost_market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


@pytest.fixture
def client_request(weighted):
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 2})
    )
    return ClientRequest(
        client="C",
        operation="filter",
        attribute="cost",
        requirements=[requirement],
        acceptance=interval(weighted, lower=20.0, upper=0.0),
    )


class TestSingleServiceNegotiation:
    def test_best_provider_selected(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert result.success
        assert result.sla.providers == ("P2",)
        assert result.sla.agreed_level == 3.0
        assert result.sla.resource_assignment == {"x": 0}

    def test_all_candidates_evaluated(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert sorted(e.provider for e in result.evaluations) == [
            "P1",
            "P2",
            "P3",
        ]
        by_provider = {e.provider: e.blevel for e in result.evaluations}
        assert by_provider == {"P1": 5.0, "P2": 3.0, "P3": 8.0}

    def test_acceptance_interval_filters(self, cost_market, weighted):
        x = integer_variable("x", 10)
        requirement = polynomial_constraint(
            weighted, [x], Polynomial.linear({"x": 2})
        )
        # accept only stores with consistency in [0, 2] hours: none qualify
        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[requirement],
            acceptance=interval(weighted, lower=2.0, upper=0.0),
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success
        assert result.sla is None
        assert "acceptance" in result.detail

    def test_no_provider_for_operation(self, cost_market, client_request):
        request = ClientRequest(
            client="C", operation="teleport", attribute="cost"
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success
        assert result.evaluations == []

    def test_no_provider_with_attribute(self, cost_market):
        request = ClientRequest(
            client="C", operation="filter", attribute="reliability"
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success

    def test_sla_recorded_in_repository(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert len(broker.slas) == 1
        assert broker.slas.for_client("C") == [result.sla]
        assert broker.slas.for_provider("P2") == [result.sla]

    def test_nmsccp_confirmation(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(
            client_request, verify_scheduler_independence=True
        )
        assert result.outcome is not None
        assert result.outcome.success
        assert result.outcome.scheduler_independent

    def test_bus_journal_records_protocol(self, cost_market, client_request):
        bus = MessageBus()
        broker = Broker(cost_market, bus=bus)
        broker.negotiate(client_request)
        kinds = bus.journal_kinds()
        assert "negotiate-request" in kinds
        assert "registry-query" in kinds
        assert "sla-created" in kinds

    def test_chosen_points_at_winning_evaluation(
        self, cost_market, client_request
    ):
        result = Broker(cost_market).negotiate(client_request)
        assert result.chosen is not None
        assert result.chosen.provider == "P2"

    def test_requirementless_request_uses_attribute_semiring(
        self, cost_market
    ):
        request = ClientRequest(
            client="C", operation="filter", attribute="cost"
        )
        assert isinstance(request.resolved_semiring(), WeightedSemiring)


def agreement(result):
    """What a session decided, without its tick."""
    sla = result.sla
    return (
        result.success,
        [
            (e.description.service_id, repr(e.blevel), e.accepted,
             e.best_assignment)
            for e in result.evaluations
        ],
        None if sla is None else (
            sla.service_ids, repr(sla.agreed_level), sla.resource_assignment
        ),
    )


class TestMarketPlan:
    """Step 3 reads a plan compiled once per registry version; after any
    change to the market a session agrees exactly as a fresh broker's."""

    def assert_fresh(self, broker, request):
        fresh = Broker(broker.registry).negotiate(request)
        assert agreement(broker.negotiate(request)) == agreement(fresh)

    def test_republished_document_gets_its_own_constraints(self, weighted):
        # Once a document is unpublished and collected, a new one can be
        # allocated at its address; the broker must still compile it.
        x = integer_variable("x", 10)
        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[
                polynomial_constraint(weighted, [x], Polynomial.linear({"x": 2}))
            ],
        )
        registry = ServiceRegistry()
        broker = Broker(registry)
        stale = []
        for index in range(200):
            publish_cost_provider(registry, "s1", base=float(index))
            result = broker.negotiate(request)
            if result.sla.agreed_level != float(index):
                stale.append(index)
            registry.unpublish("filter-s1")
            gc.collect()
        assert stale == []

    def test_unpublish(self, cost_market, client_request):
        broker = Broker(cost_market)
        assert broker.negotiate(client_request).chosen.provider == "P2"
        cost_market.unpublish("filter-P2")
        result = broker.negotiate(client_request)
        assert [e.provider for e in result.evaluations] == ["P1", "P3"]
        assert result.chosen.provider == "P1"
        self.assert_fresh(broker, client_request)

    def test_lease_expiry(self, client_request):
        now = [0.0]
        registry = ServiceRegistry(clock=lambda: now[0])
        publish_cost_provider(registry, "P1", base=5.0)
        description = registry.unpublish("filter-P1")
        registry.publish(description, lease_s=10.0)
        publish_cost_provider(registry, "P3", base=8.0)
        broker = Broker(registry)
        assert broker.negotiate(client_request).chosen.provider == "P1"
        now[0] = 11.0
        result = broker.negotiate(client_request)
        assert [e.provider for e in result.evaluations] == ["P3"]
        self.assert_fresh(broker, client_request)

    def test_new_provider_mid_stream(self, cost_market, client_request):
        broker = Broker(cost_market)
        assert broker.negotiate(client_request).chosen.provider == "P2"
        publish_cost_provider(cost_market, "P0", base=1.0)
        result = broker.negotiate(client_request)
        assert len(result.evaluations) == 4
        assert result.chosen.provider == "P0"
        self.assert_fresh(broker, client_request)

    def test_quarantine_and_gates_change_only_the_mask(
        self, cost_market, client_request
    ):
        broker = Broker(cost_market)
        broker.negotiate(client_request)
        version = cost_market.version
        plan = broker._market("filter", "cost", WeightedSemiring())
        cost_market.quarantine("P2")
        result = broker.negotiate(client_request)
        assert [e.provider for e in result.evaluations] == ["P1", "P3"]
        self.assert_fresh(broker, client_request)

        def gate(description):
            return description.provider != "P1"

        cost_market.add_gate(gate)
        result = broker.negotiate(client_request)
        assert [e.provider for e in result.evaluations] == ["P3"]
        self.assert_fresh(broker, client_request)
        cost_market.remove_gate(gate)
        cost_market.reinstate("P2")
        assert broker.negotiate(client_request).chosen.provider == "P2"
        assert cost_market.version == version
        assert broker._market("filter", "cost", WeightedSemiring()) is plan

    def test_requirement_domain_clash_raises(self, cost_market, weighted):
        narrow = integer_variable("x", 5)
        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[
                polynomial_constraint(
                    weighted, [narrow], Polynomial.linear({"x": 1})
                )
            ],
        )
        with pytest.raises(QoSError, match="'x' declared with two domains"):
            Broker(cost_market).negotiate(request)
        # A clash with a quarantined provider only is no clash.
        registry = ServiceRegistry()
        publish_cost_provider(registry, "P1", base=5.0)
        registry.quarantine("P1")
        assert not Broker(registry).negotiate(request).evaluations

    def test_malformed_offer_fails_only_sessions_admitting_it(
        self, cost_market, client_request
    ):
        document = QoSDocument(
            service_name="filter",
            provider="P9",
            policies=[
                QoSPolicy("cost", variables={"x": range(0, 11)}, constant=1.0),
                QoSPolicy("cost", variables={"x": range(0, 3)}, constant=1.0),
            ],
        )
        cost_market.publish(
            ServiceDescription(
                service_id="filter-P9",
                name="filter",
                provider="P9",
                interface=ServiceInterface(operation="filter"),
                qos=document,
            )
        )
        broker = Broker(cost_market)
        for _ in range(2):
            with pytest.raises(QoSError, match="two domains"):
                broker.negotiate(client_request)
        cost_market.quarantine("P9")
        assert broker.negotiate(client_request).chosen.provider == "P2"

    def test_requirements_in_another_semiring_raise(self):
        registry = ServiceRegistry()
        publish_reliability_provider(registry, "A", 0.9, "red")
        x = integer_variable("x", 2)
        request = ClientRequest(
            client="C",
            operation="red",
            attribute="reliability",
            requirements=[
                TableConstraint(ProbabilisticSemiring(), [x], {(0,): 0.5})
            ],
            semiring=FuzzySemiring(),
        )
        with pytest.raises(ProblemError, match="share one semiring"):
            Broker(registry).negotiate(request)

    def test_requirement_over_a_variable_no_offer_names(
        self, cost_market, weighted
    ):
        y = integer_variable("y", 3)
        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[
                polynomial_constraint(
                    weighted, [y], Polynomial.linear({"y": -1}, 4.0)
                )
            ],
        )
        broker = Broker(cost_market)
        result = broker.negotiate(request)
        for evaluation in result.evaluations:
            offer = broker._market("filter", "cost", weighted).offer(
                evaluation.description
            )
            oracle = solve_branch_bound(SCSP(request.requirements + list(offer)))
            assert repr(evaluation.blevel) == repr(oracle.blevel)
            assert evaluation.best_assignment == oracle.best_assignment
        assert result.chosen.provider == "P2"
        assert result.sla.resource_assignment == {"x": 0, "y": 3}
        self.assert_fresh(broker, request)

    def test_over_bound_group_is_one_solve_per_session(self, monkeypatch):
        # chain-market: four offers over six variables, 6**6 joint
        # entries, over the stacked scan's bound: one group search.
        sys.path.insert(0, str(E2E))
        try:
            import workloads
        finally:
            sys.path.remove(str(E2E))
        inputs = workloads.Inputs(workloads.WORKLOADS["chain-market"], 1, 0)
        requests = [inputs.request(index)[1] for index in range(24)]
        calls = []
        original = broker_module.solve

        def counting(work, *args, **kwargs):
            calls.append(type(work).__name__)
            return original(work, *args, **kwargs)

        monkeypatch.setattr(broker_module, "solve", counting)
        broker = Broker(inputs.registry())
        searched = []
        for request in requests:
            calls.clear()
            result = broker.negotiate(request)
            assert calls == ["GroupSearch"]
            assert len(result.evaluations) == 4
            searched.append(agreement(result))
        monkeypatch.setattr(stacked.OfferGroup, "work", lambda *args: None)
        broker = Broker(inputs.registry())
        for request, expected in zip(requests, searched):
            calls.clear()
            assert agreement(broker.negotiate(request)) == expected
            assert calls == ["SCSP"] * 4


class TestCompositionNegotiation:
    @pytest.fixture
    def pipeline_market(self):
        registry = ServiceRegistry()
        publish_reliability_provider(registry, "A", 0.99, "red")
        publish_reliability_provider(registry, "B", 0.95, "red")
        publish_reliability_provider(registry, "C", 0.90, "bw")
        publish_reliability_provider(registry, "D", 0.98, "bw")
        return registry

    def test_best_pipeline_selected(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        assert sla.service_ids == ("red-A", "bw-D")
        assert sla.agreed_level == pytest.approx(0.99 * 0.98)
        assert plan.services() == ["red-A", "bw-D"]

    def test_minimum_level_rejects(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", minimum_level=0.999
        )
        assert sla is None and plan is None
        assert diagnostics["blevel"] < 0.999

    def test_missing_slot_provider(self, pipeline_market):
        broker = Broker(pipeline_market)
        with pytest.raises(BrokerError, match="no provider for slot"):
            broker.negotiate_composition(
                "client", ["red", "teleport"], "reliability"
            )

    def test_unknown_pattern(self, pipeline_market):
        broker = Broker(pipeline_market)
        with pytest.raises(BrokerError, match="unknown composition"):
            broker.negotiate_composition(
                "client", ["red"], "reliability", pattern="mesh"
            )

    def test_diagnostics_reports_offer_levels(self, pipeline_market):
        broker = Broker(pipeline_market)
        _, _, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        assert diagnostics["offer_levels"]["red-A"] == pytest.approx(0.99)
        assert diagnostics["evaluations"] >= 1

    def test_choose_pattern_worst_case(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, _ = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", pattern="choose"
        )
        # worst-case of the two chosen branches is maximized:
        # best pairing is (A: 0.99, D: 0.98) → min = 0.98
        assert sla.agreed_level == pytest.approx(0.98)
