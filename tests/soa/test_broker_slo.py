"""Broker-side SLO analytics: advertised-level queries, the
unachievable-SLO precheck on composition negotiation, full reports over
the market, the default-off matchmaking penalty, and the registry's
delivered-quality observation ledger."""

import pytest

from repro.dependability.metrics import wilson_lower_bound
from repro.sccp import interval
from repro.semirings import ProbabilisticSemiring
from repro.soa import (
    Broker,
    BrokerConfig,
    BrokerError,
    ClientRequest,
    ExecutionReport,
    MessageBus,
    QoSDocument,
    QoSPolicy,
    RegistryError,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)
from repro.soa.service import InvocationOutcome


def publish(registry, provider, level, operation):
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=QoSDocument(
                service_name=operation,
                provider=provider,
                policies=[
                    QoSPolicy(attribute="reliability", constant=level)
                ],
            ),
        )
    )


@pytest.fixture
def market():
    registry = ServiceRegistry()
    publish(registry, "A", 0.99, "red")
    publish(registry, "B", 0.95, "red")
    publish(registry, "C", 0.90, "bw")
    publish(registry, "D", 0.98, "bw")
    return registry


class TestAdvertisedLevels:
    def test_every_published_offer_surfaces(self, market):
        levels = Broker(market).advertised_levels("reliability")
        assert levels == {
            "red-A": pytest.approx(0.99),
            "red-B": pytest.approx(0.95),
            "bw-C": pytest.approx(0.90),
            "bw-D": pytest.approx(0.98),
        }

    def test_operation_filter(self, market):
        levels = Broker(market).advertised_levels(
            "reliability", operation="red"
        )
        assert set(levels) == {"red-A", "red-B"}


class TestCompositionPrecheck:
    def test_achievable_target_negotiates_normally(self, market):
        broker = Broker(market)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", slo_target=0.95
        )
        assert sla is not None
        assert sla.service_ids == ("red-A", "bw-D")
        assert "slo" not in diagnostics

    def test_unachievable_target_rejected_before_solving(self, market):
        bus = MessageBus()
        broker = Broker(market, bus=bus)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", slo_target=0.999
        )
        assert sla is None and plan is None
        assert diagnostics["blevel"] is None
        assert diagnostics["evaluations"] == 0  # the solve was skipped
        verdict = diagnostics["slo"]
        assert verdict["achievable"] is False
        # Even the best pair only reaches 0.99 × 0.98.
        assert verdict["bound"] == pytest.approx(0.99 * 0.98)
        assert verdict["remediations"], "rejection must be actionable"
        assert all(
            r["detail"] for r in verdict["remediations"]
        )
        assert "composition-slo-reject" in bus.journal_kinds()

    def test_redundant_choose_mode_threads_through(self, market):
        broker = Broker(market)
        # worst-case folding of a single-slot plan is just the best
        # offer; the precheck target sits between the two readings.
        sla, _, diagnostics = broker.negotiate_composition(
            "client",
            ["red", "bw"],
            "reliability",
            slo_target=0.999,
            slo_choose="redundant",
        )
        assert sla is None
        assert diagnostics["slo"]["choose"] == "redundant"

    def test_no_target_means_no_precheck(self, market):
        sla, plan, diagnostics = Broker(market).negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        assert sla is not None
        assert "slo" not in diagnostics


class TestSloReport:
    def test_report_over_published_offers(self, market):
        broker = Broker(market)
        _, plan, _ = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        report = broker.slo_report(
            plan, 0.9, attribute="reliability", use_observations=False
        )
        assert report.achievable
        assert report.verdict.bound == pytest.approx(0.99 * 0.98)

    def test_observation_ledger_discounts_published(self, market):
        market.record_observations("red-A", attempts=200, failures=40)
        broker = Broker(market)
        _, plan, _ = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        report = broker.slo_report(plan, 0.9, attribute="reliability")
        by_id = {lv.service_id: lv for lv in report.levels}
        lower = wilson_lower_bound(160, 200)
        assert by_id["red-A"].informative
        assert by_id["red-A"].effective == pytest.approx(
            min(lower, 0.99) * 0.9
        )
        assert not by_id["bw-D"].informative
        assert not report.achievable  # evidence says A is much worse

    def test_unknown_service_in_plan_raises(self, market):
        from repro.soa import pipeline

        with pytest.raises(Exception):
            Broker(market).slo_report(pipeline("ghost"), 0.9)


class TestSloPenalty:
    def request(self, floor=0.9):
        semiring = ProbabilisticSemiring()
        return ClientRequest(
            client="C",
            operation="red",
            attribute="reliability",
            acceptance=interval(semiring, lower=floor, upper=1.0),
        )

    def test_invalid_penalty_rejected(self, market):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(BrokerError, match="slo_penalty"):
                Broker(market, BrokerConfig(slo_penalty=bad))

    def test_default_off_is_bit_identical(self, market):
        plain = Broker(market).negotiate(self.request())
        assert plain.success
        # The seam exists but defaults off: same winner, same level,
        # same evaluation order and values.
        again = Broker(market, BrokerConfig(
            slo_penalty=None,
        )).negotiate(self.request())
        assert again.sla.providers == plain.sla.providers
        assert again.sla.agreed_level == plain.sla.agreed_level
        assert [
            (e.provider, e.blevel) for e in again.evaluations
        ] == [(e.provider, e.blevel) for e in plain.evaluations]

    def test_penalty_on_keeps_the_unflagged_best(self, market):
        # Floor 0.9 → budget 0.1.  red-B spends (1-0.95)/0.1 = 50% of
        # the budget and is set aside; red-A (10%) survives and wins.
        result = Broker(market, BrokerConfig(slo_penalty=0.3)).negotiate(
            self.request(floor=0.9)
        )
        assert result.success
        assert result.sla.providers == ("A",)

    def test_all_flagged_falls_back_to_full_pool(self, market):
        # Floor 0.989 → even red-A spends ~91% of the budget; with every
        # candidate flagged the penalty must not turn acceptance into
        # rejection.
        result = Broker(market, BrokerConfig(slo_penalty=0.3)).negotiate(
            self.request(floor=0.989)
        )
        assert result.success
        assert result.sla.providers == ("A",)

    def test_non_probability_requests_skip_the_penalty(self, market):
        # No acceptance floor → no budget target → plain scan.
        request = ClientRequest(
            client="C", operation="red", attribute="reliability"
        )
        result = Broker(market, BrokerConfig(
            slo_penalty=0.3,
        )).negotiate(request)
        assert result.success
        assert result.sla.providers == ("A",)


class TestObservationLedger:
    def test_record_outcome_counts(self, market):
        market.record_outcome("red-A", True)
        market.record_outcome("red-A", False)
        window = market.observation_window("red-A")
        assert (window.attempts, window.failures) == (2, 1)

    def test_record_observations_validates(self, market):
        with pytest.raises(RegistryError):
            market.record_observations("red-A", attempts=2, failures=3)
        with pytest.raises(RegistryError):
            market.record_observations("red-A", attempts=-1, failures=0)

    def test_ingest_report_folds_outcomes(self, market):
        report = ExecutionReport(
            tick=0,
            success=False,
            latency_ms=1.0,
            outcomes=[
                InvocationOutcome("red-A", True, 1.0),
                InvocationOutcome("bw-C", False, 1.0),
            ],
        )
        assert market.ingest_report(report) == 2
        assert market.observation_window("bw-C").failures == 1
        assert market.observation_windows().keys() == {"red-A", "bw-C"}

    def test_unknown_service_reads_empty_window(self, market):
        window = market.observation_window("ghost")
        assert (window.attempts, window.failures) == (0, 0)

    def test_ledger_survives_unpublication(self, market):
        market.record_outcome("red-A", False)
        market.unpublish("red-A")
        assert market.observation_window("red-A").attempts == 1
