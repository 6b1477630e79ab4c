"""Broker edge paths: failed confirmations, semiring tie-breaks,
update-style repeated negotiations."""

import sys
import threading

from repro.constraints import Polynomial, integer_variable, polynomial_constraint
from repro.sccp import interval
from repro.soa import (
    Broker,
    ClientRequest,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)


def publish_cost(registry, provider, base, operation="op"):
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
                    QoSPolicy(
                        attribute="cost",
                        variables={"x": range(0, 6)},
                        polynomial=Polynomial.linear({"x": 1.0}, base),
                    )
                ],
            ),
        )
    )


class TestConfirmationPaths:
    def test_failed_confirmation_blocks_sla(self, weighted):
        """The nmsccp confirmation can fail even when the SCSP screen
        passed — here the acceptance's *upper* bound requires the store
        to stay expensive, which the merged store violates."""
        registry = ServiceRegistry()
        publish_cost(registry, "P", base=1.0)
        x = integer_variable("x", 5)
        requirement = polynomial_constraint(
            weighted, [x], Polynomial.linear({"x": 1.0})
        )
        request = ClientRequest(
            client="C",
            operation="op",
            attribute="cost",
            requirements=[requirement],
            # best allowed 3h: merged consistency is 1h — "too good",
            # which only the interval check sees
            acceptance=interval(weighted, lower=10.0, upper=3.0),
        )
        broker = Broker(registry)
        result = broker.negotiate(request, verify_scheduler_independence=True)
        assert not result.success
        assert result.sla is None

    def test_confirmation_outcome_reports_failure_detail(self, weighted):
        registry = ServiceRegistry()
        publish_cost(registry, "P", base=1.0)
        x = integer_variable("x", 5)
        requirement = polynomial_constraint(
            weighted, [x], Polynomial.linear({"x": 1.0})
        )
        request = ClientRequest(
            client="C",
            operation="op",
            attribute="cost",
            requirements=[requirement],
            acceptance=interval(weighted, lower=10.0, upper=3.0),
        )
        result = Broker(registry).negotiate(
            request, verify_scheduler_independence=True
        )
        # the evaluations are still reported for diagnosis
        assert result.evaluations
        assert not result.evaluations[0].accepted


class TestRepeatedNegotiation:
    def test_sla_ids_and_clock_advance(self, weighted):
        registry = ServiceRegistry()
        publish_cost(registry, "P", base=1.0)
        broker = Broker(registry)
        request = ClientRequest(client="C", operation="op", attribute="cost")
        first = broker.negotiate(request)
        second = broker.negotiate(request)
        assert first.success and second.success
        assert second.sla.sla_id > first.sla.sla_id
        assert second.sla.created_at > first.sla.created_at
        assert len(broker.slas) == 2

    def test_concurrent_sessions_sign_their_own_tick(self, weighted):
        registry = ServiceRegistry()
        for provider, base in (("A", 2.0), ("B", 1.0), ("C", 3.0)):
            publish_cost(registry, provider, base=base)
        broker = Broker(registry)
        request = ClientRequest(client="C", operation="op", attribute="cost")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [broker.negotiate(request) for _ in range(50)]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stamps = [sla.created_at for sla in broker.slas]
        assert len(stamps) == 200
        assert sorted(stamps) == list(range(1, 201))

    def test_tie_break_keeps_first_best(self, weighted):
        registry = ServiceRegistry()
        publish_cost(registry, "A", base=2.0)
        publish_cost(registry, "B", base=2.0)  # identical offer
        broker = Broker(registry)
        result = broker.negotiate(
            ClientRequest(client="C", operation="op", attribute="cost")
        )
        assert result.success
        # deterministic: the first candidate in registry order wins ties
        assert result.sla.providers == ("A",)
