"""Shared runtime fixtures: a tiny market and matching requests."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Polynomial,
    integer_variable,
    polynomial_constraint,
)
from repro.semirings import WeightedSemiring
from repro.soa import (
    Broker,
    ClientRequest,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)


def publish_cost_provider(
    registry, provider, base, slope=1.0, operation="filter"
):
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
                        variables={"x": range(0, 11)},
                        polynomial=Polynomial.linear({"x": slope}, base),
                    )
                ],
            ),
        )
    )


@pytest.fixture
def market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


@pytest.fixture
def broker(market):
    return Broker(market)


@pytest.fixture
def make_request():
    weighted = WeightedSemiring()
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 2})
    )

    def factory(client="C"):
        return ClientRequest(
            client=client,
            operation="filter",
            attribute="cost",
            requirements=[requirement],
        )

    return factory
