"""Graceful degradation: retries exhausted ⇒ last-known SLA served."""

import random
from dataclasses import replace

from repro.runtime import (
    RetryPolicy,
    RuntimeConfig,
    RuntimeServer,
    SessionStatus,
)
from repro.resilience import DLQConfig, ResilienceConfig
from repro.runtime.server import _Session
from repro.soa import BernoulliCrash, Broker, BurstOutage, FaultInjector
from repro.telemetry import telemetry_session

from .conftest import publish_cost_provider

ALL_SERVICES = ("filter-P1", "filter-P2", "filter-P3")


def always_down_injector():
    injector = FaultInjector(seed=0)
    for sid in ALL_SERVICES:
        injector.attach(sid, BurstOutage(start=0, length=10_000))
    return injector


def clean_slas(broker, make_request, clients):
    """Each client's SLA from a fault-free session."""
    results = RuntimeServer(broker, RuntimeConfig(seed=1)).run(
        [make_request(client=client) for client in clients]
    )
    assert all(r.status is SessionStatus.COMPLETED for r in results)
    return [r.sla for r in results]


class TestDegradation:
    def test_faulted_provider_degrades_to_last_known_sla(
        self, broker, make_request
    ):
        (clean,) = clean_slas(broker, make_request, ["C"])
        config = RuntimeConfig(
            workers=1,
            seed=3,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        )
        server = RuntimeServer(
            broker, config, injector=always_down_injector()
        )
        (result,) = server.run([make_request(client="C")])
        assert result.status is SessionStatus.DEGRADED
        assert result.ok and result.degraded
        assert result.attempts == 3
        assert result.retries == 2
        # The served SLA is the client's last-known one from the broker's
        # repository: the clean session's, not one a faulted attempt
        # signed (each of those is terminated).
        assert result.sla is clean
        assert "serving last-known SLA" in result.detail
        slas = broker.slas.for_client("C")
        assert len(slas) == 4
        assert [sla.active for sla in slas] == [True, False, False, False]

    def test_every_attempt_failing_fails_a_first_time_client(
        self, broker, make_request
    ):
        injector = FaultInjector(seed=0)
        for sid in ALL_SERVICES:
            injector.attach(sid, BernoulliCrash(1.0))
        config = RuntimeConfig(
            workers=1,
            seed=3,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.001),
        )
        server = RuntimeServer(
            broker,
            config,
            injector=injector,
            resilience=ResilienceConfig(dlq=DLQConfig()),
        )
        (result,) = server.run([make_request(client="C")])
        assert result.status is SessionStatus.FAILED
        assert result.sla is None and result.attempts == 3
        assert "no known SLA" in result.detail
        assert [letter.status for letter in server.resilience.dlq] == ["failed"]
        slas = broker.slas.for_client("C")
        assert len(slas) == 3
        assert not any(sla.active for sla in slas)
        assert broker.slas.active() == []

    def test_degrades_only_to_slas_signed_before_admission(
        self, broker, make_request
    ):
        # Ticks 1 onward are down: each run's second session faults on
        # every attempt, after its first has signed a clean SLA.
        injector = FaultInjector(seed=0)
        for sid in ALL_SERVICES:
            injector.attach(sid, BurstOutage(start=1, length=10_000))
        config = RuntimeConfig(
            workers=1,
            seed=3,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
        )
        requests = [make_request(client="C")] * 2
        first = RuntimeServer(broker, config, injector=injector).run(requests)
        # The first session's SLA was signed after the second's
        # admission, so it is not the second's to degrade to.
        assert [r.status for r in first] == [
            SessionStatus.COMPLETED,
            SessionStatus.FAILED,
        ]
        second = RuntimeServer(broker, config, injector=injector).run(requests)
        assert [r.status for r in second] == [
            SessionStatus.COMPLETED,
            SessionStatus.DEGRADED,
        ]
        assert second[1].sla is first[0].sla

    def test_degrades_only_to_an_sla_of_its_operation(
        self, market, make_request
    ):
        for provider, base in (("P1", 5.0), ("P2", 3.0), ("P3", 8.0)):
            publish_cost_provider(market, provider, base, operation="sort")
        broker = Broker(market)
        clean_slas(broker, make_request, ["C"])  # a clean ``filter`` SLA
        injector = FaultInjector(seed=0)
        for provider in ("P1", "P2", "P3"):
            injector.attach(
                f"sort-{provider}", BurstOutage(start=0, length=10_000)
            )
        server = RuntimeServer(
            broker,
            RuntimeConfig(
                workers=1,
                seed=3,
                retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
            ),
            injector=injector,
        )
        (result,) = server.run(
            [replace(make_request(client="C"), operation="sort")]
        )
        assert result.status is SessionStatus.FAILED
        assert "no known SLA" in result.detail

    def test_degradation_increments_counter_and_emits_event(
        self, broker, make_request
    ):
        clean_slas(broker, make_request, ["c0", "c1", "c2"])
        config = RuntimeConfig(
            workers=1,
            seed=3,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
        )
        with telemetry_session() as session:
            server = RuntimeServer(
                broker, config, injector=always_down_injector()
            )
            results = server.run(
                [make_request(client=f"c{i}") for i in range(3)]
            )
        assert all(r.status is SessionStatus.DEGRADED for r in results)
        counter = session.registry.get("runtime_degraded_total")
        assert counter is not None and counter.value == 3
        events = session.events.of_kind("runtime.degraded")
        assert len(events) == 3
        assert {e["client"] for e in events} == {"c0", "c1", "c2"}
        assert all(e["sla_id"] is not None for e in events)
        # the outcome-labelled session counter agrees
        sessions_total = session.registry.get("runtime_sessions_total")
        by_outcome = {
            s["labels"]["outcome"]: s["value"]
            for s in sessions_total.samples()
        }
        assert by_outcome["degraded"] == 3
        assert by_outcome["completed"] == 0

    def test_nothing_to_degrade_to_fails(self, broker, make_request):
        """A client with no usable SLA on file ends FAILED, not DEGRADED."""
        server = RuntimeServer(broker, RuntimeConfig(seed=1))
        session = _Session(
            index=0,
            request=make_request(client="stranger"),
            future=None,
            rng=random.Random(0),
            submitted_at=0.0,
            deadline_s=None,
        )
        result = server._degrade(session, attempts=3, last_error="outage")
        assert result.status is SessionStatus.FAILED
        assert result.sla is None
        assert not result.ok
        assert "no known SLA" in result.detail

    def test_degradation_ignores_other_attributes(self, broker, make_request):
        """Last-known lookup must match the requested attribute."""
        # Seed an SLA for client C (attribute "cost") the normal way.
        (first,) = RuntimeServer(
            broker, RuntimeConfig(seed=1)
        ).run([make_request(client="C")])
        assert first.status is SessionStatus.COMPLETED

        server = RuntimeServer(broker, RuntimeConfig(seed=1))
        request = make_request(client="C")
        mismatched = type(request)(
            client="C",
            operation=request.operation,
            attribute="reliability",
            requirements=request.requirements,
        )
        session = _Session(
            index=1,
            request=mismatched,
            future=None,
            rng=random.Random(0),
            submitted_at=0.0,
            deadline_s=None,
        )
        result = server._degrade(session, attempts=2, last_error="outage")
        assert result.status is SessionStatus.FAILED
