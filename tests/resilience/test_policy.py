"""Policy composition, fleet sharing, and whole-layer determinism."""

from repro.fleet import FleetConfig, FleetFrontend
from repro.resilience import (
    NO_RESILIENCE,
    BreakerConfig,
    BreakerRegistry,
    BulkheadConfig,
    DeadLetterQueue,
    DLQConfig,
    HealthConfig,
    ResilienceConfig,
    build_resilience,
)
from repro.runtime import RuntimeConfig, RuntimeServer
from repro.soa import (
    BernoulliCrash,
    Broker,
    FaultInjector,
    RandomDelay,
    ServiceRegistry,
)

from .conftest import agreement_fingerprint, publish_cost_provider

#: Everything enabled, nothing ever triggering: breaker thresholds and
#: health flap counts out of reach, bulkheads effectively uncapped.  The
#: layer is live but must be *observationally idle* — the determinism
#: acceptance criterion.
IDLE_EVERYTHING = ResilienceConfig(
    breaker=BreakerConfig(failure_threshold=10**9),
    bulkhead=BulkheadConfig(default_limit=10**6),
    health=HealthConfig(interval_s=60.0, unhealthy_after=10**6),
    dlq=DLQConfig(),
)


def make_market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


def noisy_injector():
    injector = FaultInjector(seed=0)
    for provider in ("P1", "P2", "P3"):
        injector.attach(f"filter-{provider}", BernoulliCrash(0.3))
        injector.attach(f"filter-{provider}", RandomDelay(0.5, 2.0))
    return injector


class TestConfig:
    def test_the_default_is_everything_off(self):
        assert not NO_RESILIENCE.any_enabled
        assert ResilienceConfig(dlq=DLQConfig()).any_enabled

    def test_all_defaults_turns_everything_on(self):
        config = ResilienceConfig.all_defaults()
        assert config.any_enabled
        assert None not in (
            config.breaker,
            config.bulkhead,
            config.health,
            config.dlq,
        )


class TestBuild:
    def test_disabled_config_builds_an_inert_policy(self, market):
        policy = build_resilience(None, market)
        assert policy.breakers is None
        assert policy.bulkhead is None
        assert policy.health is None
        assert policy.dlq is None
        assert market._gates == []
        assert policy.snapshot() == {}

    def test_only_requested_patterns_are_built(self, market):
        policy = build_resilience(
            ResilienceConfig(dlq=DLQConfig()), market
        )
        assert policy.dlq is not None
        assert policy.breakers is None
        assert market._gates == []  # no breaker, no gate

    def test_breaker_gate_attaches_and_detaches(self, market):
        policy = build_resilience(
            ResilienceConfig(breaker=BreakerConfig()), market
        )
        assert len(market._gates) == 1
        policy.detach()
        assert market._gates == []

    def test_shared_instances_are_adopted(self, market):
        breakers = BreakerRegistry(BreakerConfig())
        dlq = DeadLetterQueue()
        policy = build_resilience(
            ResilienceConfig(breaker=BreakerConfig(), dlq=DLQConfig()),
            market,
            shared_breakers=breakers,
            shared_dlq=dlq,
        )
        assert policy.breakers is breakers
        assert policy.dlq is dlq

    def test_snapshot_reports_every_live_pattern(self, market):
        policy = build_resilience(
            ResilienceConfig.all_defaults(), market, seed=0
        )
        snapshot = policy.snapshot()
        assert snapshot["breakers"] == {}
        assert snapshot["bulkhead_rejections"] == {}
        assert snapshot["health_sweeps"] == 0
        assert snapshot["dlq"]["depth"] == 0


class TestFleetSharing:
    def test_breakers_health_and_dlq_are_fleet_global(self, make_request):
        market = make_market()
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3,
                workers_per_shard=1,
                seed=0,
                resilience=ResilienceConfig.all_defaults(),
            ),
        )
        for shard in frontend.shards.values():
            policy = shard.server.resilience
            assert policy.breakers is frontend.breakers
            assert policy.dlq is frontend.dlq
            # The fleet owns the single probe loop; shards get none.
            assert policy.health is None
            # Per-shard state stays private.
            assert policy.bulkhead is not None
        assert frontend.health is not None
        # One shared breaker registry ⇒ exactly one gate, not three.
        assert len(market._gates) == 1
        results = frontend.run([make_request(f"C{i}") for i in range(6)])
        assert all(r.status.value == "completed" for r in results)
        snapshot = frontend.resilience_snapshot()
        assert snapshot["enabled"]
        assert snapshot["quarantined"] == []
        assert set(snapshot["per_shard"]) == set(frontend.shards)


class TestWholeLayerDeterminism:
    def test_idle_resilience_is_bit_identical_to_disabled(
        self, make_request
    ):
        """Acceptance criterion: a fixed master seed yields bit-identical
        agreements with the resilience layer enabled and disabled, as
        long as no breaker trips and no bulkhead turns a session away —
        here enforced by unreachable thresholds while faults keep every
        session's RNG busy."""
        requests = [make_request(f"C{i}") for i in range(10)]

        def run(resilience):
            server = RuntimeServer(
                Broker(make_market()),
                RuntimeConfig(
                    workers=3, seed=11, deadline_s=10.0,
                    probe_interval_s=0.0,
                ),
                injector=noisy_injector(),
                resilience=resilience,
            )
            results = server.run(requests)
            return {
                r.request.client: agreement_fingerprint(r) for r in results
            }

        assert run(IDLE_EVERYTHING) == run(None)
