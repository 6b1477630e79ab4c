"""Fleet-level allocation: greedy invisibility and fair spread at scale.

The satellite regression for PR 9: a fleet configured with the
``greedy`` allocation policy must reproduce the policy-free fleet's
agreements *keyed per session* — same provider, agreed level and service
ids for every session key — at any shard count and round shape, because
greedy is defined as the legacy path behind the seam.
:meth:`FleetFrontend.results_by_key` is the shard-count-independent view
that makes the comparison well-defined.  The fair half: with contention,
every shard's rounds spread sessions across providers and the fleet-wide
Jain index clears 0.9.
"""

import pytest

from repro.fleet import FleetConfig, FleetFrontend
from repro.fleet.loadgen import FleetLoadGenerator
from repro.runtime import (
    BatchConfig,
    LoadProfile,
    RuntimeConfig,
    SessionStatus,
    contention_request_factory,
    jain_index,
    synthesize_contention_market,
)
from repro.soa import BrokerConfig

from .conftest import OPERATIONS


def mixed_requests(make_request, count):
    return [
        make_request(
            client=f"c{i % 4}", operation=OPERATIONS[i % len(OPERATIONS)]
        )
        for i in range(count)
    ]


def agreements(frontend):
    """Session-keyed agreement facts, independent of sharding."""
    return {
        key: (
            result.status,
            result.sla.providers if result.sla else None,
            result.sla.agreed_level if result.sla else None,
            result.sla.service_ids if result.sla else None,
        )
        for key, result in frontend.results_by_key().items()
    }


class TestGreedyBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_greedy_fleet_matches_plain_fleet(
        self, market, make_request, shards
    ):
        requests = mixed_requests(make_request, 18)
        plain = FleetFrontend(
            market, FleetConfig(
                shards=shards,
                seed=5,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        baseline = plain.run(requests)
        assert all(
            r.status is SessionStatus.COMPLETED for r in baseline
        )

        seamed = FleetFrontend(
            market,
            FleetConfig(
                shards=shards,
                seed=5,
                broker=BrokerConfig(
                    allocation_policy="greedy",
                    rounds=BatchConfig(window_ms=40.0, max_batch=8),
                ),
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        seamed.run(requests)
        assert agreements(seamed) == agreements(plain)

    def test_greedy_identity_across_shard_counts(self, market, make_request):
        requests = mixed_requests(make_request, 18)
        keyed = []
        for shards in (1, 3):
            frontend = FleetFrontend(
                market,
                FleetConfig(
                    shards=shards,
                    seed=5,
                    broker=BrokerConfig(
                        allocation_policy="greedy",
                        rounds=BatchConfig(window_ms=40.0, max_batch=8),
                    ),
                    runtime=RuntimeConfig(deadline_s=None),
                ),
            )
            frontend.run(requests)
            keyed.append(agreements(frontend))
        assert keyed[0] == keyed[1]

    def test_round_stats_surface_in_cache_stats(self, market, make_request):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2,
                seed=5,
                broker=BrokerConfig(
                    allocation_policy="greedy",
                    rounds=BatchConfig(window_ms=20.0, max_batch=8),
                ),
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        frontend.run(mixed_requests(make_request, 12))
        stats = frontend.cache_stats()
        assert "allocation_rounds" in stats
        rounded = sum(
            shard_stats["sessions_rounded"]
            for shard_stats in stats["allocation_rounds"].values()
        )
        assert rounded == 12


class TestFairFleet:
    def test_fair_fleet_spreads_and_clears_jain(self):
        market = synthesize_contention_market(providers=3)
        factory = contention_request_factory()
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2,
                seed=9,
                workers_per_shard=16,
                broker=BrokerConfig(
                    allocation_policy="fair",
                    rounds=BatchConfig(window_ms=60.0, max_batch=16),
                ),
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        generator = FleetLoadGenerator(
            frontend,
            LoadProfile(clients=24, mode="closed", seed=9),
            factory,
        )
        report = generator.run_sync()
        assert report.fleet.completed == 24
        assert report.fairness is not None
        assert report.fairness["clients"] == 24
        assert report.fairness["jain_index"] > 0.9
        # Both shards actually ran allocation rounds.
        rounds = report.cache["allocation_rounds"]
        assert len(rounds) == 2
        assert all(
            shard_stats["rounds_dispatched"] >= 1
            for shard_stats in rounds.values()
        )

    def test_fair_beats_greedy_fleet_wide(self):
        market = synthesize_contention_market(providers=3)
        factory = contention_request_factory()
        scores = {}
        for policy in ("greedy", "fair"):
            frontend = FleetFrontend(
                market,
                FleetConfig(
                    shards=2,
                    seed=9,
                    workers_per_shard=16,
                    broker=BrokerConfig(
                        allocation_policy=policy,
                        rounds=BatchConfig(window_ms=60.0, max_batch=16),
                    ),
                    runtime=RuntimeConfig(deadline_s=None),
                ),
            )
            generator = FleetLoadGenerator(
                frontend,
                LoadProfile(clients=24, mode="closed", seed=9),
                factory,
            )
            report = generator.run_sync()
            assert report.fairness is not None
            scores[policy] = report.fairness
        assert (
            scores["fair"]["jain_index"]
            > scores["greedy"]["jain_index"]
        )
        assert (
            scores["fair"]["min_satisfaction"]
            > scores["greedy"]["min_satisfaction"]
        )

    def test_jain_index_basics(self):
        assert jain_index([]) == 0.0
        assert jain_index([0.0, 0.0]) == 0.0
        assert jain_index([0.5, 0.5, 0.5]) == pytest.approx(1.0)
        uneven = jain_index([1.0, 0.1, 0.1])
        assert 0.0 < uneven < 0.6
