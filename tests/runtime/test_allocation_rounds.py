"""Allocation rounds: coalescing sessions so fairness can see contention.

:class:`RoundScheduler` is the batching layer's leader/follower machinery
one level up the stack — it coalesces *sessions* (by operation,
attribute, verify flag) instead of solves, so a window of concurrent
clients reaches the broker's allocation policy as one round.  These tests
drive it with concurrent coroutines on one event loop, check the
cap/window/degenerate shapes, the fan-back and error contracts, and
close with the end-to-end run: a
closed-loop load generation against a fair-policy runtime server must
report a near-1 Jain index on the contention market.
"""

import asyncio

import pytest

from repro.runtime import (
    BatchConfig,
    BatchingError,
    LoadGenerator,
    LoadProfile,
    RoundScheduler,
    RuntimeConfig,
    RuntimeServer,
    SessionStatus,
    contention_request_factory,
    fairness_summary,
    synthesize_contention_market,
)
from repro.soa import Broker, BrokerConfig


@pytest.fixture
def contention_market():
    return synthesize_contention_market(providers=3)


def serve_concurrently(broker, requests):
    """Every session as its own coroutine, as the server's workers would
    await the broker's scheduler."""

    async def serve():
        return await asyncio.gather(
            *(
                broker.rounds.negotiate(broker, request)
                for request in requests
            ),
            return_exceptions=True,
        )

    outcomes = asyncio.run(serve())
    results = [
        None if isinstance(outcome, BaseException) else outcome
        for outcome in outcomes
    ]
    errors = [
        outcome if isinstance(outcome, BaseException) else None
        for outcome in outcomes
    ]
    return results, errors


def requests_for(count):
    factory = contention_request_factory()
    return [factory(f"c{i}", i) for i in range(count)]


class TestCoalescing:
    def test_concurrent_sessions_share_one_round(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=250.0, max_batch=12),
            ),
        )
        results, errors = serve_concurrently(broker, requests_for(12))
        assert errors == [None] * 12
        assert all(r.success for r in results)
        stats = broker.rounds.stats()
        assert stats["rounds_dispatched"] == 1
        assert stats["sessions_rounded"] == 12
        assert stats["largest_round"] == 12
        assert stats["open_groups"] == 0
        # One round means fair saw all the contention at once.
        assert {r.sla.providers[0] for r in results} == {"P0", "P1", "P2"}
        # Fan-back is by submission: every caller got its own client.
        for i, result in enumerate(results):
            assert result.request.client == f"c{i}"

    def test_max_batch_caps_round_size(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=250.0, max_batch=4),
            ),
        )
        results, errors = serve_concurrently(broker, requests_for(12))
        assert errors == [None] * 12
        assert all(r.success for r in results)
        stats = broker.rounds.stats()
        assert stats["sessions_rounded"] == 12
        assert stats["largest_round"] <= 4
        assert stats["rounds_dispatched"] >= 3

    def test_max_batch_one_dispatches_immediately(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=250.0, max_batch=1),
            ),
        )
        results, errors = serve_concurrently(broker, requests_for(4))
        assert errors == [None] * 4
        stats = broker.rounds.stats()
        assert stats["rounds_dispatched"] == 4
        assert stats["largest_round"] == 1
        # Rounds of one see no contention: everyone gets the greedy best.
        assert {r.sla.providers[0] for r in results} == {"P0"}

    def test_lone_session_round_of_one(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=1.0, max_batch=12),
            ),
        )
        (result,), errors = serve_concurrently(broker, requests_for(1))
        assert errors == [None]
        assert result.success
        assert broker.rounds.stats()["rounds_dispatched"] == 1


class _ShortfallBroker:
    """A broker whose policy loses results — the fan-back must not hang."""

    def negotiate_round(self, requests, verify_scheduler_independence=False,
                        round_id=0):
        return []


class _ExplodingBroker:
    def negotiate_round(self, requests, verify_scheduler_independence=False,
                        round_id=0):
        raise RuntimeError("allocator crashed")


class TestErrorContracts:
    def test_shortfall_raises_instead_of_hanging(self):
        scheduler = RoundScheduler(BatchConfig(max_batch=1))
        with pytest.raises(BatchingError, match="fewer results"):
            asyncio.run(
                scheduler.negotiate(_ShortfallBroker(), requests_for(1)[0])
            )

    def test_round_errors_propagate_to_every_caller(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=250.0, max_batch=4),
            ),
        )
        broker.negotiate_round = _ExplodingBroker().negotiate_round
        results, errors = serve_concurrently(broker, requests_for(4))
        assert results == [None] * 4
        assert all(
            isinstance(error, RuntimeError) for error in errors
        )

    def test_scheduler_repr_mentions_rounds(self):
        scheduler = RoundScheduler(BatchConfig(window_ms=5.0, max_batch=8))
        assert "round" in repr(scheduler)


class TestEndToEndFairness:
    def test_closed_loop_run_reports_near_one_jain(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="fair",
                rounds=BatchConfig(window_ms=60.0, max_batch=16),
            ),
        )
        server = RuntimeServer(
            broker, RuntimeConfig(workers=16, seed=7, deadline_s=None)
        )
        generator = LoadGenerator(
            server,
            LoadProfile(clients=12, mode="closed", seed=7),
            contention_request_factory(),
        )
        report = generator.run_sync()
        assert report.completed == 12
        assert report.fairness is not None
        assert report.fairness["clients"] == 12
        assert report.fairness["jain_index"] > 0.9
        assert report.fairness["min_satisfaction"] >= 0.5

    def test_greedy_run_reports_lower_fairness(self, contention_market):
        broker = Broker(
            contention_market,
            BrokerConfig(
                allocation_policy="greedy",
                rounds=BatchConfig(window_ms=60.0, max_batch=16),
            ),
        )
        server = RuntimeServer(
            broker, RuntimeConfig(workers=16, seed=7, deadline_s=None)
        )
        generator = LoadGenerator(
            server,
            LoadProfile(clients=12, mode="closed", seed=7),
            contention_request_factory(),
        )
        report = generator.run_sync()
        assert report.completed == 12
        assert report.fairness is not None
        # Greedy piles up; with every session on one provider the rank
        # discount spreads satisfactions wide and Jain drops.
        assert report.fairness["jain_index"] < 0.95

    def test_plain_server_reports_no_fairness_block(self, contention_market):
        server = RuntimeServer(
            Broker(contention_market),
            RuntimeConfig(workers=4, seed=7, deadline_s=None),
        )
        generator = LoadGenerator(
            server,
            LoadProfile(clients=4, mode="closed", seed=7),
            contention_request_factory(),
        )
        report = generator.run_sync()
        assert report.completed == 4
        assert report.fairness is None
        assert all(
            r.status is SessionStatus.COMPLETED for r in report.results
        )

    def test_fairness_summary_ignores_unannotated_results(
        self, contention_market
    ):
        broker = Broker(contention_market)
        results = [broker.negotiate(r) for r in requests_for(3)]
        assert fairness_summary([]) == {}

        class _Shim:
            def __init__(self, negotiation):
                self.negotiation = negotiation
                self.status = SessionStatus.COMPLETED

        assert fairness_summary([_Shim(r) for r in results]) == {}
