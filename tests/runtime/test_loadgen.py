"""Load generation: percentiles, profiles, open/closed loops."""

import asyncio
import random
import time

import pytest

from repro.runtime import (
    LoadGenError,
    LoadGenerator,
    LoadProfile,
    RuntimeConfig,
    RuntimeServer,
    SessionResult,
    SessionStatus,
    percentile,
    summarize,
    synthesize_market,
    synthetic_request_factory,
)
from repro.soa import Broker


@pytest.fixture
def server():
    registry = synthesize_market(seed=11)
    return RuntimeServer(Broker(registry), RuntimeConfig(workers=3, seed=11))


class TestPercentiles:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_empty_and_bounds(self):
        assert percentile([], 50) == 0.0
        with pytest.raises(LoadGenError):
            percentile([1.0], 150)

    def test_summary_shape(self):
        digest = summarize([1.0, 2.0, 3.0, 4.0])
        assert set(digest) == {"p50", "p95", "p99", "mean", "max"}
        assert digest["mean"] == 2.5
        assert digest["max"] == 4.0


class TestProfiles:
    def test_defaults(self):
        profile = LoadProfile()
        assert profile.total_requests == profile.clients

    def test_requests_override_population(self):
        assert LoadProfile(clients=4, requests=10).total_requests == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"requests": 0},
            {"mode": "sideways"},
            {"rate": 0.0},
            {"think_time_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(LoadGenError):
            LoadProfile(**kwargs)


class TestOpenLoop:
    def test_open_loop_serves_everything(self, server):
        profile = LoadProfile(
            clients=6, requests=18, mode="open", rate=2000.0, seed=7
        )
        report = LoadGenerator(server, profile).run_sync()
        assert report.offered == 18
        assert report.completed == 18
        assert report.overloaded == 0
        assert report.throughput_rps > 0
        assert report.duration_s > 0
        assert report.latency_s["p99"] >= report.latency_s["p50"] > 0

    def test_report_is_jsonable(self, server):
        profile = LoadProfile(clients=3, mode="open", rate=2000.0, seed=7)
        report = LoadGenerator(server, profile).run_sync()
        payload = report.to_dict()
        assert payload["offered"] == 3
        assert "results" not in payload  # sessions stay out of the summary
        assert set(payload["latency_s"]) == {
            "p50", "p95", "p99", "mean", "max",
        }

    def test_same_seed_same_run(self):
        def one_run():
            registry = synthesize_market(seed=11)
            server = RuntimeServer(
                Broker(registry), RuntimeConfig(workers=3, seed=11)
            )
            profile = LoadProfile(
                clients=5, requests=15, mode="open", rate=3000.0, seed=7
            )
            report = LoadGenerator(server, profile).run_sync()
            return [
                (r.request.client, r.status, r.attempts)
                for r in report.results
            ]

        assert one_run() == one_run()

    def test_a_stall_builds_a_backlog_not_a_slower_rate(self):
        """Arrivals keep their absolute due times: after the loop stalls,
        the overdue ones go out back to back, so the run ends within
        about one stall of its schedule instead of drifting later with
        every sleep."""
        stall_s, rate, requests, seed = 0.002, 10_000.0, 100, 7

        class StallingServer:
            """Resolves every session at once; its first submit holds
            the loop for one stall."""

            started = True

            def __init__(self):
                self.submitted = 0

            def submit(self, request):
                if self.submitted == 0:
                    until = time.perf_counter() + stall_s
                    while time.perf_counter() < until:
                        pass
                self.submitted += 1
                future = asyncio.get_running_loop().create_future()
                future.set_result(
                    SessionResult(
                        request=request, status=SessionStatus.COMPLETED
                    )
                )
                return future

        profile = LoadProfile(
            clients=4, requests=requests, mode="open", rate=rate, seed=seed
        )
        report = LoadGenerator(StallingServer(), profile).run_sync()
        draws = random.Random(seed)
        schedule_s = sum(draws.expovariate(rate) for _ in range(requests))
        assert report.completed == requests
        # The slack covers timer granularity and a scheduler or GC pause
        # of the test process, not one late sleep per arrival (the drift
        # reads ~100 ms here).
        assert report.duration_s < schedule_s + stall_s + 0.040


class TestClosedLoop:
    def test_closed_loop_spreads_requests_across_clients(self, server):
        profile = LoadProfile(clients=4, requests=10, mode="closed", seed=7)
        report = LoadGenerator(server, profile).run_sync()
        assert report.offered == 10
        assert report.completed == 10
        issued = sorted(r.request.client for r in report.results)
        # 10 across 4 clients: first two clients take the remainder
        assert issued.count("c0") == 3
        assert issued.count("c1") == 3
        assert issued.count("c2") == 2
        assert issued.count("c3") == 2

    def test_closed_loop_never_overloads(self):
        """A closed population can never exceed ``clients`` in flight,
        so a queue at least that deep never bounces."""
        registry = synthesize_market(seed=11)
        server = RuntimeServer(
            Broker(registry),
            RuntimeConfig(workers=2, max_queue_depth=8, seed=11),
        )
        profile = LoadProfile(clients=8, requests=24, mode="closed", seed=7)
        report = LoadGenerator(server, profile).run_sync()
        assert report.overloaded == 0
        assert report.completed == 24


class TestSyntheticMarket:
    def test_market_matches_factory(self):
        registry = synthesize_market(providers=5, seed=1)
        assert len(registry) == 5
        assert registry.operations() == ["render"]
        factory = synthetic_request_factory()
        request = factory("c0", 0)
        assert request.operation == "render"
        assert request.attribute == "cost"
        (result,) = RuntimeServer(
            Broker(registry), RuntimeConfig(seed=1)
        ).run([request])
        assert result.status is SessionStatus.COMPLETED
