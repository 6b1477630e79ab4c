"""FleetFrontend: routing, backpressure, resharding, determinism."""

import asyncio

import pytest

from repro.fleet import (
    FleetConfig,
    FleetError,
    FleetFrontend,
    partition_registry,
)
from repro.runtime import RetryPolicy, RuntimeConfig, SessionStatus
from repro.soa import BernoulliCrash, FaultInjector
from repro.telemetry import telemetry_session

from .conftest import OPERATIONS


def requests_for(make_request, count):
    return [
        make_request(
            client=f"c{i % 4}", operation=OPERATIONS[i % len(OPERATIONS)]
        )
        for i in range(count)
    ]


def crashy_injector_factory(market, probability=0.4, seed=123):
    service_ids = [d.service_id for d in market.find()]

    def factory(shard_id):
        injector = FaultInjector(seed=seed)
        for service_id in service_ids:
            injector.attach(service_id, BernoulliCrash(probability))
        return injector

    return factory


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(FleetError):
            FleetConfig(shards=0)
        with pytest.raises(FleetError):
            FleetConfig(workers_per_shard=0)
        with pytest.raises(FleetError):
            FleetConfig(ingress_depth=0)
        with pytest.raises(FleetError):
            FleetConfig(route_by="client")

    def test_partitioning_requires_operation_routing(self):
        with pytest.raises(FleetError):
            FleetConfig(partition_registry=True, route_by="session")
        FleetConfig(partition_registry=True, route_by="operation")


class TestServing:
    def test_serves_across_shards(self, market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=3,
                seed=1,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        results = frontend.run(requests_for(make_request, 24))
        assert len(results) == 24
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        # the cheapest provider wins on every shard, like a single broker
        assert all("P2" in r.sla.providers for r in results)
        # the session space actually spread over the shards
        busy = [
            shard
            for shard, rs in frontend.results_by_shard.items()
            if rs
        ]
        assert len(busy) == 3
        assert sum(
            len(rs) for rs in frontend.results_by_shard.values()
        ) == 24

    def test_submit_before_start_raises(self, market, make_request):
        frontend = FleetFrontend(market, FleetConfig(shards=2))
        with pytest.raises(FleetError):
            asyncio.run(self._submit_unstarted(frontend, make_request()))

    @staticmethod
    async def _submit_unstarted(frontend, request):
        frontend.submit(request)

    def test_results_by_key_indexes_every_session(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=2,
                seed=3,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        frontend.run(requests_for(make_request, 10))
        by_key = frontend.results_by_key()
        assert len(by_key) == 10
        assert all(key.startswith("s") for key in by_key)


class TestBackpressure:
    def test_full_ingress_bounces_with_typed_overload(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2,
                ingress_depth=1,
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        results = asyncio.run(self._flood(frontend, make_request))
        overloaded = [
            r for r in results if r.status is SessionStatus.OVERLOADED
        ]
        assert overloaded  # the ingress bound actually bit
        assert all("ingress" in r.detail for r in overloaded)
        served = [
            r for r in results if r.status is SessionStatus.COMPLETED
        ]
        assert served  # and admitted sessions still finished

    @staticmethod
    async def _flood(frontend, make_request):
        async with frontend:
            # submit() is synchronous: no session finishes between the
            # calls, so the 1-session bound holds for all of them.
            futures = [
                frontend.submit(make_request(client=f"c{i}"))
                for i in range(6)
            ]
            return await asyncio.gather(*futures)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_bound_is_fleet_wide(self, market, make_request, shards):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=shards,
                ingress_depth=4,
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )

        async def flood():
            async with frontend:
                return await asyncio.gather(
                    *[
                        frontend.submit(r)
                        for r in requests_for(make_request, 10)
                    ]
                )

        results = asyncio.run(flood())
        statuses = [r.status for r in results]
        assert statuses.count(SessionStatus.COMPLETED) == 4
        assert statuses.count(SessionStatus.OVERLOADED) == 6


class TestResharding:
    def test_redirect_forwards_a_moved_key(self, market, make_request):
        asyncio.run(self._redirect(market, make_request))

    @staticmethod
    async def _redirect(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=2,
                seed=0,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        requests = requests_for(make_request, 12)
        async with frontend:
            futures = [frontend.submit(r) for r in requests]
            moving = [
                i
                for i, r in enumerate(requests)
                if frontend.ring.assign(frontend.session_key(r, i))
                == "shard-1"
            ]
            # No worker ran yet, and remove_shard takes shard-1 off the
            # ring before its first await: every session queued there
            # must move to shard-0 as it is picked up.
            await frontend.remove_shard("shard-1")
            results = await asyncio.gather(*futures)
        assert moving
        assert frontend.redirects == len(moving)
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        assert len(frontend.assignments) == len(requests)
        assert "shard-1" not in frontend.assignments.values()

    def test_add_shard_mid_run(self, market, make_request):
        asyncio.run(self._grow(market, make_request))

    @staticmethod
    async def _grow(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=2,
                seed=2,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        async with frontend:
            first = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 8)
                ]
            )
            joined = await frontend.add_shard()
            assert joined == "shard-2"
            second = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 16)
                ]
            )
        results = first + second
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        assert frontend.results_by_shard["shard-2"]  # newcomer served

    def test_remove_shard_drains_gracefully(self, market, make_request):
        asyncio.run(self._shrink(market, make_request))

    @staticmethod
    async def _shrink(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=3,
                seed=2,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        async with frontend:
            first = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 9)
                ]
            )
            await frontend.remove_shard("shard-1")
            assert "shard-1" not in frontend.shards
            second = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 9)
                ]
            )
        assert all(
            r.status is SessionStatus.COMPLETED for r in first + second
        )

    def test_cannot_remove_the_last_shard(self, market):
        frontend = FleetFrontend(market, FleetConfig(shards=1))
        with pytest.raises(FleetError):
            asyncio.run(frontend.remove_shard("shard-0"))

    def test_partitioned_fleets_refuse_to_reshard(self, market):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2, route_by="operation", partition_registry=True
            ),
        )
        with pytest.raises(FleetError):
            asyncio.run(frontend.add_shard())


class TestDrainingShutdown:
    def test_stop_finishes_admitted_sessions(self, market, make_request):
        futures = asyncio.run(self._stop_early(market, make_request))
        assert all(f.done() for f in futures)
        assert all(
            f.result().status is SessionStatus.COMPLETED for f in futures
        )

    @staticmethod
    async def _stop_early(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=2,
                seed=4,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        await frontend.start()
        futures = [
            frontend.submit(r) for r in requests_for(make_request, 12)
        ]
        await frontend.stop()  # drains: no future left behind
        return futures


    def test_stop_without_drain_resolves_every_future(
        self, market, make_request
    ):
        futures, errors = asyncio.run(self._abandon(market, make_request))
        assert all(f.done() for f in futures)
        assert errors == []

    @staticmethod
    async def _abandon(market, make_request):
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=2,
                seed=4,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        await frontend.start()
        futures = [
            frontend.submit(r) for r in requests_for(make_request, 12)
        ]
        await asyncio.sleep(0)  # workers pick their first sessions up
        await frontend.stop(drain=False)
        await asyncio.sleep(0)  # done-callbacks run
        return futures, errors


class TestOwnedTasks:
    def test_only_shard_workers_and_the_probe_run(
        self, market, make_request
    ):
        asyncio.run(self._tasks(market, make_request))

    @staticmethod
    async def _tasks(market, make_request):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3,
                workers_per_shard=2,
                runtime=RuntimeConfig(probe_interval_s=0.01),
            ),
        )
        own = asyncio.current_task()
        await frontend.start()
        names = sorted(
            task.get_name() for task in asyncio.all_tasks() - {own}
        )
        assert names == sorted(
            ["fleet-loop-probe"]
            + [f"runtime-worker-{i}" for _ in range(3) for i in range(2)]
        )
        await frontend.serve(requests_for(make_request, 6))
        await frontend.stop()
        assert asyncio.all_tasks() == {own}


class TestShardCountIndependence:
    def run_fleet(self, market, make_request, shards):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=shards,
                seed=7,
                runtime=RuntimeConfig(
                    deadline_s=None,
                    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
                ),
            ),
            injector_factory=crashy_injector_factory(market),
        )
        frontend.run(requests_for(make_request, 24))
        return {
            key: (
                result.status,
                result.attempts,
                None
                if result.sla is None
                else tuple(result.sla.providers),
            )
            for key, result in frontend.results_by_key().items()
        }

    def test_agreements_identical_for_1_and_4_shards(
        self, market, make_request
    ):
        single = self.run_fleet(market, make_request, 1)
        quad = self.run_fleet(market, make_request, 4)
        assert len(single) == 24
        assert single == quad
        # the faults actually fired: some session needed a retry
        assert any(attempts > 1 for _, attempts, _ in single.values())

    def run_batches(self, market, make_request, shards, probability, seed):
        """Two batches on one fleet, every session's outcome keyed: the
        second batch's clients hold the first batch's agreements."""
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=shards,
                seed=seed,  # session streams, and so every fault draw
                runtime=RuntimeConfig(
                    deadline_s=None,
                    retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
                ),
            ),
            injector_factory=crashy_injector_factory(market, probability),
        )

        async def batches():
            await frontend.start()
            try:
                for _ in range(2):
                    await frontend.serve(requests_for(make_request, 24))
            finally:
                await frontend.stop()

        asyncio.run(batches())
        results = frontend.results_by_key()
        # an agreement is named by the session that signed it
        signer = {
            id(result.sla): key
            for key, result in results.items()
            if result.status is SessionStatus.COMPLETED
        }
        return {
            key: (
                result.status,
                result.attempts,
                None if result.sla is None else signer[id(result.sla)],
            )
            for key, result in results.items()
        }

    @pytest.mark.parametrize("probability", [0.4, 0.7])
    @pytest.mark.parametrize("seed", [7, 11, 12])
    def test_degraded_and_failed_sessions_identical_at_1_2_and_4_shards(
        self, market, make_request, probability, seed
    ):
        single = self.run_batches(market, make_request, 1, probability, seed)
        assert len(single) == 48
        for shards in (2, 4):
            assert self.run_batches(
                market, make_request, shards, probability, seed
            ) == single
        statuses = [status for status, _, _ in single.values()]
        # every session whose attempts all failed degraded to an earlier
        # agreement of its client and operation, or failed without one
        assert SessionStatus.FAILED in statuses
        for key, (status, _, signed_by) in single.items():
            if status is SessionStatus.DEGRADED:
                assert signed_by.split("/", 1)[1] == key.split("/", 1)[1]
                assert int(signed_by[1:].split("/")[0]) < 24 <= int(
                    key[1:].split("/")[0]
                )


class TestOperationRouting:
    def test_partition_covers_every_service_once(self, market):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3, route_by="operation", partition_registry=True
            ),
        )
        parts = partition_registry(market, frontend.ring)
        all_ids = {d.service_id for d in market.find()}
        seen = [
            d.service_id
            for part in parts.values()
            for d in part.find()
        ]
        assert sorted(seen) == sorted(all_ids)
        # an operation's services all land on one shard
        for part in parts.values():
            for description in part.find():
                owner = frontend.ring.assign(
                    description.interface.operation
                )
                assert parts[owner].find(
                    operation=description.interface.operation
                )

    def test_operation_routed_fleet_serves_from_partitions(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3,
                seed=1,
                route_by="operation",
                partition_registry=True,
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        results = frontend.run(requests_for(make_request, 12))
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        # every session of one operation lands on the owning shard
        for key, shard in frontend.assignments.items():
            operation = key.rsplit("/", 1)[1]
            assert frontend.ring.assign(operation) == shard


class TestCaching:
    def test_l2_warms_sibling_shards(self, market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(
                shards=4,
                seed=5,
                runtime=RuntimeConfig(deadline_s=None),
            )
        )
        # one operation only: every shard solves the same fingerprint
        requests = [
            make_request(client=f"c{i}", operation="render")
            for i in range(16)
        ]
        frontend.run(requests)
        stats = frontend.cache_stats()
        assert stats["l2"] is not None
        # the problem was solved by the first shard to see it; other
        # shards promoted it from the L2 instead of re-solving
        assert stats["l2"]["misses"] >= 1
        promotions = sum(
            shard["promotions"] for shard in stats["per_shard"].values()
        )
        busy = sum(
            1
            for results in frontend.results_by_shard.values()
            if results
        )
        assert promotions >= busy - 1

    def test_l2_can_be_disabled(self, market, make_request):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2,
                seed=5,
                l2_cache=False,
                runtime=RuntimeConfig(deadline_s=None),
            ),
        )
        results = frontend.run(requests_for(make_request, 6))
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        stats = frontend.cache_stats()
        assert stats["l2"] is None
        # shards fall back to their private single-tier solve caches
        assert stats["per_shard"]


class TestLoopProbe:
    def lag_counts(self, market, make_request, interval):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2,
                seed=3,
                runtime=RuntimeConfig(probe_interval_s=interval),
            ),
        )

        async def scenario():
            async with frontend:
                await frontend.serve(requests_for(make_request, 4))
                await asyncio.sleep(0.05)
            assert frontend._probe is None

        with telemetry_session() as session:
            asyncio.run(scenario())
            snapshot = session.snapshot()
        return [
            sample["count"]
            for metric in snapshot["metrics"]
            if metric["name"] == "runtime_loop_lag_seconds"
            for sample in metric["samples"]
        ]

    def test_one_probe_per_fleet_records_loop_lag(self, market, make_request):
        [count] = self.lag_counts(market, make_request, 0.005)
        assert count > 0

    def test_zero_interval_records_none(self, market, make_request):
        assert self.lag_counts(market, make_request, 0.0) == []
