"""Telemetry of the kernel caches.

Bucket-memo reuse must flow into ``solver_buckets_reused_total``, and the
bounded kernel caches ("lowering", "buckets") must report through
:func:`repro.caching.cache_stats`.
"""

from repro.caching import cache_stats
from repro.constraints import TableConstraint, variable
from repro.semirings import WeightedSemiring
from repro.solver import (
    SCSP,
    BucketCache,
    lower_semiring,
    shared_bucket_cache,
    solve_elimination,
)
from repro.telemetry import telemetry_session

from .test_instrumentation import counter_total


def _problem(offset=0):
    weighted = WeightedSemiring()
    x = variable("x", (0, 1, 2))
    y = variable("y", (0, 1))
    return SCSP(
        [
            TableConstraint(
                weighted,
                [x, y],
                {
                    (i, j): float((i + j + offset) % 4)
                    for i in range(3)
                    for j in range(2)
                },
            )
        ],
        con=["x"],
    )


class TestBucketReuseMetrics:
    def test_reused_buckets_flow_into_solver_counter(self):
        problem = _problem()
        cache = BucketCache()
        with telemetry_session() as session:
            solve_elimination(problem, bucket_cache=cache)
            solve_elimination(problem, bucket_cache=cache)
        total = counter_total(
            session.registry, "solver_buckets_reused_total"
        )
        assert total > 0
        # Second solve answered every bucket from the memo.
        warm = solve_elimination(problem, bucket_cache=cache)
        assert warm.stats.buckets_reused == warm.stats.buckets_processed


class TestBoundedCachesReport:
    def test_cache_stats_list_lowering_and_buckets(self):
        # Touch both caches so they exist and have traffic.
        lower_semiring(WeightedSemiring())
        cache = shared_bucket_cache()
        solve_elimination(_problem(), bucket_cache=cache)
        stats = cache_stats()
        assert "lowering" in stats
        assert "buckets" in stats
        assert all(
            row["maxsize"] > 0 for row in stats["lowering"] + stats["buckets"]
        )
