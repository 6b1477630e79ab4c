"""Telemetry of the kernel caches.

The bounded lowering cache must report through
:func:`repro.caching.cache_stats`; elimination keeps no bucket memo.
"""

from repro.caching import cache_stats
from repro.constraints import TableConstraint, variable
from repro.semirings import WeightedSemiring
from repro.solver import SCSP, lower_semiring, solve_elimination


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


class TestBoundedCachesReport:
    def test_cache_stats_list_lowering(self):
        # Touch the cache so it exists and has traffic.
        lower_semiring(WeightedSemiring())
        solve_elimination(_problem())
        stats = cache_stats()
        assert "lowering" in stats
        assert "buckets" not in stats
        assert all(row["maxsize"] > 0 for row in stats["lowering"])
