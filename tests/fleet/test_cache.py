"""The two-tier solve cache: L1/L2 tiering and promotion."""

from repro.caching import LRUCache
from repro.constraints import TableConstraint, variable
from repro.fleet import TieredSolveCache
from repro.semirings import WeightedSemiring
from repro.solver import SCSP, SolveCache, problem_fingerprint, solve
from repro.telemetry import telemetry_session


def make_problem(weight=3.0):
    semiring = WeightedSemiring()
    x = variable("x", [0, 1])
    y = variable("y", [0, 1])
    c1 = TableConstraint(
        semiring, [x, y], {(0, 0): weight, (1, 1): 1.0}, default=5.0
    )
    c2 = TableConstraint(semiring, [y], {(0,): 2.0, (1,): 0.0})
    return SCSP([c1, c2])


def solved(weight=3.0):
    problem = make_problem(weight)
    key = problem_fingerprint(problem, "branch-bound")
    return problem, key, solve(problem, method="branch-bound")


def shared_l2():
    """The fleet's L2: one solve cache shared by reference."""
    return SolveCache(tier="l2")


class TestTiering:
    def test_store_writes_through_both_tiers(self):
        l2 = shared_l2()
        tiered = TieredSolveCache(l2)
        problem, key, result = solved()
        tiered.store(key, result)
        assert len(tiered) == 1  # L1
        assert len(l2) == 1

    def test_l1_hit_needs_no_l2(self):
        l2 = shared_l2()
        tiered = TieredSolveCache(l2)
        problem, key, result = solved()
        tiered.store(key, result)
        l2.clear()  # prove the fetch below never consults L2
        fetched = tiered.fetch(key, make_problem())
        assert fetched is not None
        assert fetched.blevel == result.blevel

    def test_l2_hit_promotes_into_l1(self):
        l2 = shared_l2()
        warm = TieredSolveCache(l2)
        cold = TieredSolveCache(l2)  # another shard, same L2
        problem, key, result = solved()
        warm.store(key, result)
        assert len(cold) == 0
        fetched = cold.fetch(key, make_problem())
        assert fetched is not None
        assert fetched.blevel == result.blevel
        assert cold.promotions == 1
        assert len(cold) == 1  # promoted: next fetch is pure-local
        l2.clear()
        assert cold.fetch(key, make_problem()) is not None

    def test_full_miss_returns_none(self):
        tiered = TieredSolveCache(shared_l2())
        assert tiered.fetch("no-such-fingerprint", make_problem()) is None

    def test_clear_keeps_the_shared_l2(self):
        l2 = shared_l2()
        tiered = TieredSolveCache(l2)
        problem, key, result = solved()
        tiered.store(key, result)
        tiered.clear()
        assert len(tiered) == 0
        assert len(l2) == 1

    def test_results_rebind_to_the_callers_problem(self):
        l2 = shared_l2()
        warm = TieredSolveCache(l2)
        cold = TieredSolveCache(l2)
        problem, key, result = solved()
        warm.store(key, result)
        other = make_problem()
        assert cold.fetch(key, other).problem is other

    def test_stats_expose_both_tiers_and_promotions(self):
        l2 = shared_l2()
        tiered = TieredSolveCache(l2)
        problem, key, result = solved()
        tiered.store(key, result)
        tiered.fetch(key, make_problem())
        stats = tiered.stats()
        assert stats["l1"]["tier"] == "l1"
        assert stats["l2"]["tier"] == "l2"
        assert stats["l1"]["hits"] == 1
        assert stats["promotions"] == 0

    def test_tier_outcomes_flow_to_telemetry(self):
        problem, key, result = solved()
        l2 = shared_l2()
        warm = TieredSolveCache(l2)
        cold = TieredSolveCache(l2)
        with telemetry_session() as session:
            warm.fetch(key, problem)  # l2 miss
            warm.store(key, result)
            warm.fetch(key, problem)  # l1 hit
            cold.fetch(key, problem)  # l2 hit + promotion
            requests = session.registry.get(
                "fleet_solve_cache_requests_total"
            )
            assert requests.labels("l1", "hit").value == 1
            assert requests.labels("l2", "hit").value == 1
            assert requests.labels("l2", "miss").value == 1
            promotions = session.registry.get("fleet_l2_promotions_total")
            assert promotions.value == 1


class TestLRUTierLabel:
    def test_tier_appears_in_stats_and_labels(self):
        cache = LRUCache(maxsize=2, name="probe", tier="l9")
        with telemetry_session() as session:
            cache.get("missing")
            misses = session.registry.get("cache_misses_total")
            assert misses.labels("probe", "l9").value == 1
        assert cache.stats()["tier"] == "l9"
