"""The fleet's two-tier solve cache: per-shard L1 over a fleet-wide L2.

Cache-aside over the solver's SHA-256 content keys
(:func:`repro.solver.cache.problem_fingerprint`, and a stacked group's
:func:`repro.solver.stacked.group_key`): every shard broker
keeps its own :class:`~repro.solver.cache.SolveCache` as L1, and on an
L1 miss consults a single fleet-wide L2 shared by all shards.  An L2
hit is *promoted* into the shard's L1 (the next repeat on that shard is
a pure-local hit); a full miss solves and writes through both tiers, so
the first shard to see a problem warms every other shard at once — the
distributed-cache / cache-aside pattern pair from the scalability
catalogue.

The L2 is a plain :class:`~repro.solver.cache.SolveCache` (tier
``l2``, :data:`DEFAULT_L2_CACHE_SIZE` entries) shared by reference
across the shards of one process.  Its entries are
:class:`~repro.solver.cache._CacheEntry` payloads, or a stacked group's
rows (:func:`repro.solver.stacked.group_key`), problem-independent and
immutable, keyed by content — so an entry can never go stale and needs
no expiry; the LRU bound alone caps it.

Observability: both tiers' LRUs carry a ``tier`` label on the shared
``cache_hits_total``/``cache_misses_total`` counters, and the tier
stack itself reports ``fleet_solve_cache_requests_total{tier,outcome}``
plus ``fleet_l2_promotions_total`` — enough to read the L1/L2 hit split
of a whole fleet off one metrics snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..solver.cache import (
    DEFAULT_SOLVE_CACHE_SIZE,
    SolveCache,
    _CacheEntry,
)
from ..solver.problem import SCSP, SolverResult
from ..telemetry import get_registry

#: Default fleet-wide L2 capacity: one L2 entry costs the same as an L1
#: entry and serves every shard, so it is sized a few shards deep.
DEFAULT_L2_CACHE_SIZE = 4 * DEFAULT_SOLVE_CACHE_SIZE

#: Preseeded so a snapshot always shows the full tier/outcome family.
TIER_OUTCOMES = (
    ("l1", "hit"),
    ("l2", "hit"),
    ("l2", "miss"),
)


class TieredSolveCache:
    """Drop-in :class:`~repro.solver.cache.SolveCache` replacement that
    stacks a private L1 on a shared L2.

    Same ``fetch``/``store`` and ``fetch_entry``/``store_entry``
    surface, so :func:`repro.solver.solve` and the broker use it
    unchanged.  A fetch tries L1, then L2 (promoting hits into L1); a
    store writes through both tiers.
    """

    def __init__(
        self,
        l2: SolveCache,
        l1_maxsize: int = DEFAULT_SOLVE_CACHE_SIZE,
    ) -> None:
        self._l1 = SolveCache(l1_maxsize, tier="l1")
        self._l2 = l2
        self.promotions = 0

    @property
    def l1(self) -> SolveCache:
        return self._l1

    @property
    def l2(self) -> SolveCache:
        return self._l2

    def fetch(self, key: str, problem: SCSP) -> Optional[SolverResult]:
        entry = self.fetch_entry(key)
        if entry is None:
            return None
        return entry.result_for(problem)

    def store(self, key: str, result: SolverResult) -> None:
        self.store_entry(key, _CacheEntry.from_result(result))

    def fetch_entry(self, key: str) -> Optional[Any]:
        """The raw entry from L1, else from L2 (promoted into L1), else
        ``None`` — one lookup, whether the entry is one solve's or a
        stacked group's."""
        entry = self._l1.fetch_entry(key)
        if entry is not None:
            self._count("l1", "hit")
            return entry
        entry = self._l2.fetch_entry(key)
        if entry is None:
            # The L1 miss was already counted by the L1 LRU itself;
            # the stack's verdict is the L2 outcome.
            self._count("l2", "miss")
            return None
        self._l1.store_entry(key, entry)
        self.promotions += 1
        self._count("l2", "hit")
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "fleet_l2_promotions_total",
                "L2 hits promoted into a shard's L1 solve cache.",
            ).inc()
        return entry

    def store_entry(self, key: str, entry: Any) -> None:
        """Write ``entry`` through both tiers."""
        self._l1.store_entry(key, entry)
        self._l2.store_entry(key, entry)

    def clear(self) -> None:
        """Clear the private L1 only — the L2 is shared fleet state."""
        self._l1.clear()

    def stats(self) -> Dict[str, Any]:
        """Per-tier counters plus the promotion count."""
        return {
            "l1": self._l1.stats(),
            "l2": self._l2.stats(),
            "promotions": self.promotions,
        }

    def _count(self, tier: str, outcome: str) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "fleet_solve_cache_requests_total",
            "Tiered solve-cache lookups, by answering tier and outcome.",
            labelnames=("tier", "outcome"),
        ).preseed(TIER_OUTCOMES).labels(tier, outcome).inc()

    def __len__(self) -> int:
        return len(self._l1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TieredSolveCache(l1={self._l1!r}, l2={self._l2!r}, "
            f"{self.promotions} promotion(s))"
        )
