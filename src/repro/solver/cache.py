"""A bounded, fingerprint-keyed cache of SCSP solve results.

The broker's hot path (one SCSP per candidate per negotiation) re-solves
the *same* problem over and over: a market's clients keep asking for the
same operation/attribute pairs, so ``required ⊗ offered`` is identical
across sessions.  :class:`SolveCache` memoizes
:class:`~repro.solver.problem.SolverResult` payloads under a canonical
*problem fingerprint* — a SHA-256 over the semiring, every constraint's
scope/domains and materialized table bytes, the ``con`` set and the solve
method/options — so a warm entry is provably the same problem, not just a
same-named one.  A stacked solve of a topology group
(:func:`~repro.solver.stacked.solve_stacked`) is one entry, keyed by
:func:`group_fingerprint` over every member in order.

Invalidation is structural: any change to a constraint table, domain,
``con`` set or solve option changes the fingerprint, so stale entries are
never *returned* — they simply age out of the LRU.  The cache rides the
shared :class:`~repro.caching.LRUCache` in threadsafe mode (the runtime's
worker pool solves concurrently) and feeds the standard
``cache_hits_total``/``cache_misses_total{cache="solve"}`` telemetry
counters.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..caching import LRUCache
from ..constraints.digest import canon_value, constraint_digest
from .problem import SCSP, SolverResult, SolverStats

#: Default number of distinct problems kept warm (satellite spec: bounded).
DEFAULT_SOLVE_CACHE_SIZE = 2048

# Canonical digest helpers live in repro.constraints.digest (shared with
# the factored store's incremental digest); these aliases keep the old
# import paths working.
_canon = canon_value
_constraint_digest = constraint_digest


def problem_fingerprint(
    problem: SCSP,
    method: str,
    backend: Optional[str] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """A canonical digest identifying a solve call's full input.

    Constraint digests are *sorted*, so two problems listing the same
    constraints in a different order share one entry.  Materialization
    reuses each constraint's memoized table, so fingerprinting a problem
    the broker has seen before costs hashing, not enumeration.
    """
    digests: List[str] = [
        constraint_digest(constraint) for constraint in problem.constraints
    ]

    head = hashlib.sha256()
    head.update(f"semiring {problem.semiring!r};".encode())
    for digest in sorted(digests):
        head.update(digest.encode())
    head.update(f"con {sorted(problem.con)};".encode())
    head.update(f"method {method};backend {backend};".encode())
    head.update(
        f"options {sorted((options or {}).items())!r};".encode()
    )
    return head.hexdigest()


def group_fingerprint(
    problems: Sequence[SCSP],
    method: str,
    backend: Optional[str] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """The digest of one stacked solve call: the semiring, ``con``, the
    method/backend/options and every member's constraint digests, in
    member and constraint order (a stacked solve answers per member and
    folds constraints in the order given)."""
    head = hashlib.sha256()
    head.update(f"semiring {problems[0].semiring!r};".encode())
    head.update(f"con {list(problems[0].con)};".encode())
    head.update(f"method {method};backend {backend};".encode())
    head.update(
        f"options {sorted((options or {}).items())!r};".encode()
    )
    for problem in problems:
        head.update(b"member;")
        for constraint in problem.constraints:
            head.update(constraint_digest(constraint).encode())
    return head.hexdigest()


@dataclass(frozen=True)
class _CacheEntry:
    """The problem-independent payload of a solved SCSP."""

    blevel: Any
    frontier: Tuple[Any, ...]
    optima: Tuple[Tuple[Dict[str, Any], ...], ...]
    method: str
    stats: SolverStats

    def result_for(self, problem: SCSP) -> SolverResult:
        """A fresh :class:`SolverResult` bound to ``problem`` — deep
        copies of the mutable parts, so callers can edit what they get
        back without corrupting the cache."""
        return SolverResult(
            problem=problem,
            blevel=self.blevel,
            frontier=list(self.frontier),
            optima=[
                [dict(assignment) for assignment in group]
                for group in self.optima
            ],
            method=self.method,
            stats=copy.copy(self.stats),
        )

    @classmethod
    def from_result(cls, result: SolverResult) -> "_CacheEntry":
        return cls(
            blevel=result.blevel,
            frontier=tuple(result.frontier),
            optima=tuple(
                tuple(dict(assignment) for assignment in group)
                for group in result.optima
            ),
            method=result.method,
            stats=copy.copy(result.stats),
        )


def group_entry(results: Sequence[SolverResult]) -> Tuple[_CacheEntry, ...]:
    """The cache entry of a stacked solve: one payload per member."""
    return tuple(_CacheEntry.from_result(result) for result in results)


def group_results(
    entry: Tuple[_CacheEntry, ...], problems: Sequence[SCSP]
) -> List[SolverResult]:
    """A group entry's results, each rebound to its member problem."""
    return [
        member.result_for(problem) for member, problem in zip(entry, problems)
    ]


class SolveCache:
    """Bounded LRU of solve results, keyed by problem fingerprint.

    Thread-safe (the runtime's worker pool solves concurrently) via the
    shared LRU's ``threadsafe`` mode; hit and miss traffic flows into the
    telemetry registry under ``cache="solve"``.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_SOLVE_CACHE_SIZE,
        tier: str = "",
    ) -> None:
        self._lru = LRUCache(
            maxsize, name="solve", threadsafe=True, tier=tier
        )

    @property
    def tier(self) -> str:
        return self._lru.tier

    def fetch(self, key: str, problem: SCSP) -> Optional[SolverResult]:
        """The cached result rebound to ``problem``, or ``None``."""
        entry = self.fetch_entry(key)
        if entry is None:
            return None
        return entry.result_for(problem)

    def store(self, key: str, result: SolverResult) -> None:
        self.store_entry(key, _CacheEntry.from_result(result))

    def fetch_entry(self, key: str) -> Optional[Any]:
        """The raw problem-independent entry (a :class:`_CacheEntry`, or
        a tuple of them for a stacked group) — the currency tier stacks
        (:mod:`repro.fleet.cache`) move between levels without
        rebinding or re-deep-copying results."""
        return self._lru.get(key)

    def store_entry(self, key: str, entry: Any) -> None:
        self._lru.put(key, entry)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, int]:
        """Hits/misses/evictions/size of the underlying LRU, one row in
        the same shape :func:`repro.caching.cache_stats` reports."""
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SolveCache({self._lru!r})"
