"""Incremental, parallel coalition-structure engine (paper Sec. 6 at scale).

:func:`repro.coalitions.local_search.solve_local_search` rescoring is
naive: every candidate pays a full ``blocking_pairs`` sweep — ``O(k²)``
ordered coalition pairs, each witness check recomputing ``T(C)`` from
scratch — plus a fresh ``partition_trust`` fold, roughly O(n⁴) trust
lookups per candidate.  This engine keeps the *identical* search
trajectory (same neighbourhood, same acceptance order, same per-restart
RNG streams) but scores incrementally:

* **Delta stability** — a move/merge/split perturbs at most a handful of
  coalitions; an ordered pair ``(Cu, Cv)`` whose two coalitions both
  survived the step cannot change its blocking verdict (Def. 4 reads
  only ``Cu``, ``Cv`` and the fixed network).  Witness results are
  therefore cached keyed by the coalition *pair*, and scoring a
  candidate re-checks only the dirty pairs — the ones touching a
  changed coalition; every clean pair is a cache hit.
* **Seeded portfolio** — restarts are independent once each owns a
  child RNG derived in restart order (mirroring the runtime's
  per-session derivation), so they run as a portfolio on a
  ``concurrent.futures`` pool and merge deterministically in restart
  order: execution interleaving cannot change the answer, and a single
  worker reproduces the sequential baseline bit for bit.

Telemetry: ``coalition_candidates_total{method="engine"}`` and one
``coalitions.restart`` span per portfolio member.
"""

from __future__ import annotations

import contextvars
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from ..telemetry import get_registry, get_tracer
from .coalition import (
    Coalition,
    Partition,
    coalition_trust,
    member_view,
)
from .exact import CoalitionSolution
from .local_search import (
    Score,
    climb,
    derive_restart_seeds,
    restart_partition,
)
from .trust import CompositionOp, TrustNetwork, resolve_op

#: Default capacity: a pair entry is two frozensets + bool — tiny, so
#: the memo is sized to hold every pair a long search at n ≈ 50 visits.
PAIR_CACHE_SIZE = 1 << 17


class IncrementalScorer:
    """Exact ``(-blocking, trust)`` scoring with delta evaluation.

    Agreement with the naive scorer on *every* partition is the load-
    bearing property (the climb trajectory branches on scores); the
    randomized equivalence suite pins it down.  Thread-safe: the memos
    are shared by all portfolio workers — a pair proven clean in one
    restart is a hit in every other — while the delta anchor lives in
    thread-local state so concurrent restarts never cross-talk.
    """

    def __init__(
        self,
        network: TrustNetwork,
        op: str | CompositionOp = "min",
        aggregate: str | CompositionOp = "min",
        pair_cache_size: int = PAIR_CACHE_SIZE,
    ) -> None:
        self.network = network
        self.op = op
        self._fold = resolve_op(aggregate)
        # Pair verdicts and member views live in flat dicts, not
        # LRUCaches: at ~100 lookups per candidate the LRU bookkeeping
        # (lock + recency move) was itself the scorer's bottleneck.
        # Bounded by wholesale clear at capacity — entries are cheap to
        # recompute and the cap is far above a realistic working set.
        # Unlocked on purpose: dict get/set on tuple/frozenset keys is
        # atomic under the GIL, and a lost race merely recomputes a
        # deterministic value.
        self._pair_cap = pair_cache_size
        self._pair_memo: dict = {}
        self._view_memo: dict = {}
        self._local = threading.local()

    # -- memoized Def. 3 / Def. 4 primitives ---------------------------

    def trust_of(self, group: Coalition) -> float:
        """Def. 3 ``T(C)``, recomputed on each call: for the small
        coalitions a search visits it costs about what a memo lookup
        would."""
        return coalition_trust(group, self.network, self.op)

    def view_of(self, agent: str, group: Coalition) -> float:
        """Memoized ``◦``-composed rating of ``group`` by ``agent``."""
        memo = self._view_memo
        key = (agent, group)
        value = memo.get(key)
        if value is None:
            value = member_view(agent, group, self.network, self.op)
            if len(memo) >= self._pair_cap:
                memo.clear()
            memo[key] = value
        return value

    def _own_view(self, agent: str, source: Coalition) -> float:
        """``agent``'s rating of its own coalition fellows — memoized so
        the ``source − {agent}`` frozenset is only built on a miss."""
        memo = self._view_memo
        key = (source, agent)
        value = memo.get(key)
        if value is None:
            value = member_view(
                agent, source - {agent}, self.network, self.op
            )
            if len(memo) >= self._pair_cap:
                memo.clear()
            memo[key] = value
        return value

    def pair_blocks(self, target: Coalition, source: Coalition) -> bool:
        """Memoized Def. 4 verdict for the ordered pair ``(Cu, Cv)``."""
        memo = self._pair_memo
        key = (target, source)
        value = memo.get(key)
        if value is None:
            value = self._pair_blocks_fresh(target, source)
            if len(memo) >= self._pair_cap:
                memo.clear()
            memo[key] = value
        return value

    def _pair_blocks_fresh(
        self, target: Coalition, source: Coalition
    ) -> bool:
        """Boolean-only :func:`~repro.coalitions.stability
        .blocking_witness` over the memoized primitives: same member
        order, same strict comparisons, no witness object built."""
        trust_of = self.trust_of
        view_of = self.view_of
        own_view = self._own_view
        target_trust = trust_of(target)
        for candidate in sorted(source):
            if view_of(candidate, target) <= own_view(candidate, source):
                continue
            if trust_of(target | {candidate}) > target_trust:
                return True
        return False

    # -- partition scoring ---------------------------------------------

    def __call__(self, partition: Partition) -> Score:
        blocking = self._blocking(partition)
        trust_of = self.trust_of
        trust = self._fold([trust_of(group) for group in partition])
        return (-blocking, trust)

    def _blocking(self, partition: Partition) -> int:
        """Blocking-pair count, delta-evaluated against the thread's
        anchor partition when the diff is small.

        Only pairs touching a changed coalition are re-checked; a pair
        whose two coalitions both survived the step cannot change its
        verdict (Def. 4 reads only the pair and the fixed network), so
        its contribution rides along inside the anchor's count.  The
        arithmetic is exact — the delta path and the full path agree on
        every partition — so anchoring is purely a performance choice.
        """
        state = self._local
        anchor: Optional[Partition] = getattr(state, "anchor", None)
        if anchor is not None:
            candidate_set = frozenset(partition)
            anchor_set: frozenset = state.anchor_set
            removed = [g for g in anchor if g not in candidate_set]
            added = [g for g in partition if g not in anchor_set]
            if not removed and not added:
                return state.anchor_blocking
            if len(removed) + len(added) <= max(4, len(partition) // 2):
                kept = [g for g in anchor if g in candidate_set]
                return (
                    state.anchor_blocking
                    - self._touching(removed, kept)
                    + self._touching(added, kept)
                )
        # Full evaluation; the result becomes the new anchor (the climb
        # drifts away from the old one until the diff bound re-triggers
        # this path, which is cheap on a warm pair cache).
        blocking = 0
        memo = self._pair_memo
        memo_get = memo.get
        pair_blocks = self.pair_blocks
        for target in partition:
            for source in partition:
                if target == source:
                    continue
                verdict = memo_get((target, source))
                if verdict is None:
                    verdict = pair_blocks(target, source)
                if verdict:
                    blocking += 1
        state.anchor = partition
        state.anchor_set = frozenset(partition)
        state.anchor_blocking = blocking
        return blocking

    def _touching(
        self, dirty: List[Coalition], kept: List[Coalition]
    ) -> int:
        """Ordered blocking pairs with ≥1 endpoint among ``dirty``
        inside the partition ``dirty ∪ kept``."""
        memo_get = self._pair_memo.get
        pair_blocks = self.pair_blocks
        count = 0
        for d in dirty:
            for k in kept:
                verdict = memo_get((d, k))
                if verdict is None:
                    verdict = pair_blocks(d, k)
                if verdict:
                    count += 1
                verdict = memo_get((k, d))
                if verdict is None:
                    verdict = pair_blocks(k, d)
                if verdict:
                    count += 1
            for d2 in dirty:
                if d2 is not d:
                    verdict = memo_get((d, d2))
                    if verdict is None:
                        verdict = pair_blocks(d, d2)
                    if verdict:
                        count += 1
        return count


def solve_engine(
    network: TrustNetwork,
    op: str | CompositionOp = "min",
    aggregate: str | CompositionOp = "min",
    seed: Optional[int] = None,
    restarts: int = 3,
    max_iterations: int = 200,
    neighbour_sample: int = 64,
    workers: int = 1,
    initial: Optional[Partition] = None,
    scorer: Optional[IncrementalScorer] = None,
) -> CoalitionSolution:
    """Portfolio hill-climb with incremental scoring.

    Under a fixed ``seed`` the result is independent of ``workers``: the
    per-restart RNG streams are derived up front and the merge walks the
    outcomes in restart order, keeping the first of any score tie — the
    same rule the sequential baseline applies.  Pass a pre-warmed
    ``scorer`` to share its pair and view memos across successive solves over
    one network.
    """
    if scorer is None:
        scorer = IncrementalScorer(network, op, aggregate)
    seeds = derive_restart_seeds(seed, restarts)
    tracer = get_tracer()

    def run_restart(
        restart: int, restart_seed: int
    ) -> Tuple[Partition, Score, int]:
        with tracer.span(
            "coalitions.restart",
            restart=restart,
            agents=len(network),
        ):
            rng = random.Random(restart_seed)
            start = restart_partition(restart, network, rng, initial)
            return climb(
                start, rng, scorer, neighbour_sample, max_iterations
            )

    if workers <= 1 or len(seeds) == 1:
        outcomes = [
            run_restart(index, restart_seed)
            for index, restart_seed in enumerate(seeds)
        ]
    else:
        with ThreadPoolExecutor(
            max_workers=min(workers, len(seeds)),
            thread_name_prefix="repro-coalitions",
        ) as pool:
            futures = []
            for index, restart_seed in enumerate(seeds):
                # Copy the context so restart spans nest under the
                # caller's span even on pool threads.
                ctx = contextvars.copy_context()
                futures.append(
                    pool.submit(ctx.run, run_restart, index, restart_seed)
                )
            # Collected in restart order, not completion order: the
            # merge below is deterministic under any interleaving.
            outcomes = [future.result() for future in futures]

    best_partition: Optional[Partition] = None
    best_score: Optional[Score] = None
    examined = 0
    for partition, score, climbed in outcomes:
        examined += climbed
        if best_score is None or score > best_score:
            best_partition, best_score = partition, score

    assert best_partition is not None and best_score is not None
    get_registry().counter(
        "coalition_candidates_total",
        "Coalition structures scored during search, by method.",
        labelnames=("method",),
    ).labels("engine").inc(examined)
    return CoalitionSolution(
        partition=best_partition,
        trust=best_score[1],
        stable=best_score[0] == 0,
        partitions_examined=examined,
        method="engine",
    )

