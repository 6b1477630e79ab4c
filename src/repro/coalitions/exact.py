"""Exact coalition-structure search over set partitions.

Enumerates every partition of the agent set (restricted-growth strings,
Bell(n) many), filters by the Def. 4 stability condition, and maximizes
the fuzzy partition objective.  Practical up to a dozen agents — the
regime of the paper's seven-component Fig. 9 — and the ground truth the
greedy/local-search baselines are measured against (benchmark E11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from .coalition import (
    Partition,
    normalize_partition,
    partition_trust,
)
from .stability import is_stable
from .trust import CompositionOp, TrustNetwork


def enumerate_partitions(agents: Sequence[str]) -> Iterator[Partition]:
    """All set partitions of ``agents`` via restricted growth strings."""
    items = list(agents)
    n = len(items)
    if n == 0:
        return

    def grow(index: int, groups: List[List[str]]) -> Iterator[Partition]:
        if index == n:
            yield normalize_partition(groups)
            return
        item = items[index]
        for group in groups:
            group.append(item)
            yield from grow(index + 1, groups)
            group.pop()
        groups.append([item])
        yield from grow(index + 1, groups)
        groups.pop()

    yield from grow(0, [])


def bell_number(n: int) -> int:
    """Bell(n) — how many partitions exact search must consider."""
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
    return row[0]


@dataclass
class CoalitionSolution:
    """Result of a coalition-structure search."""

    partition: Optional[Partition]
    trust: float
    stable: bool
    partitions_examined: int = 0
    stable_partitions: int = 0
    method: str = "exact"
    history: List = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.partition is not None


def solve_exact(
    network: TrustNetwork,
    op: str | CompositionOp = "min",
    aggregate: str | CompositionOp = "min",
    require_stability: bool = True,
) -> CoalitionSolution:
    """Best (stable) partition by exhaustive enumeration.

    With ``require_stability`` (the paper's mandatory condition) only
    partitions free of blocking coalitions compete; switch it off to
    measure how much guaranteeing stability costs in objective value.
    """
    best_partition: Optional[Partition] = None
    best_trust = float("-inf")
    examined = 0
    stable_count = 0

    for partition in enumerate_partitions(network.agents):
        examined += 1
        stable = is_stable(partition, network, op)
        if stable:
            stable_count += 1
        if require_stability and not stable:
            continue
        score = partition_trust(partition, network, op, aggregate)
        if score > best_trust:
            best_trust = score
            best_partition = partition

    if best_partition is None:
        return CoalitionSolution(
            partition=None,
            trust=0.0,
            stable=False,
            partitions_examined=examined,
            stable_partitions=stable_count,
        )
    return CoalitionSolution(
        partition=best_partition,
        trust=best_trust,
        stable=is_stable(best_partition, network, op),
        partitions_examined=examined,
        stable_partitions=stable_count,
    )


def grand_coalition(network: TrustNetwork) -> Partition:
    """Everyone together — a common reference structure."""
    return normalize_partition([set(network.agents)])


def singletons(network: TrustNetwork) -> Partition:
    """Everyone alone — the other reference structure."""
    return normalize_partition([{agent} for agent in network.agents])
