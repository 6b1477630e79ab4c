"""repro.fleet — the sharded multi-broker serving fleet.

Scales the serving path horizontally (ROADMAP item 1): a seeded
consistent-hash ring partitions the session space (and optionally the
registry, by operation) across N :class:`~repro.runtime.RuntimeServer`
broker shards; a front-end load balancer hands each session straight
to its owning shard's server under one fleet-wide admission bound
(typed ``Overloaded`` backpressure), with shard-aware redirect when a
reshard moves a queued session's key; and every shard's solve cache becomes
the L1 of a two-tier stack over one fleet-wide L2 keyed by the SHA-256
problem fingerprint.  Determinism: per-session RNG streams derive from
``(master seed, session key)``, so a fleet run's agreements are
independent of shard count.
"""

from .cache import DEFAULT_L2_CACHE_SIZE, TieredSolveCache
from .frontend import (
    FleetConfig,
    FleetError,
    FleetFrontend,
    ROUTE_MODES,
    partition_registry,
)
from .loadgen import FleetLoadGenerator, FleetLoadReport
from .ring import DEFAULT_VNODES, HashRing, RingError, hash_key

__all__ = [
    "HashRing",
    "RingError",
    "hash_key",
    "DEFAULT_VNODES",
    "TieredSolveCache",
    "DEFAULT_L2_CACHE_SIZE",
    "FleetFrontend",
    "FleetConfig",
    "FleetError",
    "ROUTE_MODES",
    "partition_registry",
    "FleetLoadGenerator",
    "FleetLoadReport",
]
