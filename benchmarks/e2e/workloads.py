"""Seeded inputs and serving stacks for the end-to-end benchmark.

Every workload is a market (a :class:`~repro.soa.registry.ServiceRegistry`
of providers with ``cost`` policies, Weighted semiring) plus a stream of
:class:`~repro.soa.broker.ClientRequest` sessions.  Each market is a fixed
fixture, the same in every window and for every seed, so per-run numbers
do not swing with one market's difficulty; the request stream is drawn
from ``(seed, window, session index)``.  The
numbers behind each market and request are kept as plain numpy arrays so
:mod:`oracle` can brute-force every agreement without going through the
program under test.

All costs are integers or dyadic rationals of a few bits, so every sum
is exact in binary64 and the oracle can demand bit-equal levels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constraints.polynomial import Polynomial, polynomial_constraint
from repro.constraints.table import TableConstraint
from repro.constraints.variables import Variable
from repro.fleet import FleetConfig, FleetFrontend
from repro.runtime import RuntimeConfig, RuntimeServer
from repro.sccp.check import CheckSpec
from repro.soa.broker import Broker, ClientRequest
from repro.soa.qos import QoSDocument, QoSPolicy
from repro.soa.registry import ServiceRegistry
from repro.soa.service import ServiceDescription, ServiceInterface
from repro.semirings.weighted import WeightedSemiring

from oracle import Problem

#: Sessions served before the timed window; ``setup_s`` ends when the
#: last of them finishes.
WARMUP_SESSIONS = 16
#: Concurrent clients of every closed loop (and of every warm-up).
CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix: which market, how requests arrive, how served
    (why each exists: ``BENCHMARK.json`` and ``README.md``)."""

    name: str
    #: Input family: ``poly`` (8 polynomial offers over one variable),
    #: ``chain`` (pairwise tables over six variables) or ``verify``
    #: (three-variable tables, nmsccp-verified).
    family: str
    #: ``closed``: ``CLIENTS`` loops, each waiting for its reply;
    #: ``open``: Poisson arrivals at ``rate`` sessions/s.
    loop: str = "closed"
    rate: float = 0.0
    #: > 0: every request is drawn from this many prebuilt requests.
    pool: int = 0
    fleet: bool = False
    verify: bool = False
    #: Traced layers that must record at least one call.
    layers: Tuple[str, ...] = ()


_COMMON_LAYERS = (
    "broker.negotiate",
    "registry.find",
    "solver.solve",
    "qos.compile",
    "sla.combine",
    "sla.add",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "unique-market",
            family="poly",
            layers=_COMMON_LAYERS + ("store.acceptance",),
        ),
        Workload(
            "hot-market",
            family="poly",
            loop="open",
            rate=300.0,
            pool=16,
            layers=_COMMON_LAYERS + ("store.acceptance",),
        ),
        Workload(
            "chain-market",
            family="chain",
            layers=_COMMON_LAYERS,
        ),
        Workload(
            "verified-market",
            family="verify",
            verify=True,
            layers=_COMMON_LAYERS + ("store.acceptance", "sccp.verify"),
        ),
        Workload(
            "fleet-unique",
            family="poly",
            fleet=True,
            layers=_COMMON_LAYERS + ("store.acceptance",),
        ),
    )
}


# ----------------------------------------------------------------------
# Input families
# ----------------------------------------------------------------------


@dataclass
class _Market:
    """A market's numbers: per-provider cost tables over named variables."""

    operation: str
    variables: Tuple[Variable, ...]
    #: provider service id → list of (variable names, cost array).
    offers: Dict[str, List[Tuple[Tuple[str, ...], np.ndarray]]]
    #: provider service id → polynomial policy ``(slope, base)`` (poly
    #: family; the array form is kept in ``offers`` for the oracle).
    polynomials: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    lower: Optional[float] = None


@dataclass
class RequestSpec:
    """The numbers of one session's requirements."""

    index: int
    client: str
    #: list of (variable names, cost array) requirements.
    tables: List[Tuple[Tuple[str, ...], np.ndarray]]
    #: poly family: requirement ``a·(8−x) + b``.
    linear: Optional[Tuple[float, float]] = None


def _rng(*parts: Any) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def _int_table(rng: random.Random, shape: Tuple[int, ...], high: int) -> np.ndarray:
    values = [rng.randint(0, high) for _ in range(int(np.prod(shape)))]
    return np.array(values, dtype=float).reshape(shape)


def _poly_market() -> _Market:
    rng = _rng("poly-market")
    x = Variable("x", tuple(range(9)))
    offers, polynomials = {}, {}
    for index in range(8):
        slope = 1.0 + (index % 3)
        base = rng.randint(8, 72) / 4.0
        sid = f"render-P{index}"
        polynomials[sid] = (slope, base)
        offers[sid] = [(("x",), slope * np.arange(9.0) + base)]
    return _Market("render", (x,), offers, polynomials, lower=60.0)


def _chain_market() -> _Market:
    rng = _rng("chain-market")
    variables = tuple(Variable(f"r{k}", tuple(range(6))) for k in range(6))
    offers = {}
    for index in range(4):
        offers[f"route-P{index}"] = [
            ((f"r{k}", f"r{k + 1}"), _int_table(rng, (6, 6), 30))
            for k in range(5)
        ]
    return _Market("route", variables, offers, lower=None)


def _verify_market() -> _Market:
    rng = _rng("verify-market")
    variables = tuple(Variable(name, tuple(range(4))) for name in "xyz")
    offers = {}
    for index in range(4):
        offers[f"audit-P{index}"] = [
            (("x",), _int_table(rng, (4,), 9)),
            (("y", "z"), _int_table(rng, (4, 4), 9)),
            (("x", "y"), _int_table(rng, (4, 4), 9)),
        ]
    return _Market("audit", variables, offers, lower=14.0)


_MARKETS = {"poly": _poly_market, "chain": _chain_market, "verify": _verify_market}


class Inputs:
    """One window's market and request stream, fully determined by
    ``(family, seed, window)``; the serving stack never sees the seed."""

    #: Poly requirements carry ``index / 2**20`` in their constant, so no
    #: two sessions of a window ever share a requirement (and a solve).
    UNIQUE_STEP = 2.0**-20

    def __init__(self, workload: Workload, seed: int, window: int) -> None:
        self.workload = workload
        self.seed = seed
        self.window = window
        self.semiring = WeightedSemiring()
        self.market = _MARKETS[workload.family]()
        self._vars = {var.name: var for var in self.market.variables}
        self._pool: List[Tuple[RequestSpec, ClientRequest]] = [
            self._build(self._spec(k)) for k in range(workload.pool)
        ]

    # -- market ---------------------------------------------------------

    def registry(self) -> ServiceRegistry:
        """A fresh registry publishing the market."""
        market = self.market
        registry = ServiceRegistry()
        for sid, tables in market.offers.items():
            provider = sid.rsplit("-", 1)[1]
            if sid in market.polynomials:
                slope, base = market.polynomials[sid]
                (name,), _ = tables[0]
                policies = [
                    QoSPolicy(
                        attribute="cost",
                        variables={name: self._vars[name].domain},
                        polynomial=Polynomial.linear({name: slope}, base),
                    )
                ]
            else:
                policies = [
                    QoSPolicy(
                        attribute="cost",
                        variables={n: self._vars[n].domain for n in names},
                        table=_as_table(names, costs, self._vars),
                    )
                    for names, costs in tables
                ]
            registry.publish(
                ServiceDescription(
                    service_id=sid,
                    name=market.operation,
                    provider=provider,
                    interface=ServiceInterface(operation=market.operation),
                    qos=QoSDocument(market.operation, provider, policies),
                )
            )
        return registry

    # -- requests -------------------------------------------------------

    def request(self, index: int) -> Tuple[RequestSpec, ClientRequest]:
        """Session ``index``'s requirements and the request built from
        them.  Pooled workloads cycle the pool during warm-up (so every
        entry is warm) and draw from it afterwards."""
        if self._pool:
            if index < WARMUP_SESSIONS:
                return self._pool[index % len(self._pool)]
            pick = _rng("pick", self.seed, self.window, index)
            return self._pool[pick.randrange(len(self._pool))]
        return self._build(self._spec(index))

    def _spec(self, index: int) -> RequestSpec:
        family = self.workload.family
        rng = _rng(family, "request", self.seed, self.window, index)
        client = f"c{index % 64}"
        while True:
            if family == "poly":
                a = rng.randint(4, 24) / 4.0
                b = rng.randint(5, 40) + index * self.UNIQUE_STEP
                tables = [(("x",), -a * np.arange(9.0) + (8.0 * a + b))]
                spec = RequestSpec(index, client, tables, linear=(a, b))
            elif family == "chain":
                tables = [
                    (("r0",), _int_table(rng, (6,), 20)),
                    (("r5",), _int_table(rng, (6,), 20)),
                ]
                spec = RequestSpec(index, client, tables)
            else:
                tables = [
                    (("x",), _int_table(rng, (4,), 9)),
                    (("y",), _int_table(rng, (4,), 9)),
                    (("x", "z"), _int_table(rng, (4, 4), 9)),
                ]
                spec = RequestSpec(index, client, tables)
            # Redraw until some provider accepts: no session may fail.
            # (Without an acceptance bound every finite level is accepted.)
            if self.market.lower is None or self.problem(spec).accepted().any():
                return spec

    def _build(self, spec: RequestSpec) -> Tuple[RequestSpec, ClientRequest]:
        semiring = self.semiring
        if spec.linear is not None:
            a, b = spec.linear
            requirements = [
                polynomial_constraint(
                    semiring,
                    [self._vars["x"]],
                    Polynomial.linear({"x": -a}, 8.0 * a + b),
                    name=f"demand-{spec.index}",
                )
            ]
        else:
            requirements = [
                TableConstraint(
                    semiring,
                    [self._vars[n] for n in names],
                    _as_table(names, costs, self._vars),
                    name=f"demand-{spec.index}-{'.'.join(names)}",
                )
                for names, costs in spec.tables
            ]
        lower = self.market.lower
        request = ClientRequest(
            client=spec.client,
            operation=self.market.operation,
            attribute="cost",
            requirements=requirements,
            acceptance=(
                CheckSpec(semiring, lower=lower) if lower is not None else None
            ),
        )
        return spec, request

    # -- oracle view ----------------------------------------------------

    def problem(self, spec: RequestSpec) -> Problem:
        """The numpy joint-cost tensor of one session, per provider."""
        names = tuple(var.name for var in self.market.variables)
        sizes = tuple(var.size for var in self.market.variables)
        requirement = np.zeros(sizes)
        for scope, costs in spec.tables:
            requirement = requirement + _broadcast(scope, costs, names)
        providers = tuple(sorted(self.market.offers))
        costs = np.stack(
            [
                requirement
                + sum(
                    _broadcast(scope, table, names)
                    for scope, table in self.market.offers[sid]
                )
                for sid in providers
            ]
        )
        return Problem(
            variables=names,
            domains=tuple(var.domain for var in self.market.variables),
            providers=providers,
            costs=costs,
            lower=self.market.lower,
        )


def _as_table(
    names: Tuple[str, ...], costs: np.ndarray, variables: Dict[str, Variable]
) -> Dict[Tuple[Any, ...], float]:
    domains = [variables[n].domain for n in names]
    return {
        tuple(domain[i] for domain, i in zip(domains, position)): float(value)
        for position, value in np.ndenumerate(costs)
    }


def _broadcast(
    scope: Tuple[str, ...], costs: np.ndarray, names: Tuple[str, ...]
) -> np.ndarray:
    """``costs`` (axes in ``scope`` order) as an array over all ``names``."""
    order = sorted(range(len(scope)), key=lambda k: names.index(scope[k]))
    aligned = np.transpose(costs, order)
    shape = [1] * len(names)
    for k in order:
        shape[names.index(scope[k])] = costs.shape[k]
    return aligned.reshape(shape)


# ----------------------------------------------------------------------
# Serving stacks
# ----------------------------------------------------------------------


class Serving:
    """The stack a workload is served by: one ``RuntimeServer`` with two
    workers, or a ``FleetFrontend`` of two one-worker shards."""

    def __init__(self, workload: Workload, registry: ServiceRegistry, seed: int):
        if workload.fleet:
            self.frontend = FleetFrontend(
                registry,
                FleetConfig(shards=2, workers_per_shard=1, seed=seed),
            )
            self.server = None
        else:
            self.frontend = None
            self.server = RuntimeServer(
                Broker(registry),
                RuntimeConfig(
                    workers=2, seed=seed, verify_independence=workload.verify
                ),
            )
        self._target = self.frontend or self.server

    async def start(self) -> None:
        await self._target.start()

    async def stop(self) -> None:
        await self._target.stop()

    def submit(self, request: ClientRequest):
        return self._target.submit(request)

    def solve_cache_counts(self) -> Dict[str, int]:
        """Solve-cache lookups and hits (summed over tiers for a fleet)."""
        if self.frontend is None:
            stats = self.server.broker.solve_cache.stats()
            lookups = stats["hits"] + stats["misses"]
            return {"lookups": lookups, "hits": stats["hits"]}
        fleet = self.frontend.cache_stats()
        l1_hits = sum(s["l1"]["hits"] for s in fleet["per_shard"].values())
        l1_lookups = l1_hits + sum(
            s["l1"]["misses"] for s in fleet["per_shard"].values()
        )
        l2 = fleet["l2"]
        return {
            "lookups": l1_lookups,
            "hits": l1_hits + l2["hits"],
            "l1_lookups": l1_lookups,
            "l1_hits": l1_hits,
            "l2_lookups": l2["hits"] + l2["misses"],
            "l2_hits": l2["hits"],
        }
