"""The constraint store's telemetry instruments.

The store emits one counter family, ``store_factors_total`` — one
sample per told factor.  It must reach the Prometheus exposition through
an enabled session and stay silent (null registry, zero overhead) outside
one.
"""

import random

from repro.constraints import (
    TableConstraint,
    empty_store,
    variable,
)
from repro.semirings import WeightedSemiring
from repro.telemetry import telemetry_session, to_prometheus


def _constraints(seed=0):
    rng = random.Random(seed)
    semiring = WeightedSemiring()
    x = variable("x", ["a", "b"])
    y = variable("y", ["a", "b"])
    c1 = TableConstraint(
        semiring, [x], {("a",): float(rng.randint(0, 9)), ("b",): 2.0}
    )
    c2 = TableConstraint(
        semiring,
        [x, y],
        {
            key: float(rng.randint(0, 9))
            for key in (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
        },
    )
    return semiring, c1, c2


class TestStoreFactorsTotal:
    def test_counts_told_factors(self):
        semiring, c1, c2 = _constraints(seed=11)
        with telemetry_session() as session:
            empty_store(semiring).tell(c1).tell(c2)
            snapshot = {
                (m["name"], tuple(sorted(s["labels"].items()))): s["value"]
                for m in session.registry.snapshot()["metrics"]
                for s in m["samples"]
            }
        assert snapshot[("store_factors_total", ())] == 2.0

    def test_exposed_in_prometheus_format(self):
        semiring, c1, _ = _constraints(seed=23)
        with telemetry_session() as session:
            empty_store(semiring).tell(c1)
            text = to_prometheus(session.registry)
        assert "store_factors_total 1" in text.splitlines()

    def test_silent_outside_a_session(self):
        semiring, c1, _ = _constraints(seed=41)
        store = empty_store(semiring).tell(c1)
        store.consistency()  # must not raise, must not record anything
        with telemetry_session() as session:
            text = to_prometheus(session.registry)
        assert "store_factors_total" not in text
