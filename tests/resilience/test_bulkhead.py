"""Bulkheads: per-class slots, and the runtime's typed rejection."""

import pytest

from repro.resilience import (
    Bulkhead,
    BulkheadConfig,
    BulkheadError,
    ResilienceConfig,
)
from repro.runtime import RuntimeConfig, RuntimeServer, SessionStatus


class TestBulkhead:
    def test_rejects_past_the_class_limit(self):
        bulkhead = Bulkhead(BulkheadConfig(default_limit=2))
        assert bulkhead.try_acquire("render")
        assert bulkhead.try_acquire("render")
        assert not bulkhead.try_acquire("render")
        assert bulkhead.rejections == {"render": 1}

    def test_classes_are_isolated(self):
        bulkhead = Bulkhead(BulkheadConfig(default_limit=1))
        assert bulkhead.try_acquire("render")
        assert not bulkhead.try_acquire("render")
        assert bulkhead.try_acquire("store")  # other hull compartment

    def test_release_reopens_the_compartment(self):
        bulkhead = Bulkhead(BulkheadConfig(default_limit=1))
        assert bulkhead.try_acquire("render")
        bulkhead.release("render")
        assert bulkhead.try_acquire("render")
        assert bulkhead.inflight("render") == 1

    def test_one_limit_caps_every_class(self):
        bulkhead = Bulkhead(BulkheadConfig(default_limit=2))
        for cls in ("bulk", "vip"):
            assert bulkhead.try_acquire(cls)
            assert bulkhead.try_acquire(cls)
            assert not bulkhead.try_acquire(cls)
        assert bulkhead.rejections == {"bulk": 1, "vip": 1}

    def test_unmatched_release_raises(self):
        bulkhead = Bulkhead()
        with pytest.raises(BulkheadError):
            bulkhead.release("render")

    def test_rejects_bad_config(self):
        with pytest.raises(BulkheadError):
            BulkheadConfig(default_limit=0)


class TestRuntimeIntegration:
    def test_full_compartment_yields_typed_rejection(
        self, broker, make_request
    ):
        # One worker, slow-ish sessions: with a 1-slot compartment only
        # one of the burst is admitted, the rest bounce immediately.
        server = RuntimeServer(
            broker,
            RuntimeConfig(workers=1, seed=0, probe_interval_s=0.0),
            resilience=ResilienceConfig(
                bulkhead=BulkheadConfig(default_limit=1)
            ),
        )
        results = server.run([make_request(f"C{i}") for i in range(4)])
        statuses = sorted(r.status.value for r in results)
        assert statuses.count("bulkhead-rejected") == 3
        assert statuses.count("completed") == 1
        rejected = [
            r for r in results
            if r.status is SessionStatus.BULKHEAD_REJECTED
        ]
        assert all("compartment" in r.detail for r in rejected)
        # Slots were released: a follow-up burst is admitted again.
        follow_up = server.run([make_request("D")])
        assert follow_up[0].status is SessionStatus.COMPLETED
