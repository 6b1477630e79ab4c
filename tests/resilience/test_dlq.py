"""Dead-letter queue: capture, persistence, and replay fidelity."""

import pytest

from repro.constraints import ConstantConstraint
from repro.resilience import (
    DLQConfig,
    DLQError,
    DeadLetterQueue,
    ResilienceConfig,
    replay_letter,
)
from repro.runtime import (
    RetryPolicy,
    RuntimeConfig,
    RuntimeServer,
    SessionResult,
    SessionStatus,
)
from repro.semirings import FuzzySemiring
from repro.soa import (
    BernoulliCrash,
    Broker,
    BrokerConfig,
    ClientRequest,
    FaultInjector,
)


def failed_result(request, index=0, session_key=None, detail="boom"):
    return SessionResult(
        request=request,
        status=SessionStatus.FAILED,
        detail=detail,
        attempts=3,
        index=index,
        session_key=session_key,
    )


#: Fast retries so a crash-everything run exhausts attempts quickly.
FAST_RETRY = RetryPolicy(max_attempts=2, base_backoff_s=0.001)


def crashed_run(broker, requests, seed=5):
    """Serve ``requests`` against a market where every provider crashes,
    capturing the terminal sessions in a DLQ; returns (results, dlq)."""
    injector = FaultInjector(seed=0)
    for description in broker.registry.find(include_unavailable=True):
        injector.attach(description.service_id, BernoulliCrash(1.0))
    server = RuntimeServer(
        broker,
        RuntimeConfig(
            workers=2, seed=seed, retry=FAST_RETRY, probe_interval_s=0.0
        ),
        injector=injector,
        resilience=ResilienceConfig(dlq=DLQConfig()),
    )
    results = server.run(requests)
    return results, server.resilience.dlq


class TestCapture:
    def test_captures_only_configured_statuses(self, make_request):
        queue = DeadLetterQueue()
        request = make_request("C")
        assert queue.capture(failed_result(request)) is not None
        ok = SessionResult(request=request, status=SessionStatus.COMPLETED)
        assert queue.capture(ok) is None
        rejected = SessionResult(
            request=request, status=SessionStatus.REJECTED
        )
        assert queue.capture(rejected) is None
        assert len(queue) == 1

    def test_envelopes_carry_reproducibility_coordinates(self, make_request):
        queue = DeadLetterQueue()
        letter = queue.capture(
            failed_result(make_request("C"), index=7, session_key="k7"),
            master_seed=42,
            tick=19,
        )
        assert (letter.master_seed, letter.tick) == (42, 19)
        assert (letter.session_key, letter.index) == ("k7", 7)
        assert letter.seq == 0 and letter.replayable
        # Without an explicit tick the admission index stands in.
        second = queue.capture(failed_result(make_request("D"), index=8))
        assert second.tick == 8 and second.seq == 1

    def test_overflow_drops_oldest(self, make_request):
        queue = DeadLetterQueue(DLQConfig(maxlen=2))
        for i in range(3):
            queue.capture(failed_result(make_request(f"C{i}"), index=i))
        assert [letter.seq for letter in queue] == [1, 2]
        assert queue.dropped == 1
        assert queue.captured_total == 3
        assert queue.stats() == {
            "depth": 2,
            "captured_total": 3,
            "dropped": 1,
            "by_status": {"failed": 2},
        }

    def test_rejects_bad_config(self):
        with pytest.raises(DLQError):
            DLQConfig(maxlen=0)
        with pytest.raises(DLQError):
            DLQConfig(capture_statuses=())


class TestPersistence:
    def test_jsonl_round_trip(self, make_request, tmp_path):
        queue = DeadLetterQueue()
        queue.capture(
            failed_result(make_request("C"), session_key="k0"),
            master_seed=9,
        )
        queue.capture(failed_result(make_request("D"), index=1))
        path = queue.to_jsonl(tmp_path / "dead" / "letters.jsonl")
        restored = DeadLetterQueue.from_jsonl(path)
        assert [letter.to_dict() for letter in restored] == [
            letter.to_dict() for letter in queue
        ]
        # The seq counter resumes past the loaded envelopes.
        follow_up = restored.capture(failed_result(make_request("E")))
        assert follow_up.seq == 2


class TestReplay:
    def test_replay_reproduces_the_original_agreement(
        self, market, make_request
    ):
        """Acceptance criterion: the agreement a replayed envelope signs
        is exactly the one a healthy market would have given the
        original request."""
        requests = [make_request(f"C{i}") for i in range(4)]
        results, dlq = crashed_run(Broker(market), requests)
        # Retries exhausted everywhere: every session was captured.
        assert all(
            r.status is not SessionStatus.COMPLETED for r in results
        )
        assert len(dlq) == len(requests)

        healthy = Broker(market)
        expected = healthy.negotiate(make_request("reference")).sla
        rows = dlq.replay(healthy)
        assert [row["outcome"] for row in rows] == ["completed"] * 4
        for row in rows:
            assert row["sla"]["agreed_level"] == expected.agreed_level
            assert row["sla"]["service_ids"] == list(expected.service_ids)
            assert row["sla"]["resource_assignment"] == {
                name: value
                for name, value in sorted(
                    expected.resource_assignment.items()
                )
            }

    def test_replay_against_a_runtime_server(self, market, make_request):
        results, dlq = crashed_run(Broker(market), [make_request("C")])
        server = RuntimeServer(
            Broker(market),
            RuntimeConfig(workers=1, seed=0, probe_interval_s=0.0),
        )
        rows = dlq.replay(server)
        assert rows[0]["outcome"] == "completed"
        assert rows[0]["sla"]["agreed_level"] is not None

    def test_unserializable_request_is_kept_but_flagged(self):
        class CustomSemiring(FuzzySemiring):
            @property
            def name(self):
                return "custom"

        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[ConstantConstraint(CustomSemiring(), 0.5)],
        )
        queue = DeadLetterQueue()
        letter = queue.capture(failed_result(request))
        assert letter is not None and not letter.replayable
        with pytest.raises(DLQError):
            letter.to_request()
        row = replay_letter(letter, target=object())
        assert row["outcome"] == "unreplayable"

    def test_replay_rejects_unknown_targets(self, make_request):
        queue = DeadLetterQueue()
        letter = queue.capture(failed_result(make_request("C")))
        with pytest.raises(DLQError):
            replay_letter(letter, target=object())


class TestReplayConfigCheck:
    """An envelope records its broker's config; replay refuses a target
    configured differently, since it could sign a different agreement."""

    def test_envelopes_record_the_broker_config(self, market, make_request):
        broker = Broker(market, BrokerConfig(slo_penalty=0.3))
        _, dlq = crashed_run(broker, [make_request("C")])
        assert [letter.broker_config for letter in dlq] == [
            broker.config.to_dict()
        ]

    def test_mismatched_broker_config_is_refused(
        self, market, make_request, tmp_path
    ):
        _, dlq = crashed_run(
            Broker(market, BrokerConfig(slo_penalty=0.3)),
            [make_request("C")],
        )
        restored = DeadLetterQueue.from_jsonl(dlq.to_jsonl(tmp_path / "d"))
        with pytest.raises(DLQError, match="slo_penalty"):
            restored.replay(Broker(market))
        server = RuntimeServer(
            Broker(market), RuntimeConfig(workers=1, probe_interval_s=0.0)
        )
        with pytest.raises(DLQError, match="slo_penalty"):
            restored.replay(server)
        rows = restored.replay(Broker(market, BrokerConfig(slo_penalty=0.3)))
        assert rows[0]["outcome"] == "completed"

    def test_envelopes_without_a_config_replay_as_before(
        self, market, make_request
    ):
        queue = DeadLetterQueue()
        queue.capture(failed_result(make_request("C")))
        assert queue.letters()[0].broker_config is None
        rows = queue.replay(Broker(market, BrokerConfig(slo_penalty=0.3)))
        assert rows[0]["outcome"] == "completed"
