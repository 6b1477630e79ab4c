"""Dead-letter queue: terminal failures captured for replay.

A session that exhausts its retries without an SLA (and has nothing to
degrade to) used to evaporate into a counter.  The DLQ keeps it: the
full request is serialized into a JSON *envelope* — via the same wire
format every other declarative object uses
(:mod:`repro.serialization`) — together with the reproducibility
coordinates (master seed, session key, fault tick), bounded in memory
with drop-oldest overflow, and persistable as JSON lines.

Because negotiation is deterministic given the market and the request,
replaying an envelope against a recovered broker (``repro dlq replay``)
re-produces exactly the agreement the session would have signed had its
providers been up — the acceptance test for the whole resilience layer's
bookkeeping.

Function-valued requirements are materialized to tables on capture when
possible; a request that genuinely cannot serialize is still captured
(status, detail, coordinates) but flagged ``replayable: false``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .. import serialization
from ..config import POSITIVE_INT, Config, knob
from ..sccp.check import CheckSpec
from ..soa.broker import ClientRequest
from ..telemetry import get_events, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.server import SessionResult


class DLQError(Exception):
    """Raised on malformed envelopes or replay misuse."""


@dataclass(frozen=True)
class DLQConfig(Config):
    """Knobs of the dead-letter queue."""

    error = DLQError

    #: Envelopes kept in memory; overflow drops the oldest.
    maxlen: int = knob(1024, range=POSITIVE_INT)
    #: Session outcomes captured (``SessionStatus.value`` strings).
    #: Both defaults are the retries-exhausted outcomes: ``failed``
    #: (nothing to serve) and ``degraded`` (a stale SLA was served —
    #: the envelope records the request whose *fresh* agreement is
    #: still owed).
    capture_statuses: tuple = ("failed", "degraded")

    def _check(self) -> None:
        if not self.capture_statuses:
            raise DLQError("capture_statuses must not be empty")


@dataclass
class DeadLetter:
    """One captured terminal failure."""

    client: str
    operation: str
    attribute: str
    status: str
    detail: str = ""
    attempts: int = 0
    index: int = -1
    session_key: Optional[str] = None
    tick: Optional[int] = None
    master_seed: Optional[int] = None
    #: Serialized requirements/acceptance (absent ⇒ not replayable).
    requirements: Optional[List[Dict[str, Any]]] = None
    acceptance: Optional[Dict[str, Any]] = None
    replayable: bool = True
    #: Capture ordinal within this queue (stable replay order).
    seq: int = 0
    #: The capturing broker's ``BrokerConfig.to_dict()`` (``None`` for
    #: envelopes captured before configs were recorded).
    broker_config: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "dead-letter",
            "seq": self.seq,
            "client": self.client,
            "operation": self.operation,
            "attribute": self.attribute,
            "status": self.status,
            "detail": self.detail,
            "attempts": self.attempts,
            "index": self.index,
            "session_key": self.session_key,
            "tick": self.tick,
            "master_seed": self.master_seed,
            "requirements": self.requirements,
            "acceptance": self.acceptance,
            "replayable": self.replayable,
            "broker_config": self.broker_config,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DeadLetter":
        if payload.get("kind") != "dead-letter":
            raise DLQError("payload is not a dead-letter envelope")
        return cls(
            client=payload["client"],
            operation=payload["operation"],
            attribute=payload["attribute"],
            status=payload["status"],
            detail=payload.get("detail", ""),
            attempts=payload.get("attempts", 0),
            index=payload.get("index", -1),
            session_key=payload.get("session_key"),
            tick=payload.get("tick"),
            master_seed=payload.get("master_seed"),
            requirements=payload.get("requirements"),
            acceptance=payload.get("acceptance"),
            replayable=payload.get("replayable", True),
            seq=payload.get("seq", 0),
            broker_config=payload.get("broker_config"),
            extra=payload.get("extra", {}),
        )

    # -- rehydration ---------------------------------------------------

    def to_request(self) -> ClientRequest:
        """Rebuild the original :class:`ClientRequest`."""
        if not self.replayable:
            raise DLQError(
                f"envelope #{self.seq} was captured without a "
                "serializable request"
            )
        requirements = [
            serialization.constraint_from_dict(payload)
            for payload in (self.requirements or [])
        ]
        acceptance = None
        if self.acceptance is not None:
            acceptance = CheckSpec(
                serialization.semiring_from_dict(
                    self.acceptance["semiring"]
                ),
                lower=serialization.value_from_json(
                    self.acceptance.get("lower")
                ),
                upper=serialization.value_from_json(
                    self.acceptance.get("upper")
                ),
            )
        return ClientRequest(
            client=self.client,
            operation=self.operation,
            attribute=self.attribute,
            requirements=requirements,
            acceptance=acceptance,
        )


class DeadLetterQueue:
    """Bounded capture buffer + JSONL persistence + replay."""

    def __init__(self, config: Optional[DLQConfig] = None) -> None:
        self.config = config or DLQConfig()
        self._letters: List[DeadLetter] = []
        self._captured = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def wants(self, status_value: str) -> bool:
        return status_value in self.config.capture_statuses

    def capture(
        self,
        result: "SessionResult",
        master_seed: Optional[int] = None,
        tick: Optional[int] = None,
        broker_config: Optional[Dict[str, Any]] = None,
    ) -> Optional[DeadLetter]:
        """Envelope one terminal session result (if its status is
        captured); returns the envelope or ``None``.  ``broker_config``
        is the serving broker's ``BrokerConfig.to_dict()``."""
        if not self.wants(result.status.value):
            return None
        request = result.request
        requirements: Optional[List[Dict[str, Any]]] = None
        acceptance: Optional[Dict[str, Any]] = None
        replayable = True
        try:
            requirements = [
                serialization.constraint_to_dict(constraint)
                for constraint in request.requirements
            ]
            if request.acceptance is not None:
                spec = request.acceptance
                acceptance = {
                    "semiring": serialization.semiring_to_dict(spec.semiring),
                    "lower": serialization.value_to_json(spec.lower),
                    "upper": serialization.value_to_json(spec.upper),
                }
        except serialization.SerializationError:
            requirements = None
            acceptance = None
            replayable = False
        letter = DeadLetter(
            client=request.client,
            operation=request.operation,
            attribute=request.attribute,
            status=result.status.value,
            detail=result.detail,
            attempts=result.attempts,
            index=result.index,
            session_key=result.session_key,
            tick=tick if tick is not None else result.index,
            master_seed=master_seed,
            requirements=requirements,
            acceptance=acceptance,
            replayable=replayable,
            seq=self._captured,
            broker_config=broker_config,
        )
        self._captured += 1
        self._letters.append(letter)
        if len(self._letters) > self.config.maxlen:
            self._letters.pop(0)
            self.dropped += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "dlq_captured_total",
                "Terminal sessions captured into the dead-letter queue.",
                labelnames=("status",),
            ).labels(letter.status).inc()
            registry.gauge(
                "dlq_depth",
                "Envelopes currently held by the dead-letter queue.",
            ).set(len(self._letters))
        get_events().emit(
            "dlq.captured",
            client=letter.client,
            operation=letter.operation,
            status=letter.status,
            session_key=letter.session_key,
        )
        return letter

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    @property
    def captured_total(self) -> int:
        return self._captured

    def letters(self) -> List[DeadLetter]:
        return list(self._letters)

    def stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for letter in self._letters:
            by_status[letter.status] = by_status.get(letter.status, 0) + 1
        return {
            "depth": len(self._letters),
            "captured_total": self._captured,
            "dropped": self.dropped,
            "by_status": by_status,
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_jsonl(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for letter in self._letters:
                handle.write(json.dumps(letter.to_dict()) + "\n")
        return path

    @classmethod
    def from_jsonl(
        cls, path: "str | Path", config: Optional[DLQConfig] = None
    ) -> "DeadLetterQueue":
        queue = cls(config or DLQConfig())
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            letter = DeadLetter.from_dict(json.loads(line))
            queue._letters.append(letter)
            queue._captured = max(queue._captured, letter.seq + 1)
        return queue

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def replay(self, target: Any) -> List[Dict[str, Any]]:
        """Re-drive every replayable envelope against ``target``.

        ``target`` is a :class:`~repro.soa.broker.Broker` (direct
        negotiation) or anything server-shaped with ``run`` /
        ``submit(session_key=…)`` (a
        :class:`~repro.runtime.server.RuntimeServer` or a fleet
        front-end).  Returns one summary row per envelope.

        Raises :class:`DLQError`, before replaying anything, when an
        envelope recorded a broker config that differs from the
        target's: a differently configured broker can sign a different
        agreement.  Envelopes without a recorded config replay as is.
        """
        config = _broker_config(target)
        for letter in self._letters:
            recorded = letter.broker_config
            if recorded is None or config is None or recorded == config:
                continue
            differing = sorted(
                key
                for key in recorded.keys() | config.keys()
                if recorded.get(key) != config.get(key)
            )
            raise DLQError(
                f"envelope #{letter.seq} was captured by a broker whose "
                f"config differs from the replay target's in "
                f"{', '.join(differing)}: captured {recorded}, target "
                f"{config}"
            )
        rows: List[Dict[str, Any]] = []
        for letter in self._letters:
            rows.append(replay_letter(letter, target))
        registry = get_registry()
        if registry.enabled and rows:
            counter = registry.counter(
                "dlq_replayed_total",
                "Dead-letter envelopes re-driven, by outcome.",
                labelnames=("outcome",),
            )
            for row in rows:
                counter.labels(row["outcome"]).inc()
        return rows


def _broker_config(target: Any) -> Optional[Dict[str, Any]]:
    """The broker config of a replay target (broker, server or fleet)."""
    config = getattr(target, "config", None)
    if hasattr(target, "broker"):  # a RuntimeServer
        config = target.broker.config
    config = getattr(config, "broker", config)  # a fleet's subtree
    return config.to_dict() if hasattr(config, "to_dict") else None


def replay_letter(letter: DeadLetter, target: Any) -> Dict[str, Any]:
    """Replay one envelope; returns a JSON-able summary row."""
    row: Dict[str, Any] = {
        "seq": letter.seq,
        "client": letter.client,
        "operation": letter.operation,
        "original_status": letter.status,
    }
    if not letter.replayable:
        row["outcome"] = "unreplayable"
        return row
    request = letter.to_request()
    if hasattr(target, "negotiate"):
        result = target.negotiate(request)
        row["outcome"] = "completed" if result.success else "rejected"
        row["detail"] = result.detail
        if result.sla is not None:
            row["sla"] = {
                **serialization.sla_to_dict(result.sla),
                "resource_assignment": {
                    name: serialization.value_to_json(value)
                    for name, value in sorted(
                        result.sla.resource_assignment.items()
                    )
                },
            }
        return row
    if hasattr(target, "submit"):
        import asyncio

        async def drive():
            owns = not target.started
            if owns:
                await target.start()
            try:
                kwargs = {}
                if letter.session_key is not None:
                    kwargs["session_key"] = letter.session_key
                return await target.submit(request, **kwargs)
            finally:
                if owns:
                    await target.stop()

        session = asyncio.run(drive())
        row["outcome"] = session.status.value
        row["detail"] = session.detail
        if session.sla is not None:
            row["sla"] = serialization.sla_to_dict(session.sla)
        return row
    raise DLQError(
        f"cannot replay against {type(target).__name__}: expected a "
        "broker or a server"
    )
