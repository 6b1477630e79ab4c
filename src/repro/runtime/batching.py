"""Allocation rounds: one joint allocation for a window of sessions.

:class:`RoundScheduler` coalesces concurrent negotiations for the same
market into one allocation round, so the broker's allocation policy
(``--allocation-policy``) assigns their providers jointly
(``Broker.negotiate_round``).  :class:`BatchConfig` (declared in
:mod:`repro.config`) holds the round window
(``--batch-window-ms``/``--batch-max``).

Coalescing is leader/follower, with no dedicated dispatcher thread: the
first arrival for a market becomes the round's *leader*, waits up to
``window_ms`` for followers (or until ``max_batch`` fills the round),
then closes the round and runs it on its own worker thread.  Followers
block on a per-entry event and receive their result (or the round's
exception) when the leader finishes; results are fanned back in
submission order.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..config import BatchConfig, BatchingError

__all__ = ["BatchConfig", "BatchingError", "RoundScheduler"]


class _Group:
    """One open coalescing window for one market."""

    __slots__ = ("entries", "full")

    def __init__(self) -> None:
        self.entries: List[Any] = []
        self.full = threading.Event()


class _RoundEntry:
    """One session queued into an allocation round."""

    __slots__ = ("request", "verify", "done", "result", "error")

    def __init__(self, request: Any, verify: bool) -> None:
        self.request = request
        self.verify = verify
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class RoundScheduler:
    """Coalesces concurrent negotiations into allocation rounds.

    The group key is ``(operation, attribute, verify)``, so every client
    competing for the same kind of service within one window lands in
    one round and the broker's allocation policy assigns their
    providers jointly (``Broker.negotiate_round``).  Passive and
    thread-safe: the first arrival leads, waits out ``window_ms`` (or
    until ``max_batch`` sessions fill the round), then runs the round
    on its own worker thread and fans results back in submission order.

    With a greedy policy a round of any size reproduces the unbatched
    per-session agreements exactly; the round is where the *fair*
    policy gets to see contention at all.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config or BatchConfig()
        self._lock = threading.Lock()
        self._groups: Dict[Any, _Group] = {}
        self._round_seq = 0
        #: Plain counters mirrored into telemetry.
        self.rounds_dispatched = 0
        self.sessions_rounded = 0
        self.largest_round = 0

    def negotiate(
        self, broker: Any, request: Any, verify: bool = False
    ) -> Any:
        """Serve one session, coalescing with concurrent same-market
        callers into a single allocation round."""
        if self.config.max_batch == 1:
            return self._dispatch(broker, [_RoundEntry(request, verify)])

        fingerprint = (request.operation, request.attribute, bool(verify))
        entry = _RoundEntry(request, verify)
        with self._lock:
            group = self._groups.get(fingerprint)
            leader = group is None
            if leader:
                group = _Group()
                self._groups[fingerprint] = group
            group.entries.append(entry)
            if len(group.entries) >= self.config.max_batch:
                if self._groups.get(fingerprint) is group:
                    del self._groups[fingerprint]
                group.full.set()

        if not leader:
            entry.done.wait()
            if entry.error is not None:
                raise entry.error
            return entry.result

        group.full.wait(self.config.window_ms / 1000.0)
        with self._lock:
            if self._groups.get(fingerprint) is group:
                del self._groups[fingerprint]
            entries = list(group.entries)
        return self._dispatch(broker, entries, lead=entry)

    def _dispatch(
        self,
        broker: Any,
        entries: List[Any],
        lead: Optional[_RoundEntry] = None,
    ) -> Any:
        """Run one closed round and fan results back in submission
        order; ``lead`` (when set) is the caller's own entry."""
        lead = lead if lead is not None else entries[0]
        with self._lock:
            self._round_seq += 1
            round_id = self._round_seq
        try:
            results = broker.negotiate_round(
                [queued.request for queued in entries],
                verify_scheduler_independence=entries[0].verify,
                round_id=round_id,
            )
        except BaseException as exc:
            for queued in entries:
                if not queued.done.is_set():
                    queued.error = exc
                    queued.done.set()
            raise
        self.rounds_dispatched += 1
        self.sessions_rounded += len(entries)
        self.largest_round = max(self.largest_round, len(entries))
        for queued, result in zip(entries, results):
            queued.result = result
            queued.done.set()
        for queued in entries:
            # A policy returning too few results must not strand
            # followers on their event.
            if not queued.done.is_set():
                queued.error = BatchingError(
                    "allocation policy returned fewer results than "
                    "sessions in the round"
                )
                queued.done.set()
        if lead.error is not None:
            raise lead.error
        return lead.result

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            open_groups = len(self._groups)
        return {
            "rounds_dispatched": self.rounds_dispatched,
            "sessions_rounded": self.sessions_rounded,
            "largest_round": self.largest_round,
            "open_groups": open_groups,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.rounds_dispatched} round(s))"
        )
