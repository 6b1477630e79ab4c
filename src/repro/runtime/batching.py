"""Allocation rounds: one joint allocation for a window of sessions.

:class:`RoundScheduler` coalesces concurrent negotiations for the same
market into one allocation round, so the broker's allocation policy
(``--allocation-policy``) assigns their providers jointly
(``Broker.negotiate_round``).  :class:`BatchConfig` (declared in
:mod:`repro.config`) holds the round window
(``--batch-window-ms``/``--batch-max``).

Coalescing is leader/follower on the event loop, with no dispatcher
task: the first arrival for a market becomes the round's *leader*,
awaits up to ``window_ms`` for followers (or until ``max_batch`` fills
the round), then closes the round and runs it in its own session's
task.  Followers await a per-session future and receive their result (or the
round's exception) when the leader finishes; results are fanned back in
submission order.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from ..config import BatchConfig, BatchingError

__all__ = ["BatchConfig", "BatchingError", "RoundScheduler"]

#: One session in a round: its request and the future its caller awaits.
_Entry = Tuple[Any, "asyncio.Future[Any]"]


class _Group:
    """One open coalescing window for one market."""

    __slots__ = ("entries", "full")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.entries: List[_Entry] = []
        self.full: "asyncio.Future[None]" = loop.create_future()


class RoundScheduler:
    """Coalesces concurrent negotiations into allocation rounds.

    The group key is ``(operation, attribute, verify)``, so every client
    competing for the same kind of service within one window lands in
    one round and the broker's allocation policy assigns their
    providers jointly (``Broker.negotiate_round``).  Passive and bound
    to no loop: the first arrival leads, awaits ``window_ms`` (or until
    ``max_batch`` sessions fill the round), then runs the round and
    fans results back in submission order.  A session cancelled before
    its round runs (its deadline passed) leaves the round, so no SLA is
    signed that no caller receives.

    With a greedy policy a round of any size reproduces the unbatched
    per-session agreements exactly; the round is where the *fair*
    policy gets to see contention at all.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config or BatchConfig()
        self._groups: Dict[Any, _Group] = {}
        self._round_seq = 0
        #: Plain counters mirrored into telemetry.
        self.rounds_dispatched = 0
        self.sessions_rounded = 0
        self.largest_round = 0

    async def negotiate(
        self, broker: Any, request: Any, verify: bool = False
    ) -> Any:
        """Serve one session, coalescing with concurrent same-market
        callers into a single allocation round."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        if self.config.max_batch == 1:
            self._dispatch(broker, [(request, future)], verify)
            return future.result()

        fingerprint = (request.operation, request.attribute, bool(verify))
        group = self._groups.get(fingerprint)
        if group is not None:
            group.entries.append((request, future))
            if len(group.entries) >= self.config.max_batch:
                del self._groups[fingerprint]
                group.full.set_result(None)
            return await future

        group = self._groups[fingerprint] = _Group(loop)
        group.entries.append((request, future))
        try:
            await asyncio.wait(
                (group.full,), timeout=self.config.window_ms / 1000.0
            )
        except asyncio.CancelledError:
            # The leader leaves; its followers' round still runs.
            future.cancel()
            raise
        finally:
            if self._groups.get(fingerprint) is group:
                del self._groups[fingerprint]
            self._dispatch(broker, group.entries, verify)
        return future.result()

    def _dispatch(
        self, broker: Any, entries: List[_Entry], verify: bool
    ) -> None:
        """Run one closed round over the sessions still waiting and
        resolve their futures in submission order."""
        live = [entry for entry in entries if not entry[1].done()]
        if not live:
            return
        self._round_seq += 1
        try:
            results = broker.negotiate_round(
                [request for request, _ in live],
                verify_scheduler_independence=verify,
                round_id=self._round_seq,
            )
        except Exception as exc:
            for _, future in live:
                future.set_exception(exc)
            return
        self.rounds_dispatched += 1
        self.sessions_rounded += len(live)
        self.largest_round = max(self.largest_round, len(live))
        for (_, future), result in zip(live, results):
            future.set_result(result)
        for _, future in live[len(results):]:
            # A policy returning too few results must not strand
            # followers on their future.
            future.set_exception(
                BatchingError(
                    "allocation policy returned fewer results than "
                    "sessions in the round"
                )
            )

    def stats(self) -> Dict[str, Any]:
        return {
            "rounds_dispatched": self.rounds_dispatched,
            "sessions_rounded": self.sessions_rounded,
            "largest_round": self.largest_round,
            "open_groups": len(self._groups),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.rounds_dispatched} round(s))"
        )
