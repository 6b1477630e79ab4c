"""repro.runtime — the concurrent serving layer over the broker.

An asyncio runtime that accepts many concurrent client sessions and
drives the five-step broker lifecycle per session (paper Sec. 4: the
broker mediates nmsccp agents executing in parallel on one store):
bounded admission with typed :class:`Overloaded` backpressure, a worker
pool that offloads CPU-bound SCSP solves off the event loop, per-session
deadlines, retry with seeded exponential backoff, graceful degradation
to the last-known SLA, and a load generator with open/closed-loop client
populations.  Everything reports through :mod:`repro.telemetry`.
"""

from .batching import BatchConfig, BatchingError, RoundScheduler
from .loadgen import (
    LoadGenError,
    LoadGenerator,
    LoadProfile,
    LoadReport,
    RequestFactory,
    build_report,
    contention_request_factory,
    fairness_summary,
    jain_index,
    merge_reports,
    percentile,
    summarize,
    synthesize_contention_market,
    synthesize_market,
    synthetic_request_factory,
)
from .retry import NO_RETRY, RetryError, RetryPolicy
from .server import (
    COALITION_OUTCOMES,
    CoalitionQuery,
    LATENCY_BUCKETS,
    Overloaded,
    RuntimeConfig,
    RuntimeServer,
    SESSION_OUTCOMES,
    SessionResult,
    SessionStatus,
    TransientFault,
    derive_session_seed,
)

__all__ = [
    "BatchConfig",
    "RoundScheduler",
    "BatchingError",
    "RuntimeServer",
    "RuntimeConfig",
    "SessionResult",
    "SessionStatus",
    "Overloaded",
    "TransientFault",
    "CoalitionQuery",
    "COALITION_OUTCOMES",
    "SESSION_OUTCOMES",
    "LATENCY_BUCKETS",
    "derive_session_seed",
    "RetryPolicy",
    "RetryError",
    "NO_RETRY",
    "build_report",
    "merge_reports",
    "jain_index",
    "fairness_summary",
    "synthesize_contention_market",
    "contention_request_factory",
    "LoadGenerator",
    "LoadProfile",
    "LoadReport",
    "LoadGenError",
    "RequestFactory",
    "percentile",
    "summarize",
    "synthesize_market",
    "synthetic_request_factory",
]
