"""Runtime SLA monitoring (paper Sec. 3: "this composition needs to be
monitored").

A monitor consumes execution reports, maintains sliding-window estimates
of the delivered quality, and raises :class:`~repro.soa.sla.SLAViolation`
records whenever the estimate drops below the agreed level.  Violations
can trigger a renegotiation callback — closing the loop the paper sketches
between negotiation (Sec. 4) and monitoring.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..constraints.constraint import SoftConstraint
from ..dependability.metrics import ObservationWindow
from ..telemetry import get_events, get_registry
from .execution import ExecutionReport
from .sla import SLA, SLAViolation


class SLAMonitor:
    """Sliding-window conformance checking of one SLA.

    ``attribute`` handling: ``availability``/``reliability`` compare the
    windowed success ratio against the agreed probability; ``latency``/
    ``cost``/``downtime`` compare the windowed mean against the agreed
    bound under the (inverted) Weighted order.  The semiring stored in
    the SLA decides the direction — no per-attribute special cases leak
    out of this class.
    """

    def __init__(
        self,
        sla: SLA,
        window: int = 20,
        min_samples: int = 5,
        on_violation: Optional[Callable[[SLAViolation], None]] = None,
        threshold: Optional[float] = None,
        registry: Optional[Any] = None,
        breakers: Optional[Any] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.sla = sla
        self.window = window
        self.min_samples = min(min_samples, window)
        self.on_violation = on_violation
        #: A :class:`~repro.resilience.breaker.BreakerRegistry` (or any
        #: object with ``record_violation``): every violation counts
        #: against the SLA's providers, so sustained quality breaches
        #: trip their breakers even when no hard fault ever fires.
        self.breakers = breakers
        #: Metrics sink.  ``None`` defers to the process-wide session at
        #: observation time, so a monitor built before telemetry was
        #: enabled still reports.
        self._registry = registry
        #: The enforced level.  Defaults to the SLA's agreed level; a
        #: client may monitor against a looser contractual floor instead
        #: (e.g. the minimum it asked the broker for), so that ordinary
        #: sampling noise below the *advertised* level is not a breach.
        self.threshold = (
            sla.agreed_level if threshold is None else threshold
        )
        if not sla.semiring.is_element(self.threshold):
            raise ValueError(
                f"threshold {self.threshold!r} is not a "
                f"{sla.semiring.name} level"
            )
        self._samples: Deque[ExecutionReport] = deque(maxlen=window)
        self.violations: List[SLAViolation] = []
        self._observed = 0
        #: Reports that arrived before the window held ``min_samples``
        #: entries.  These used to vanish silently; they are now counted
        #: here and in the ``sla_reports_total`` metric (phase="warmup").
        self.early_reports = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe(self, report: ExecutionReport) -> Optional[SLAViolation]:
        """Record one run; returns a violation if this run trips one."""
        self._samples.append(report)
        self._observed += 1
        warming_up = len(self._samples) < self.min_samples
        if warming_up:
            self.early_reports += 1
        registry = self._registry or get_registry()
        if registry.enabled:
            registry.counter(
                "sla_reports_total",
                "Execution reports fed to SLA monitors.",
                labelnames=("attribute", "phase"),
            ).labels(
                self.sla.attribute, "warmup" if warming_up else "active"
            ).inc()
        if warming_up:
            return None
        observed_level = self.current_level()
        if observed_level is None:
            return None
        if self.sla.semiring.geq(observed_level, self.threshold):
            return None
        violation = SLAViolation(
            sla_id=self.sla.sla_id,
            attribute=self.sla.attribute,
            expected=self.threshold,
            observed=observed_level,
            at_execution=report.tick,
            detail=f"(window={len(self._samples)})",
        )
        self.violations.append(violation)
        if registry.enabled:
            registry.counter(
                "sla_violations_total",
                "SLA violations raised by monitors.",
                labelnames=("attribute",),
            ).labels(self.sla.attribute).inc()
            get_events().emit(
                "sla.violation",
                sla_id=self.sla.sla_id,
                attribute=self.sla.attribute,
                expected=self.threshold,
                observed=observed_level,
                tick=report.tick,
            )
        if self.breakers is not None:
            for provider in self.sla.providers:
                self.breakers.record_violation(provider)
        if self.on_violation is not None:
            self.on_violation(violation)
        return violation

    def observe_many(self, reports) -> List[SLAViolation]:
        found: List[SLAViolation] = []
        for report in reports:
            violation = self.observe(report)
            if violation is not None:
                found.append(violation)
        return found

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def current_level(self) -> Optional[float]:
        """The windowed estimate in the SLA's attribute units."""
        if not self._samples:
            return None
        attribute = self.sla.attribute
        if attribute in ("availability", "reliability", "fuzzy-reliability"):
            return sum(r.success for r in self._samples) / len(self._samples)
        if attribute == "latency":
            return sum(r.latency_ms for r in self._samples) / len(
                self._samples
            )
        if attribute in ("cost", "downtime"):
            # Per-run average of the additive metric actually charged:
            # each report sums its invoked services' advertised values
            # (``ExecutionReport.charge``) — latency is NOT a proxy.
            return sum(
                r.charge(attribute) for r in self._samples
            ) / len(self._samples)
        return None

    def observation_window(self) -> ObservationWindow:
        """The current window as an :class:`ObservationWindow` — the
        shape the SLO analytics' adaptive buffers consume (see
        :func:`repro.slo.effective_level`)."""
        return ObservationWindow(
            attempts=len(self._samples),
            failures=sum(1 for r in self._samples if not r.success),
        )

    @property
    def in_breach(self) -> bool:
        """Whether the most recent estimate violates the agreement."""
        level = self.current_level()
        if level is None or len(self._samples) < self.min_samples:
            return False
        return not self.sla.semiring.geq(level, self.threshold)

    def violation_rate(self) -> float:
        if self._observed == 0:
            return 0.0
        return len(self.violations) / self._observed

    def covered_by_agreement(self, constraint: SoftConstraint) -> bool:
        """Whether a proposed tightening is already guaranteed.

        Rebuilds the agreed store (``SLA.as_store``) and asks ``σ ⊑ c``
        through the store's solver-backed entailment; a ``True`` answer
        means a renegotiation for ``constraint`` would be a no-op, so the
        monitor can suppress the escalation.
        """
        return self.sla.as_store().entails(constraint)
