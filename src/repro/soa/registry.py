"""A UDDI-like service registry (paper Sec. 4, step 2).

"Providers publish QoS-enabled web services by registering them at the
UDDI registry."  In-memory, indexed by operation name, provider and tag;
supports publish / find / unpublish — the discovery substrate the broker
queries during negotiation.

Dependable-matchmaking extensions (ROADMAP item 2, the resilience
layer):

* **leases** — a publication may carry a time-to-live; providers renew
  it by heartbeating (:meth:`ServiceRegistry.renew_lease`) and silently
  crashed providers age out of discovery instead of attracting doomed
  negotiations.  Expiry is lazy (checked on every lookup) against an
  injected clock, so tests control time exactly.
* **quarantine** — a health monitor can take a provider out of
  matchmaking (:meth:`ServiceRegistry.quarantine`) and re-admit it on
  recovery (:meth:`ServiceRegistry.reinstate`) without touching the
  publications themselves.
* **availability gates** — pluggable per-description predicates
  (circuit breakers, maintenance windows) consulted by :meth:`find`;
  any gate answering ``False`` hides the description from selection.

All three act on *discovery only*: ``get`` still resolves a quarantined
or gated service by id (an existing SLA keeps working), and
``find(include_unavailable=True)`` sees everything that has not expired.

:attr:`ServiceRegistry.version` counts changes to the publications
themselves (publish, unpublish, lease expiry), so a consumer that
compiles the published offers (the broker's market plan) knows when to
compile them again; quarantine and gates leave it alone.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from ..dependability.metrics import ObservationWindow
from ..telemetry import get_events, get_registry
from .service import ServiceDescription

#: A pluggable availability predicate: ``False`` hides the description
#: from discovery (``find``), nothing else.  Gates may be stateful —
#: a half-open circuit breaker consumes a probe slot when it admits.
AvailabilityGate = Callable[[ServiceDescription], bool]


class RegistryError(Exception):
    """Raised on duplicate publications or unknown lookups."""


class ServiceRegistry:
    """Publication and discovery of service descriptions.

    ``clock`` (default ``time.monotonic``) timestamps leases; inject a
    manual clock for deterministic expiry tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._by_id: Dict[str, ServiceDescription] = {}
        self._by_operation: Dict[str, Set[str]] = {}
        self._by_provider: Dict[str, Set[str]] = {}
        self._by_tag: Dict[str, Set[str]] = {}
        self._clock = clock if clock is not None else time.monotonic
        #: service id → absolute expiry time (only leased publications).
        self._lease_deadline: Dict[str, float] = {}
        self._quarantined: Set[str] = set()
        self._gates: List[AvailabilityGate] = []
        #: service id → [attempts, failures]; delivered-quality evidence
        #: the SLO analytics' adaptive buffers consume.  Survives
        #: unpublication on purpose — a provider's history is about the
        #: provider, not the publication.
        self._observations: Dict[str, List[int]] = {}
        #: Bumped by every publish, unpublish and lease expiry.
        self.version = 0

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def publish(
        self,
        description: ServiceDescription,
        lease_s: Optional[float] = None,
    ) -> None:
        """Register a description; service ids are unique.

        ``lease_s`` gives the publication a time-to-live: unless renewed
        (:meth:`renew_lease`) within that many seconds it expires and the
        id becomes free to re-register.
        """
        if lease_s is not None and lease_s <= 0:
            raise RegistryError("lease_s must be positive (or None)")
        self._expire_due()
        service_id = description.service_id
        if service_id in self._by_id:
            raise RegistryError(f"service {service_id!r} already published")
        self._by_id[service_id] = description
        self._by_operation.setdefault(
            description.interface.operation, set()
        ).add(service_id)
        self._by_provider.setdefault(description.provider, set()).add(
            service_id
        )
        for tag in description.tags:
            self._by_tag.setdefault(tag, set()).add(service_id)
        if lease_s is not None:
            self._lease_deadline[service_id] = self._clock() + lease_s
        self.version += 1

    def unpublish(self, service_id: str) -> ServiceDescription:
        """Remove a description, returning it."""
        self._expire_due()
        return self._remove(service_id)

    def _remove(self, service_id: str) -> ServiceDescription:
        try:
            description = self._by_id.pop(service_id)
        except KeyError:
            raise RegistryError(f"service {service_id!r} not published") from None
        self._by_operation[description.interface.operation].discard(service_id)
        self._by_provider[description.provider].discard(service_id)
        for tag in description.tags:
            self._by_tag.get(tag, set()).discard(service_id)
        self._lease_deadline.pop(service_id, None)
        self.version += 1
        return description

    # ------------------------------------------------------------------
    # Leases (heartbeats)
    # ------------------------------------------------------------------

    def renew_lease(self, service_id: str, lease_s: float) -> float:
        """Heartbeat one publication: push its expiry ``lease_s`` past
        *now*; returns the new absolute deadline.  Renewing an unleased
        publication attaches a lease to it."""
        self._expire_due()
        if service_id not in self._by_id:
            raise RegistryError(f"service {service_id!r} not published")
        if lease_s <= 0:
            raise RegistryError("lease_s must be positive")
        deadline = self._clock() + lease_s
        self._lease_deadline[service_id] = deadline
        return deadline

    def lease_remaining(self, service_id: str) -> Optional[float]:
        """Seconds until this publication expires; ``None`` = unleased."""
        self._expire_due()
        if service_id not in self._by_id:
            raise RegistryError(f"service {service_id!r} not published")
        deadline = self._lease_deadline.get(service_id)
        if deadline is None:
            return None
        return max(0.0, deadline - self._clock())

    def expire_leases(self) -> List[str]:
        """Sweep expired leases now; returns the removed service ids."""
        return self._expire_due()

    def _expire_due(self) -> List[str]:
        if not self._lease_deadline:
            return []
        now = self._clock()
        due = [
            service_id
            for service_id, deadline in self._lease_deadline.items()
            if deadline <= now
        ]
        for service_id in due:
            self._remove(service_id)
            get_events().emit(
                "registry.lease-expired", service_id=service_id
            )
        if due:
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "registry_leases_expired_total",
                    "Publications dropped after their lease ran out.",
                ).inc(len(due))
        return due

    # ------------------------------------------------------------------
    # Quarantine (health-checked matchmaking)
    # ------------------------------------------------------------------

    def quarantine(self, provider: str) -> None:
        """Hide every publication of ``provider`` from discovery."""
        self._quarantined.add(provider)

    def reinstate(self, provider: str) -> None:
        """Re-admit a quarantined provider to discovery."""
        self._quarantined.discard(provider)

    def quarantined(self) -> frozenset:
        return frozenset(self._quarantined)

    def is_quarantined(self, provider: str) -> bool:
        return provider in self._quarantined

    # ------------------------------------------------------------------
    # Availability gates (circuit breakers etc.)
    # ------------------------------------------------------------------

    def add_gate(self, gate: AvailabilityGate) -> None:
        if gate not in self._gates:
            self._gates.append(gate)

    def remove_gate(self, gate: AvailabilityGate) -> None:
        if gate in self._gates:
            self._gates.remove(gate)

    def _admitted(self, description: ServiceDescription) -> bool:
        if description.provider in self._quarantined:
            return False
        return all(gate(description) for gate in self._gates)

    # ------------------------------------------------------------------
    # Delivered-quality observations (SLO analytics evidence)
    # ------------------------------------------------------------------

    def record_outcome(self, service_id: str, success: bool) -> None:
        """Count one delivered invocation outcome for ``service_id``.

        Unknown ids are accepted — execution may outlive publication.
        """
        counts = self._observations.setdefault(service_id, [0, 0])
        counts[0] += 1
        if not success:
            counts[1] += 1

    def record_observations(
        self, service_id: str, attempts: int, failures: int
    ) -> None:
        """Fold a pre-counted window (e.g. imported history) into the
        ledger."""
        if attempts < 0 or failures < 0 or failures > attempts:
            raise RegistryError("need 0 ≤ failures ≤ attempts")
        counts = self._observations.setdefault(service_id, [0, 0])
        counts[0] += attempts
        counts[1] += failures

    def ingest_report(self, report: Any) -> int:
        """Fold an :class:`~repro.soa.execution.ExecutionReport`'s
        per-service outcomes into the observation ledger; returns how
        many outcomes were counted."""
        counted = 0
        for outcome in report.outcomes:
            self.record_outcome(outcome.service_id, outcome.success)
            counted += 1
        return counted

    def observation_window(self, service_id: str) -> ObservationWindow:
        """Evidence for one service (empty window when none recorded —
        see the :class:`ObservationWindow` no-data convention)."""
        attempts, failures = self._observations.get(service_id, (0, 0))
        return ObservationWindow(attempts=attempts, failures=failures)

    def observation_windows(self) -> Dict[str, ObservationWindow]:
        """All services with recorded evidence."""
        return {
            service_id: ObservationWindow(
                attempts=counts[0], failures=counts[1]
            )
            for service_id, counts in self._observations.items()
        }

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def get(self, service_id: str) -> ServiceDescription:
        self._expire_due()
        try:
            return self._by_id[service_id]
        except KeyError:
            raise RegistryError(f"service {service_id!r} not published") from None

    def find(
        self,
        operation: Optional[str] = None,
        provider: Optional[str] = None,
        tag: Optional[str] = None,
        requires_attribute: Optional[str] = None,
        include_unavailable: bool = False,
    ) -> List[ServiceDescription]:
        """All descriptions matching every given criterion (AND).

        Quarantined providers and gate-refused descriptions are hidden
        unless ``include_unavailable`` — expired leases are gone either
        way (an expired publication no longer exists).
        """
        self._expire_due()
        candidates: Optional[Set[str]] = None

        def narrow(ids: Iterable[str]) -> None:
            nonlocal candidates
            id_set = set(ids)
            candidates = id_set if candidates is None else candidates & id_set

        if operation is not None:
            narrow(self._by_operation.get(operation, set()))
        if provider is not None:
            narrow(self._by_provider.get(provider, set()))
        if tag is not None:
            narrow(self._by_tag.get(tag, set()))
        if candidates is None:
            candidates = set(self._by_id)

        results = [self._by_id[sid] for sid in candidates]
        if requires_attribute is not None:
            results = [
                d
                for d in results
                if requires_attribute in d.qos.attributes()
            ]
        # Sort before gating: stateful gates (half-open breakers hand
        # out probe slots) must see candidates in a deterministic order.
        results.sort(key=lambda d: d.service_id)
        if not include_unavailable:
            results = [d for d in results if self._admitted(d)]
        return results

    def operations(self) -> List[str]:
        self._expire_due()
        return sorted(
            op for op, ids in self._by_operation.items() if ids
        )

    def providers(self) -> List[str]:
        self._expire_due()
        return sorted(p for p, ids in self._by_provider.items() if ids)

    def __len__(self) -> int:
        self._expire_due()
        return len(self._by_id)

    def __contains__(self, service_id: str) -> bool:
        self._expire_due()
        return service_id in self._by_id
