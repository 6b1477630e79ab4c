"""repro — Soft Constraints for Dependable Service Oriented Architectures.

A full reproduction of Bistarelli & Santini (2008): semiring-based soft
constraints, the nmsccp concurrent constraint language, an SOA substrate
with a negotiation broker, dependability-as-refinement analysis, and
trustworthy coalition formation.

Subpackages
-----------
``repro.semirings``
    Absorptive c-semirings (Classical, Fuzzy, Probabilistic, Weighted,
    Set-based, products) with residuated division and law validators.
``repro.constraints``
    Soft constraints, the operators ⊗ / ÷ / ⇓ / ∃x, diagonal constraints,
    entailment and the immutable constraint store.
``repro.solver``
    SCSP solving: exhaustive, bucket elimination, branch & bound, soft
    arc consistency, α-cuts.
``repro.sccp``
    The nonmonotonic soft concurrent constraint language: checked
    transitions C1–C4, rules R1–R10, schedulers, exhaustive exploration.
``repro.soa``
    Services, registry, message bus, broker, SLAs, composition patterns,
    execution with fault injection, SLA monitoring.
``repro.runtime``
    Concurrent serving layer: bounded admission, worker pool running
    sessions on the event loop, deadlines, retry/backoff, graceful
    degradation, and an open/closed-loop load generator.
``repro.dependability``
    Attribute taxonomy, integrity-as-refinement (Defs. 1–2), quantitative
    reliability analysis, classical dependability arithmetic.
``repro.coalitions``
    Trust networks, coalition trustworthiness, blocking-coalition
    stability, exact/greedy/local-search structure generation.
"""

from . import (
    coalitions,
    constraints,
    dependability,
    runtime,
    sccp,
    semirings,
    serialization,
    soa,
    solver,
)

__version__ = "1.0.0"

__all__ = [
    "semirings",
    "constraints",
    "solver",
    "sccp",
    "soa",
    "runtime",
    "dependability",
    "coalitions",
    "serialization",
    "__version__",
]
