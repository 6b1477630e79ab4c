"""Canonical SHA-256 digests for constraints.

These digests identify a constraint *extensionally* — scope (names and
domains), default value, and the full sparse table — so two constraint
objects with the same meaning hash identically regardless of how they
were built.  The solve cache fingerprints whole problems with them, and
the constraint store matches factors by them (re-tell absorption under
an idempotent ``×``, retract-by-removal) and fingerprints a store version
for exploration as the sorted tuple of its factors' digests.

Digests are memoized on the constraint object (``_digest_memo``):
constraints are semantically immutable, so each object pays the
materialization cost at most once.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .table import to_table


def canon_value(value: Any) -> str:
    """A deterministic token for a semiring value or domain element.

    ``repr`` round-trips floats exactly; unordered containers are sorted
    so two equal sets always hash identically.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canon_value(v) for v in value) + ")"
    return repr(value)


def constraint_digest(constraint: Any) -> str:
    """One constraint's extensional digest, memoized on the object.

    Constraints are semantically immutable, so the digest is computed
    (materializing the table) at most once per object — re-fingerprinting
    a problem built from pooled constraint objects is pure hashing.
    """
    memo = getattr(constraint, "_digest_memo", None)
    if memo is not None:
        return memo
    table = to_table(constraint)
    piece = hashlib.sha256()
    for var in table.scope:
        piece.update(f"var {var.name}:{canon_value(var.domain)};".encode())
    piece.update(f"default {canon_value(table.default)};".encode())
    for key in sorted(table.table, key=repr):
        piece.update(
            f"{canon_value(key)}->{canon_value(table.table[key])};".encode()
        )
    digest = piece.hexdigest()
    constraint._digest_memo = digest
    return digest
