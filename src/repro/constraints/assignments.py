"""Immutable assignments η : V → D.

Constraints evaluate plain mappings from variable names to values; this
module adds a hashable, frozen view used as a dictionary key (e.g. when
memoizing solution tables) plus small helpers shared by the solver and
the nmsccp interpreter.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Mapping, Sequence, Tuple

from .variables import Variable


class Assignment(Mapping[str, Any]):
    """A frozen, hashable variable assignment.

    Behaves as a read-only mapping from variable name to value; equality
    and hashing are content-based, so two assignments built in different
    orders compare equal.
    """

    __slots__ = ("_items", "_key")

    def __init__(self, mapping: Mapping[str, Any]) -> None:
        self._items: dict[str, Any] = dict(mapping)
        self._key: Tuple[Tuple[str, Hashable], ...] = tuple(
            sorted(self._items.items(), key=lambda kv: kv[0])
        )

    def __getitem__(self, name: str) -> Any:
        return self._items[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._key == other._key
        if isinstance(other, Mapping):
            return self._items == dict(other)
        return NotImplemented

    def extended(self, name: str, value: Any) -> "Assignment":
        """``η[v := d]`` — a copy with ``name`` (re)bound to ``value``."""
        items = dict(self._items)
        items[name] = value
        return Assignment(items)

    def restricted(self, names: Sequence[str]) -> "Assignment":
        """The sub-assignment over ``names`` (missing names are skipped)."""
        wanted = set(names)
        return Assignment(
            {k: v for k, v in self._items.items() if k in wanted}
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self._key)
        return f"Assignment({inner})"


def assignment_key(
    assignment: Mapping[str, Any], scope: Sequence[Variable]
) -> Tuple[Any, ...]:
    """Project ``assignment`` to a tuple over ``scope`` order — the key
    format used by table constraints."""
    return tuple(assignment[var.name] for var in scope)
