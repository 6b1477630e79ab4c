"""The serving-config tree: each knob declared once, on its field.

The serving stack is configured by a tree of frozen dataclasses —
:class:`~repro.soa.broker.BrokerConfig` (solve cache, allocation policy,
round window :class:`BatchConfig`, SLO penalty),
:class:`~repro.runtime.server.RuntimeConfig` with its
:class:`~repro.runtime.retry.RetryPolicy`,
:class:`~repro.resilience.policy.ResilienceConfig` with one optional
subtree per pattern, :class:`~repro.runtime.loadgen.LoadProfile`, and
:class:`~repro.fleet.frontend.FleetConfig`, which holds the broker,
runtime and resilience subtrees.

A knob's default, range (or choices), CLI flag, metavar and help text
are declared once, by :func:`knob` on its field.  Everything else reads
that declaration: :meth:`Config.__post_init__` validates every field
against its range, :func:`add_flags` generates the argparse flags (the
range doubles as the flag type, so an out-of-range value is rejected
while parsing), and :func:`from_args` builds the config back from the
parsed flags.  A subtree is declared by :func:`subtree`; an *optional*
subtree (``None`` = the feature is off) is built from flags only when
one of its flags is given.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple


class Range:
    """A numeric range: a validator and, called on text, a flag type.

    Integers are ``>= low``; reals are finite and in ``[low, high]``
    (``(low, high]`` when ``strict``).
    """

    def __init__(
        self,
        low: float = 0.0,
        high: float = math.inf,
        strict: bool = False,
        integer: bool = False,
    ) -> None:
        self.low, self.high = low, high
        self.strict, self.integer = strict, integer
        #: argparse names the type in "invalid <name> value" errors.
        self.__name__ = "integer" if integer else "number"
        if integer:
            self.bound = f"at least {low}"
        elif high == math.inf:
            self.bound = f"a finite number {'>' if strict else '>='} {low:g}"
        else:
            self.bound = (
                f"a finite number in {'(' if strict else '['}{low:g}, "
                f"{high:g}]"
            )

    def contains(self, value: Any) -> bool:
        if self.integer:
            return value >= self.low
        return (
            math.isfinite(value)
            and (value > self.low if self.strict else value >= self.low)
            and value <= self.high
        )

    def __call__(self, text: str) -> Any:
        value = int(text) if self.integer else float(text)
        if not self.contains(value):
            raise argparse.ArgumentTypeError(
                f"must be {self.bound}, got {text}"
            )
        return value


POSITIVE_INT = Range(1, integer=True)
NON_NEGATIVE_INT = Range(0, integer=True)
NON_NEGATIVE = Range()
POSITIVE = Range(strict=True)
FRACTION = Range(0.0, 1.0)
SHARE = Range(0.0, 1.0, strict=True)


@dataclass(frozen=True)
class Knob:
    """One knob's declaration (see :func:`knob`)."""

    range: Optional[Range] = None
    choices: Optional[Tuple[Any, ...]] = None
    #: ``None`` is a valid value (the feature the knob tunes is off).
    optional: bool = False
    flag: Optional[str] = None
    help: Optional[str] = None
    metavar: Optional[str] = None
    #: Flag type of a knob without a range (``int`` for a seed).
    type: Optional[Callable[[str], Any]] = None
    #: The flag value that stands for ``None`` (``--deadline 0``).
    off: Any = None

    def problem(self, value: Any) -> Optional[str]:
        """Why ``value`` is out of range, or ``None`` when it is fine."""
        if value is None:
            if self.optional or (self.range is None and not self.choices):
                return None
            return "must be set"
        if self.choices is not None and value not in self.choices:
            return f"must be one of {self.choices}, not {value!r}"
        if self.range is not None and not self.range.contains(value):
            suffix = " (or None)" if self.optional else ""
            return f"must be {self.range.bound}{suffix}, got {value!r}"
        return None

    def flag_type(self) -> Optional[Callable[[str], Any]]:
        """The flag's argparse type: the range (or plain type), reading
        the ``off`` value as ``None``."""
        convert = self.range or self.type
        if self.off is None or convert is None:
            return convert

        def parse(text: str) -> Any:
            try:
                if float(text) == self.off:
                    return None
            except ValueError:
                pass  # ``convert`` reports the malformed value
            try:
                return convert(text)
            except argparse.ArgumentTypeError:
                raise argparse.ArgumentTypeError(
                    f"must be {self.range.bound}, or {self.off:g} for none, "
                    f"got {text}"
                ) from None

        parse.__name__ = convert.__name__
        return parse


def knob(default: Any, **spec: Any) -> Any:
    """A dataclass field with default ``default`` carrying its
    :class:`Knob` declaration."""
    return field(default=default, metadata={"knob": Knob(**spec)})


def subtree(cls: type, optional: bool = False) -> Any:
    """A nested config field: ``cls()`` by default, or ``None`` (off)
    when ``optional``."""
    if optional:
        return field(default=None, metadata={"tree": cls, "optional": True})
    return field(default_factory=cls, metadata={"tree": cls})


class Config:
    """Base of the tree's frozen dataclasses: range validation from the
    knob declarations, and a JSON-able :meth:`to_dict`.

    Subclasses set ``error`` (the exception a bad value raises) and may
    add ``_check`` for constraints that span fields.
    """

    error: type = ValueError

    def __post_init__(self) -> None:
        for spec in fields(self):
            declared = spec.metadata.get("knob")
            if declared is None:
                continue
            problem = declared.problem(getattr(self, spec.name))
            if problem is not None:
                raise self.error(f"{spec.name} {problem}")
        self._check()

    def _check(self) -> None:
        """Cross-field constraints (none by default)."""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = (
                value.to_dict() if isinstance(value, Config) else value
            )
        return out


# ----------------------------------------------------------------------
# Flags from the declarations
# ----------------------------------------------------------------------


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def add_flags(
    parser: argparse.ArgumentParser,
    cls: type,
    nested: bool = True,
    optional: bool = False,
) -> None:
    """One flag per flagged knob of ``cls`` (and, when ``nested``, of its
    subtrees), in field order.  A boolean knob becomes ``--x/--no-x``; a
    knob inside an optional subtree defaults to ``None`` (not given)."""
    for spec in fields(cls):
        tree = spec.metadata.get("tree")
        if tree is not None:
            if nested:
                add_flags(
                    parser,
                    tree,
                    optional=optional or spec.metadata.get("optional", False),
                )
            continue
        declared = spec.metadata.get("knob")
        if declared is None or declared.flag is None:
            continue
        if isinstance(spec.default, bool):
            parser.add_argument(
                declared.flag,
                action=argparse.BooleanOptionalAction,
                default=spec.default,
                help=declared.help,
            )
            continue
        parser.add_argument(
            declared.flag,
            default=None if optional else spec.default,
            type=declared.flag_type(),
            choices=declared.choices,
            metavar=declared.metavar,
            help=declared.help,
        )


def from_args(
    cls: type,
    args: argparse.Namespace,
    enable: bool = False,
    optional: bool = False,
    **fixed: Any,
) -> Any:
    """Build ``cls`` from the flags :func:`add_flags` generated, with
    the ``fixed`` field values on top.

    An ``optional`` (sub)tree is ``None`` unless one of its flags is
    given (is not ``None``) or ``enable`` turns every optional subtree on.
    """
    values: Dict[str, Any] = {}
    given = False
    for spec in fields(cls):
        tree = spec.metadata.get("tree")
        if tree is not None:
            values[spec.name] = from_args(
                tree, args, enable, spec.metadata.get("optional", False)
            )
            continue
        declared = spec.metadata.get("knob")
        dest = declared and declared.flag and _dest(declared.flag)
        if not dest or not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if optional and value is None:
            continue
        values[spec.name] = value
        given = True
    if optional and not (given or enable):
        return None
    return cls(**{**values, **fixed})


# ----------------------------------------------------------------------
# The allocation-round window (here, not in repro.runtime.batching, so
# the broker's config can hold it without importing the runtime)
# ----------------------------------------------------------------------


class BatchingError(Exception):
    """Raised on a malformed round configuration, or a round whose
    policy returned too few results."""


@dataclass(frozen=True)
class BatchConfig(Config):
    """Knobs of the allocation-round window."""

    error = BatchingError

    #: ``0`` dispatches immediately (degenerate rounds of ~1).
    window_ms: float = knob(
        2.0,
        range=NON_NEGATIVE,
        flag="--batch-window-ms",
        metavar="MS",
        help="how long an allocation round's leader waits for "
        "followers before dispatching (with --allocation-policy)",
    )
    #: A full round dispatches without waiting out the window.
    max_batch: int = knob(
        32,
        range=POSITIVE_INT,
        flag="--batch-max",
        metavar="N",
        help="hard cap on sessions coalesced into one allocation round "
        "(with --allocation-policy)",
    )
