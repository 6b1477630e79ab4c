"""Vectorized dense-factor kernels for totally ordered c-semirings.

The dict-of-tuples :class:`~repro.constraints.table.TableConstraint` pays
one virtual ``semiring.times`` call per assignment tuple.  For the four
classical totally ordered instances both semiring operations are NumPy
ufuncs, so a constraint can be *lowered* to an ndarray with one axis per
scope variable (:class:`DenseFactor`) and the paper's two operators
become broadcast array ops:

* ``⊗`` — align scopes by broadcasting and apply the times-ufunc
  elementwise;
* ``⇓`` — ``plus_ufunc.reduce`` over the eliminated axes.

The solvers run both through compiled plans
(:func:`repro.solver.elimination.run_step`), which precompute each
step's axis alignment once per topology.

This is the standard lowering used by factor-graph and bucket-elimination
engines (cf. Dechter's bucket elimination); distributivity of ``×`` over
``+`` is what makes the axis-reduction exact.  The lowering table:

==============  =======  ==============  ==============
semiring        dtype    ``+`` (plus)    ``×`` (times)
==============  =======  ==============  ==============
Weighted        float64  ``minimum``     ``add``
Fuzzy           float64  ``maximum``     ``minimum``
Probabilistic   float64  ``maximum``     ``multiply``
Classical       bool     ``logical_or``  ``logical_and``
==============  =======  ==============  ==============

Composite semirings (:class:`~repro.semirings.product.ProductSemiring`,
:class:`~repro.semirings.product.LexicographicSemiring`) lower
*compositionally* whenever every component does: a tuple-valued factor
becomes one NumPy structured array whose dtype mirrors the component
tree (nested composites nest their dtypes), i.e. stacked per-component
value planes sharing a single index grid.  ``×`` applies each
component's times-ufunc to its plane; the Pareto ``+`` of a product
applies each component's plus-ufunc (the componentwise lub); the
lexicographic ``+`` selects whole tuples with a vectorized
first-strictly-better mask.  Because every plane holds exactly the
float64/bool values the dict path holds and ``ndarray.tolist`` on a
structured array yields the same nested Python tuples, composite dense
results are bit-identical to the dict path — so stacked scans and
the bucket cache work unchanged on composite values.

Set-based and bounded-weighted semirings still do not lower (``×`` is
not a plain ufunc): :func:`lower_semiring` returns ``None`` and callers
fall back to the dict path (counted by
``solver_lowering_fallback_total{semiring}``).  All lowered operations
are bit-identical to their pure-Python counterparts — ``min``/``max``
select an operand, and float64 ``add``/``multiply`` are the same
IEEE-754 operations CPython floats use — which is what lets the solvers
switch backends without changing any result.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import LRUCache, register_stats_provider
from ..constraints.table import TableConstraint, to_table
from ..constraints.constraint import SoftConstraint
from ..constraints.digest import canon_value
from ..constraints.variables import Variable, scope_names
from ..semirings.base import Semiring
from ..semirings.boolean import BooleanSemiring
from ..semirings.fuzzy import FuzzySemiring
from ..semirings.probabilistic import ProbabilisticSemiring
from ..semirings.product import LexicographicSemiring, ProductSemiring
from ..semirings.weighted import WeightedSemiring


class KernelError(Exception):
    """Raised when a semiring cannot be lowered but dense was requested."""


@dataclass(frozen=True)
class Lowering:
    """How one semiring maps onto NumPy: dtype plus the two operations.

    ``plus``/``times`` are either true ufuncs (the four base semirings)
    or the componentwise/lexicographic wrapper ops of a composite
    lowering; both expose the ufunc calling convention the factors use —
    ``op(a, b, out=None)`` and ``op.reduce(array, axis=...)`` — so every
    factor operation is agnostic to which it holds.  ``unlift`` converts
    an array scalar back into the carrier's native Python type
    (``float``/``bool``, or a nested tuple for composites) so tables
    round-tripped through a :class:`DenseFactor` compare equal to
    dict-path tables.
    """

    semiring: Semiring
    dtype: Any
    plus: Any
    times: Any
    unlift: Callable[[Any], Any]


#: semiring type → (dtype, plus ufunc, times ufunc, unlift)
_LOWERING_TABLE = {
    WeightedSemiring: (np.float64, np.minimum, np.add, float),
    FuzzySemiring: (np.float64, np.maximum, np.minimum, float),
    ProbabilisticSemiring: (np.float64, np.maximum, np.multiply, float),
    BooleanSemiring: (np.bool_, np.logical_or, np.logical_and, bool),
}

#: semiring type → elementwise "strictly better" predicate on raw planes.
#: Weighted is min-cost (numerically smaller is semiring-greater); the
#: other three are max-oriented.  Exact comparisons, matching the exact
#: tie rule of :meth:`LexicographicSemiring.plus`.
_STRICT_GT_TABLE = {
    WeightedSemiring: np.less,
    FuzzySemiring: np.greater,
    ProbabilisticSemiring: np.greater,
    BooleanSemiring: np.greater,
}


def _unlift_composite(value: Any) -> tuple:
    """A structured array scalar (``np.void``) → the nested Python tuple
    of native floats/bools the dict path carries."""
    return value.item()


def _select_into(
    out: np.ndarray, mask: np.ndarray, a: np.ndarray, b: np.ndarray
) -> None:
    """``out = where(mask, b, a)`` for structured arrays, leaf plane by
    leaf plane (``np.where`` does not accept structured operands)."""
    names = out.dtype.names
    if names is None:
        out[...] = np.where(mask, b, a)
        return
    for name in names:
        _select_into(out[name], mask, a[name], b[name])


class _ComponentwiseOp:
    """A composite ufunc-alike: apply one sub-op per dtype field.

    Implements the slice of the ufunc protocol the factors use —
    ``op(a, b, out=None)`` with broadcasting, and ``op.reduce(array,
    axis=...)``.  Sub-ops are themselves ufuncs or composite ops, so
    nested products compose transparently.  Every field op is a
    selection or the exact IEEE-754 base op, so both directions are
    bit-identical to the dict path's componentwise fold.
    """

    __slots__ = ("dtype", "fields", "ops")

    def __init__(
        self, dtype: np.dtype, fields: Tuple[str, ...], ops: Tuple[Any, ...]
    ) -> None:
        self.dtype = dtype
        self.fields = fields
        self.ops = ops

    def __call__(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if out is None:
            shape = np.broadcast_shapes(a.shape, b.shape)
            out = np.empty(shape, dtype=self.dtype)
        for field, op in zip(self.fields, self.ops):
            op(a[field], b[field], out=out[field])
        return out

    def reduce(self, array: np.ndarray, axis: Any) -> np.ndarray:
        axes = axis if isinstance(axis, tuple) else (axis,)
        shape = tuple(
            size
            for index, size in enumerate(array.shape)
            if index not in axes
        )
        out = np.empty(shape, dtype=self.dtype)
        for field, op in zip(self.fields, self.ops):
            out[field] = op.reduce(array[field], axis=axis)
        return out


class _FieldGreater:
    """Strictly-better predicate of a 1-component composite: defer to the
    single field's predicate."""

    __slots__ = ("field", "gt")

    def __init__(self, field: str, gt: Any) -> None:
        self.field = field
        self.gt = gt

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.gt(a[self.field], b[self.field])


class _LexGreater:
    """Vectorized ``a >lex b`` over structured tuples: the first field
    with a strict order decides; exact equality passes the decision on."""

    __slots__ = ("fields", "gts")

    def __init__(self, fields: Tuple[str, ...], gts: Tuple[Any, ...]) -> None:
        self.fields = fields
        self.gts = gts

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        better: Optional[np.ndarray] = None
        tied: Optional[np.ndarray] = None
        for field, gt in zip(self.fields, self.gts):
            forward = gt(a[field], b[field])
            backward = gt(b[field], a[field])
            if better is None:
                better = forward
                tied = ~(forward | backward)
            else:
                better = better | (tied & forward)
                tied = tied & ~(forward | backward)
        return better


class _LexPlus:
    """Lexicographic ``+``: select the lex-better whole tuple elementwise.

    ``reduce`` folds the collapsed axes pairwise; lex selection is
    associative, commutative and idempotent with *exact* ties, so the
    fold order cannot change which tuple survives — bit-identity with
    the dict path's sequential ``semiring.sum`` follows.
    """

    __slots__ = ("dtype", "greater")

    def __init__(self, dtype: np.dtype, greater: _LexGreater) -> None:
        self.dtype = dtype
        self.greater = greater

    def __call__(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        take_b = self.greater(b, a)
        if out is None:
            shape = np.broadcast_shapes(a.shape, b.shape)
            out = np.empty(shape, dtype=self.dtype)
        # The mask is materialized before any write, and each leaf's
        # np.where materializes before assignment, so ``out`` may alias
        # ``a`` (the reduce accumulator does exactly that).
        _select_into(out, take_b, a, b)
        return out

    def reduce(self, array: np.ndarray, axis: Any) -> np.ndarray:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(index % array.ndim for index in axes)
        keep = [
            index for index in range(array.ndim) if index not in axes
        ]
        moved = np.transpose(array, keep + sorted(axes))
        kept_shape = tuple(array.shape[index] for index in keep)
        moved = moved.reshape(kept_shape + (-1,))
        acc = np.copy(moved[..., 0])
        for position in range(1, moved.shape[-1]):
            self(acc, moved[..., position], out=acc)
        return acc


def _strict_greater(semiring: Semiring) -> Optional[Any]:
    """The elementwise strictly-better predicate of a totally ordered
    lowerable semiring (``None`` when there is none)."""
    entry = _STRICT_GT_TABLE.get(type(semiring))
    if entry is not None:
        return entry
    if isinstance(semiring, LexicographicSemiring):
        gts = tuple(
            _strict_greater(component) for component in semiring.components
        )
        if any(gt is None for gt in gts):
            return None
        fields = tuple(f"f{index}" for index in range(len(gts)))
        return _LexGreater(fields, gts)
    if isinstance(semiring, ProductSemiring) and semiring.arity == 1:
        inner = _strict_greater(semiring.components[0])
        if inner is None:
            return None
        return _FieldGreater("f0", inner)
    return None


def _lower_composite(
    semiring: "ProductSemiring | LexicographicSemiring",
) -> Optional[Lowering]:
    """Build the structured-dtype lowering of a composite semiring, or
    ``None`` when any component fails to lower."""
    subs: List[Lowering] = []
    for component in semiring.components:
        sub = lower_semiring(component)
        if sub is None:
            return None
        subs.append(sub)
    fields = tuple(f"f{index}" for index in range(len(subs)))
    dtype = np.dtype(
        [(field, np.dtype(sub.dtype)) for field, sub in zip(fields, subs)]
    )
    times = _ComponentwiseOp(
        dtype, fields, tuple(sub.times for sub in subs)
    )
    if isinstance(semiring, LexicographicSemiring):
        greater = _strict_greater(semiring)
        if greater is None:  # pragma: no cover - components all lowered
            return None
        plus: Any = _LexPlus(dtype, greater)
    else:
        # Pareto join: the product's + is the componentwise lub.
        plus = _ComponentwiseOp(
            dtype, fields, tuple(sub.plus for sub in subs)
        )
    return Lowering(
        semiring=semiring,
        dtype=dtype,
        plus=plus,
        times=times,
        unlift=_unlift_composite,
    )


#: Bounded memo of per-semiring lowerings.  This used to be an unbounded
#: ``functools.lru_cache``; a workload cycling through many distinct
#: semiring *instances* (e.g. parametrized BoundedWeighted thresholds)
#: would grow it without limit, and its traffic was invisible to
#: :func:`repro.caching.cache_stats`.  A shared :class:`LRUCache` caps it
#: and reports hits/misses alongside every other memo in the tree.
_LOWERING_CACHE_SIZE = 256
_lowering_cache = LRUCache(
    _LOWERING_CACHE_SIZE, name="lowering", threadsafe=True
)
_LOWERING_MISSING = object()


def lower_semiring(semiring: Semiring) -> Optional[Lowering]:
    """The :class:`Lowering` of ``semiring``, or ``None`` when it has no
    ufunc pair (Set-based, bounded-weighted saturation, composites with
    an unlowerable component)."""
    lowering = _lowering_cache.get(semiring, _LOWERING_MISSING)
    if lowering is not _LOWERING_MISSING:
        return lowering
    entry = _LOWERING_TABLE.get(type(semiring))
    if entry is not None:
        dtype, plus, times, unlift = entry
        lowering = Lowering(
            semiring=semiring,
            dtype=dtype,
            plus=plus,
            times=times,
            unlift=unlift,
        )
    elif isinstance(semiring, (ProductSemiring, LexicographicSemiring)):
        lowering = _lower_composite(semiring)
    else:
        lowering = None
    _lowering_cache.put(semiring, lowering)
    return lowering


#: Dict-path fallbacks under backend="auto", tallied per semiring name —
#: the silent degradation satellite: operators can see *why* the dense
#: kernels did not engage via telemetry
#: (``solver_lowering_fallback_total{semiring}``) and
#: :func:`repro.caching.cache_stats` (name ``"lowering-fallbacks"``).
_fallback_lock = threading.Lock()
_lowering_fallbacks: Dict[str, int] = {}


def _count_fallback(semiring: Semiring) -> None:
    from ..telemetry.runtime import get_registry

    name = semiring.name
    with _fallback_lock:
        _lowering_fallbacks[name] = _lowering_fallbacks.get(name, 0) + 1
    get_registry().counter(
        "solver_lowering_fallback_total",
        "Auto-backend solves that silently fell back to the dict path "
        "because the semiring does not lower.",
        labelnames=("semiring",),
    ).labels(name).inc()


def lowering_fallback_stats() -> List[Dict[str, Any]]:
    """One ``{"semiring", "fallbacks"}`` row per semiring that has taken
    the silent dict fallback in this process."""
    with _fallback_lock:
        return [
            {"semiring": name, "fallbacks": count}
            for name, count in sorted(_lowering_fallbacks.items())
        ]


register_stats_provider("lowering-fallbacks", lowering_fallback_stats)


def resolve_lowering(
    semiring: Semiring, backend: str = "auto"
) -> Optional[Lowering]:
    """Map a solver ``backend`` choice onto a lowering (or ``None``).

    ``"dict"`` always returns ``None``; ``"dense"`` raises
    :class:`KernelError` when the semiring does not lower; ``"auto"``
    lowers opportunistically — and counts the silent dict fallback under
    ``solver_lowering_fallback_total{semiring}`` when it cannot.
    """
    if backend not in ("auto", "dict", "dense"):
        raise KernelError(
            f"unknown solver backend {backend!r}; known: auto, dict, dense"
        )
    if backend == "dict":
        return None
    lowering = lower_semiring(semiring)
    if lowering is None:
        if backend == "dense":
            raise KernelError(
                f"semiring {semiring.name} does not lower to dense kernels "
                "(no ufunc pair); use the dict backend"
            )
        _count_fallback(semiring)
    return lowering


class DenseFactor:
    """A soft constraint as an ndarray indexed by per-variable domain axes.

    ``array.shape == tuple(var.size for var in scope)``; axis ``i`` of the
    array enumerates ``scope[i].domain`` in domain order.  Factors are
    immutable: every operation returns a new factor and never writes into
    an existing array (which is what makes the per-table conversion memo
    safe to share, and :meth:`digest` safe to keep).
    """

    __slots__ = ("semiring", "lowering", "scope", "array", "_digest")

    def __init__(
        self,
        lowering: Lowering,
        scope: Sequence[Variable],
        array: np.ndarray,
    ) -> None:
        self.lowering = lowering
        self.semiring = lowering.semiring
        self.scope: Tuple[Variable, ...] = tuple(scope)
        self.array = array
        self._digest: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Converters
    # ------------------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: TableConstraint, lowering: Lowering
    ) -> "DenseFactor":
        """Lower an extensional table: default-filled array plus the
        explicit tuples scattered in."""
        scope = table.scope
        shape = tuple(var.size for var in scope)
        default = table.default
        if np.dtype(lowering.dtype).names is not None:
            # A composite default is a (nested) tuple; np.full needs it
            # pre-packed as a 0-d structured scalar to broadcast it.
            default = np.array(default, dtype=lowering.dtype)
        array = np.full(shape, default, dtype=lowering.dtype)
        if table.table:
            indices = [
                {value: i for i, value in enumerate(var.domain)}
                for var in scope
            ]
            for key, value in table.table.items():
                idx = tuple(
                    index[part] for index, part in zip(indices, key)
                )
                array[idx] = value
        return cls(lowering, scope, array)

    @classmethod
    def from_constraint(
        cls, constraint: SoftConstraint, lowering: Lowering
    ) -> "DenseFactor":
        """Lower any constraint, memoizing the conversion on the
        materialized table so repeated solves over the same constraint
        objects (the broker/runtime hot path) lower exactly once."""
        if isinstance(constraint, DenseFactor):  # pragma: no cover - guard
            return constraint
        table = to_table(constraint)
        memo = getattr(table, "_dense_memo", None)
        if memo is not None and memo.lowering is lowering:
            return memo
        factor = cls.from_table(table, lowering)
        table._dense_memo = factor
        return factor

    def to_table(self, name: str = "") -> TableConstraint:
        """Raise back to an extensionally equal :class:`TableConstraint`.

        Every tuple is emitted explicitly (like
        :func:`~repro.constraints.table.to_table`), in row-major order —
        the same order ``iter_assignments`` enumerates — so downstream
        consumers observe identical iteration order on both backends.
        """
        # ``tolist`` bulk-converts to the carrier's native Python type in
        # C — exactly what ``unlift`` (float/bool) does per element, and
        # bit-exact for IEEE-754 doubles.
        values = self.array.reshape(-1).tolist()
        table: dict[Tuple[Any, ...], Any] = dict(
            zip(_iter_keys(self.scope), values)
        )
        return TableConstraint._from_solver(
            self.semiring,
            self.scope,
            table,
            default=self.semiring.zero,
            name=name,
        )

    def digest(self) -> bytes:
        """SHA-256 of the scope names, their domain values and the
        array's bytes, computed once per factor.

        Two factors with one digest hold the same bytes over the same
        labelled axes, so every ufunc call reads the same input from
        either; the semiring (hence the dtype) is not in it.  A stacked
        scan's cache key (:func:`repro.solver.stacked.group_key`) is
        built from these digests.
        """
        digest = self._digest
        if digest is None:
            piece = hashlib.sha256()
            for var in self.scope:
                piece.update(
                    f"{var.name!r}:{canon_value(var.domain)};".encode()
                )
            piece.update(self.array.tobytes())
            digest = self._digest = piece.digest()
        return digest

    @property
    def support(self) -> Tuple[str, ...]:
        return scope_names(self.scope)

    def consistency(self) -> Any:
        """``c ⇓∅`` — plus-reduce every axis down to one scalar."""
        array = self.array
        if array.ndim:
            array = self.lowering.plus.reduce(
                array, axis=tuple(range(array.ndim))
            )
        return self.lowering.unlift(array[()])

    def value(self, assignment: dict) -> Any:
        """Point lookup (used by tests; solvers index the array directly)."""
        idx = tuple(
            var.domain.index(assignment[var.name]) for var in self.scope
        )
        return self.lowering.unlift(self.array[idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DenseFactor(scope={self.support!r}, shape={self.array.shape}, "
            f"semiring={self.semiring.name})"
        )


def _iter_keys(scope: Tuple[Variable, ...]):
    """Row-major tuples over the scope's domains (last variable fastest) —
    the same order ``iter_assignments`` walks and ndarrays flatten to."""
    return itertools.product(*(var.domain for var in scope))
