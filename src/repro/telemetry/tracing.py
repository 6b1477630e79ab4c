"""Hierarchical spans: who called what, and how long it took.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span makes it the parent of any span opened before it exits, so nested
instrumentation (broker step → per-candidate solve → solver backend)
composes into a tree without any explicit plumbing.  Finished root spans
accumulate on ``tracer.finished`` for export.

The open-span stack lives in a :class:`~contextvars.ContextVar`, so
concurrent asyncio tasks (one per runtime session) and worker threads
each see their own lineage: work handed to a thread with a copied
context (``asyncio.to_thread`` copies it) gets the caller's span as
parent, while sibling sessions never nest under one another.

The disabled path is :class:`NullTracer`, whose ``span`` returns a
shared no-op context manager.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed operation, possibly with children."""

    __slots__ = (
        "name",
        "attributes",
        "parent",
        "children",
        "started_at",
        "duration_s",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional["Span"] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.parent = parent
        self.children: List[Span] = []
        self.started_at = time.time()
        self.duration_s: Optional[float] = None
        self._t0 = time.perf_counter()

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def finished(self) -> bool:
        return self.duration_s is not None

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        took = (
            f"{self.duration_s * 1e3:.3f}ms" if self.finished else "open"
        )
        return f"Span({self.name!r}, {took}, {len(self.children)} child(ren))"


class _SpanContext:
    """The context manager wrapping one span's lifetime."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        span = self._span
        span.duration_s = time.perf_counter() - span._t0
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(span)


class Tracer:
    """Builds span trees; keeps finished roots for export.

    Safe under concurrency: the open-span stack is context-local (one
    per task/thread context) and the finished-roots list is guarded by a
    lock, so sessions served in parallel produce disjoint trees.
    """

    enabled = True

    def __init__(self) -> None:
        self.finished: List[Span] = []
        self._lock = threading.Lock()
        self._stack_var: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro_trace_stack", default=()
        )

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        span = Span(name, attributes, parent)
        if parent is not None:
            parent.children.append(span)
        self._stack_var.set(stack + (span,))
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        # Close any dangling descendants left open by an exception.
        stack = self._stack_var.get()
        while stack and stack[-1] is not span:
            dangling = stack[-1]
            stack = stack[:-1]
            if dangling.duration_s is None:
                dangling.duration_s = time.perf_counter() - dangling._t0
        if stack and stack[-1] is span:
            stack = stack[:-1]
        self._stack_var.set(stack)
        if span.parent is None:
            with self._lock:
                self.finished.append(span)

    @property
    def current(self) -> Optional[Span]:
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, roots first, depth-first."""
        for root in self.finished:
            yield from root.iter_tree()

    def span_names(self) -> List[str]:
        return [span.name for span in self.iter_spans()]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Flat span records (parent by name), ready for JSON lines."""
        records = []
        for span in self.iter_spans():
            records.append(
                {
                    "name": span.name,
                    "parent": span.parent.name if span.parent else None,
                    "started_at": span.started_at,
                    "duration_s": span.duration_s,
                    "attributes": dict(span.attributes),
                }
            )
        return records

    def clear(self) -> None:
        with self._lock:
            self.finished.clear()
        self._stack_var.set(())


class _NullSpanContext:
    """Shared do-nothing span context (also quacks like a Span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set_attribute(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpanContext()


class NullTracer:
    """The disabled tracer."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return NULL_SPAN

    @property
    def current(self) -> None:
        return None

    @property
    def finished(self) -> List[Span]:
        return []

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def span_names(self) -> List[str]:
        return []

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
