"""Span tracing from outside the program: timing wrappers at the call
sites the broker uses.

:meth:`Recorder.install` replaces each target attribute with a wrapper
that records one span per call: ``(trace id, span id, parent id, name,
start, end)``.  A thread-local stack supplies the parent; a span opened
with an empty stack starts a new trace (one per ``Broker.negotiate``
call).  Spans stay in memory and are written as JSONL at the end of the
run; :func:`layer_table` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name).  ``repro.soa.broker.<fn>`` are
#: the names the broker module imported, so wrapping them there catches
#: exactly the broker's own calls.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.soa.broker", "Broker.negotiate", "broker.negotiate"),
    ("repro.soa.registry", "ServiceRegistry.find", "registry.find"),
    ("repro.soa.broker", "solve", "solver.solve"),
    ("repro.soa.broker", "compile_document", "qos.compile"),
    ("repro.soa.broker", "negotiate", "sccp.verify"),
    ("repro.soa.broker", "combine", "sla.combine"),
    ("repro.sccp.check", "CheckSpec.holds", "store.check"),
    ("repro.soa.sla", "SLARepository.add", "sla.add"),
)

#: Span tuple layout.
TRACE, SPAN, PARENT, NAME, START, END = range(6)


class Recorder:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, Optional[int], str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans (call only while no traced call runs)."""
        self.spans.clear()

    def _wrap(self, original: Any, name: str) -> Any:
        local, ids, spans = self._local, self._ids, self.spans
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                trace_id, parent_id = stack[-1]
            else:
                trace_id, parent_id = span_id, None
            stack.append((trace_id, span_id))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((trace_id, span_id, parent_id, name, start, end))

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("trace", "span", "parent", "name", "start", "end")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        inside = [
            (max(s, start), min(e, end))
            for s, e in children.get(span[SPAN], ())
            if e > start and s < end
        ]
        out[span[SPAN]] = (end - start) - _union(inside)
    return out


def layer_durations(spans: List[tuple]) -> Dict[str, List[float]]:
    """Span durations grouped by layer.

    A layer is the span name, except that ``store.check`` spans under
    ``sccp.verify`` belong to the nmsccp exploration: only the broker's
    own acceptance checks count as ``store.acceptance``.
    """
    by_id = {span[SPAN]: span for span in spans}

    def under_sccp(span: tuple) -> bool:
        parent = span[PARENT]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[NAME] == "sccp.verify":
                return True
            parent = ancestor[PARENT]
        return False

    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        name = span[NAME]
        if name == "store.check":
            name = "sccp.check" if under_sccp(span) else "store.acceptance"
        durations[name].append(span[END] - span[START])
    return durations


def layer_table(spans: List[tuple], sessions: int) -> Dict[str, float]:
    """Per-layer numbers over one traced window; per-session values
    divide by ``sessions``."""
    durations = layer_durations(spans)
    selfs = self_times(spans)
    roots = [span for span in spans if span[NAME] == "broker.negotiate"]
    root_total = sum(span[END] - span[START] for span in roots)
    root_self = sum(selfs[span[SPAN]] for span in roots)
    per = max(sessions, 1)

    def ms(name: str) -> float:
        return 1000.0 * sum(durations.get(name, ())) / per

    def calls(name: str) -> float:
        return len(durations.get(name, ())) / per

    solve = durations.get("solver.solve", [])
    return {
        "solver.solve_ms_per_session": ms("solver.solve"),
        "solver.solve_calls_per_session": calls("solver.solve"),
        "solver.solve_p99_ms": (
            1000.0 * float(np.percentile(solve, 99)) if solve else 0.0
        ),
        "store.acceptance_ms_per_session": ms("store.acceptance"),
        "store.acceptance_calls_per_session": calls("store.acceptance"),
        "sccp.verify_ms_per_session": ms("sccp.verify"),
        "broker.self_ms_per_session": 1000.0 * root_self / per,
        "registry.find_ms_per_session": ms("registry.find"),
        "qos.compile_ms_per_session": ms("qos.compile"),
        "qos.compile_calls_per_session": calls("qos.compile"),
        "sla.sign_ms_per_session": ms("sla.combine") + ms("sla.add"),
        "broker.negotiate_ms_per_session": 1000.0 * root_total / per,
        "trace.coverage": (
            (root_total - root_self) / root_total if root_total else 0.0
        ),
    }
