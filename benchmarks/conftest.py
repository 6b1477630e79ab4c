"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (figure or worked example,
DESIGN.md E1–E8) or one of our scalability/ablation studies (E9–E12).
``report`` prints the same rows/series the paper reports so a run of
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
log recorded in EXPERIMENTS.md.

Telemetry: set ``REPRO_TELEMETRY=1`` to give every benchmark its own
:mod:`repro.telemetry` session and dump the per-test metrics snapshot as
``TELEMETRY_<test>.json`` next to the ``BENCH_*.json`` artifacts
(``REPRO_TELEMETRY_DIR``, default ``benchmarks/telemetry``).  Left
unset, benchmarks run against the null registry — the configuration the
solver-scaling regression gate measures.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterable, Sequence

import pytest

#: Where bench runs write their JSON artifacts.  The directory is ignored
#: by git, so a run never rewrites the ``benchmarks/BENCH_PR*.json``
#: files committed as history.
BENCH_OUT = "benchmarks/.out"


def report(title: str, rows: Iterable[Sequence], headers: Sequence[str]):
    """Print a small fixed-width table under a title."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


@pytest.fixture(autouse=True)
def _telemetry_dump(request):
    """Per-benchmark telemetry session, gated on ``REPRO_TELEMETRY``."""
    if not os.environ.get("REPRO_TELEMETRY"):
        yield
        return
    from repro.telemetry import telemetry_session, write_snapshot

    out_dir = Path(
        os.environ.get("REPRO_TELEMETRY_DIR", "benchmarks/telemetry")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with telemetry_session() as session:
        yield
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.nodeid)
        write_snapshot(
            out_dir / f"TELEMETRY_{safe}.json",
            session.registry,
            session.tracer,
            session.events,
        )


def load_telemetry_snapshot(path):
    """Read back one ``TELEMETRY_*.json`` dump (bench post-processing)."""
    return json.loads(Path(path).read_text())


def record_bench_artifact(
    section: str, payload: dict, path: "str | Path | None" = None
) -> Path:
    """Merge ``payload`` under ``section`` in the bench JSON artifact.

    The default artifact (``REPRO_BENCH_JSON``, falling back to
    ``benchmarks/.out/BENCH_PR3.json``) accumulates one section per
    benchmark — the CI bench job uploads the merged file, so the
    dict-vs-dense and cold-vs-warm medians travel with every run.
    Later benchmarks pass an explicit ``path`` under :data:`BENCH_OUT`
    (e.g. ``benchmarks/.out/BENCH_PR4.json``) so each artifact stays
    separate.
    """
    if path is None:
        path = os.environ.get("REPRO_BENCH_JSON", f"{BENCH_OUT}/BENCH_PR3.json")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged[section] = payload
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def weighted():
    from repro.semirings import WeightedSemiring

    return WeightedSemiring()


@pytest.fixture
def fuzzy():
    from repro.semirings import FuzzySemiring

    return FuzzySemiring()
