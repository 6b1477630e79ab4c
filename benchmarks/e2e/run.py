"""End-to-end negotiation benchmark: binding request to signed SLA.

Runs the workloads of :mod:`workloads`, each window in its own fresh
process (``window.py``), windows interleaved round-robin across
workloads.  Every window's sampled agreements go through the numpy
oracle; any mismatch, failed session or silent trace layer makes the
run exit 1.  Metric names, units and bounds come from ``BENCHMARK.json``.
End-to-end timings are scaled to a reference host speed (``host.py``);
``--out`` files also keep them unscaled, with the host's speed factor.

    # every workload, three 8-second windows each; prints every metric
    python3 benchmarks/e2e/run.py --seed 1 --out run.json
    # per-layer numbers: one untraced and one traced window per workload
    python3 benchmarks/e2e/run.py --seed 1 --trace --out trace.json
    # one workload; the last stdout line is one JSON result object
    python3 benchmarks/e2e/run.py --workload chain-market --seed 3 \
        --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy

from window import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Untraced windows per workload; a traced run makes one untraced and one
#: traced window, so ``trace.overhead`` compares like with like.
WINDOWS = 3
#: Per-window process limit, beyond the measured seconds.
WINDOW_SLACK_S = 90.0


class BenchError(Exception):
    """A window failed, an agreement was wrong or a layer went silent."""


def run_window(
    workload: str, seed: int, window: int, seconds: float, trace: bool,
    trace_dir: Path,
) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "window.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--window", str(window),
        "--seconds", repr(seconds),
        "--trace", str(int(trace)),
    ]
    if trace:
        command += ["--trace-out", str(trace_dir / f"{workload}-{seed}.jsonl")]
    command += ["--t0", repr(time.time())]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=seconds + WINDOW_SLACK_S,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} window {window} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(windows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each metric's median over the windows (a latency percentile is
    taken per window first), so one window caught in a host stall does
    not move it."""
    def median(value) -> float:
        return statistics.median(value(w) for w in windows)

    return {
        "sessions_per_s": median(lambda w: w["completed"] / w["elapsed_s"]),
        "latency_p50_ms": median(lambda w: percentile(w["latencies_ms"], 50)),
        "cpu_ms_per_session": median(lambda w: 1000.0 * w["cpu_s"] / w["completed"]),
        "setup_s": median(lambda w: w["setup_s"]),
        "setup_rss_mb": median(lambda w: w["setup_rss_mb"]),
    }


def unscaled(windows: List[Dict[str, Any]]) -> Dict[str, float]:
    """The same medians before scaling to reference host speed, and the
    host's speed factor (recorded in ``--out`` files, not bounded)."""
    return {
        "sessions_per_s": statistics.median(
            w["completed"] / w["raw"]["elapsed_s"] for w in windows
        ),
        "latency_p50_ms": statistics.median(
            w["raw"]["latency_p50_ms"] for w in windows
        ),
        "cpu_ms_per_session": statistics.median(
            1000.0 * w["raw"]["cpu_s"] / w["completed"] for w in windows
        ),
        "host.speed": statistics.median(w["host_speed"] for w in windows),
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """The traced window's layer numbers, plus what the untraced window
    measures better: the latency tail, retained memory and the tracing
    overhead (traced over untraced CPU per session, minus one)."""
    cpu = [1000.0 * w["cpu_s"] / w["completed"] for w in (plain, traced)]
    return dict(
        traced["layers"],
        **{
            "latency_p90_ms": percentile(plain["latencies_ms"], 90),
            "latency_p99_ms": percentile(plain["latencies_ms"], 99),
            "runtime.retained_kb_per_session": plain["retained_kb_per_session"],
            "trace.overhead": cpu[1] / cpu[0] - 1.0,
        },
    )


def check_windows(
    workload: str, windows: List[Dict[str, Any]], expected_layers
) -> List[str]:
    problems = []
    for w in windows:
        tag = f"{workload} window {w['window']}"
        oracle = w["oracle"]
        if oracle["checked"] == 0:
            problems.append(f"{tag}: oracle checked no session")
        problems += [f"{tag}: {error}" for error in oracle["errors"]]
        if w["failed"]:
            problems.append(f"{tag}: {w['failed']} session(s) not completed")
        if w["trace"]:
            problems += [
                f"{tag}: traced layer {layer} recorded no call"
                for layer in expected_layers
                if not w["layer_calls"].get(layer)
            ]
    return problems


def metadata(args: argparse.Namespace) -> Dict[str, Any]:
    cpu_model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append",
        help="run only this workload (repeatable); default: all",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload, split over its windows "
        f"(default: {WINDOWS} x 8 s; traced: 2 x 4 s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run: report per_layer metrics instead",
    )
    parser.add_argument("--out", type=Path, help="write the run as JSON")
    parser.add_argument(
        "--trace-dir", type=Path, default=HERE / ".out",
        help="where traced windows write their spans as JSONL",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    windows = 2 if args.trace else WINDOWS
    if args.seconds is None:
        args.seconds = 8.0 if args.trace else 8.0 * WINDOWS
    seconds = args.seconds / windows
    compileall.compile_dir(SRC, quiet=1)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workloads = args.workload or list(WORKLOADS)
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")

    # Round-robin: window 0 of every workload, then window 1, ...
    results: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    try:
        for window in range(windows):
            for workload in workloads:
                traced = bool(args.trace) and window == 1
                results[workload].append(
                    run_window(
                        workload,
                        args.seed,
                        0 if args.trace else window,
                        seconds,
                        traced,
                        args.trace_dir,
                    )
                )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    report: Dict[str, Any] = {}
    problems: List[str] = []
    for workload, runs in results.items():
        found = check_windows(workload, runs, WORKLOADS[workload].layers)
        problems += found
        values = per_layer(*runs) if args.trace else end_to_end(runs)
        report[workload] = {
            "correct": not found,
            "attempted": sum(w["attempted"] for w in runs),
            "failed": sum(w["failed"] for w in runs),
            # A cache or fleet that a workload never builds reads 0.
            "metrics": {
                m["name"]: {
                    "value": (
                        values.get(m["name"], 0.0)
                        if args.trace
                        else values[m["name"]]
                    ),
                    "unit": m["unit"],
                }
                for m in spec[section]
            },
        }

    for workload, entry in report.items():
        for name, metric in entry["metrics"].items():
            print(f"{workload:16s} {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.out is not None:
        saved = {
            w: dict(e, unscaled=unscaled(results[w])) if not args.trace else e
            for w, e in report.items()
        }
        args.out.write_text(
            json.dumps({"meta": metadata(args), "workloads": saved}, indent=1)
            + "\n"
        )
    if len(report) == 1:
        (summary,) = report.values()
    else:
        summary = {
            "correct": all(e["correct"] for e in report.values()),
            "attempted": sum(e["attempted"] for e in report.values()),
            "failed": sum(e["failed"] for e in report.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, e in report.items()
                for name, metric in e["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
