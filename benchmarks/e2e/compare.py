"""Compare two benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` files.  One row per
workload and metric shows both values and the ratio B/A.  End-to-end
metrics carry their ``BENCHMARK.json`` bound: a row is flagged ``WORSE``
(or ``BETTER``) when B differs from A in that direction by more than the
bound, as a share of A.  Exits 1 when any row is ``WORSE``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def flag(metric: Dict[str, Any], a: float, b: float) -> str:
    """``WORSE``/``BETTER`` beyond the metric's bound, else empty."""
    bound = metric.get("bound")
    if bound is None or a == 0:
        return ""
    change = (b - a) / abs(a)
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "BETTER"
    return ""


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Printable rows; the last field of each data row is its flag."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    keys = ("commit", "python", "numpy", "nproc", "cpu", "seed", "seconds", "trace")
    lines = [
        "A: " + " ".join(f"{k}={a['meta'].get(k)}" for k in keys),
        "B: " + " ".join(f"{k}={b['meta'].get(k)}" for k in keys),
        f"{'workload':16s} {'metric':36s} {'A':>12s} {'B':>12s} {'B/A':>7s}  flag",
    ]
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            lines.append(f"{workload:16s} (missing from B)")
            continue
        for name, value in entry["metrics"].items():
            if name not in other["metrics"]:
                continue
            va, vb = value["value"], other["metrics"][name]["value"]
            ratio = f"{vb / va:7.3f}" if va else "      -"
            mark = flag(metrics.get(name, {"better": "lower"}), va, vb)
            lines.append(
                f"{workload:16s} {name:36s} {va:12.4f} {vb:12.4f} {ratio}  {mark}"
            )
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    lines = compare(a, b, json.loads(SPEC.read_text()))
    print("\n".join(lines))
    return 1 if any(line.endswith("WORSE") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
