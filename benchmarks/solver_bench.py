"""Per-solve solver time on one workload's candidate SCSPs.

Serves a few sessions of an end-to-end workload (``benchmarks/e2e/
workloads.py``, imported read-only) through a plain :class:`Broker`,
captures every candidate SCSP the broker hands its solver, then times
one solver over the captured problems:

* ``--method branch-bound`` (the default): ``solve_branch_bound`` on
  each problem, as the broker solves a candidate;
* ``--method elimination``: ``solve_elimination`` on each problem's
  constraints with ``con=()`` — the store-consistency query ``σ ⇓∅``
  that ``verified-market``'s nmsccp confirmation asks.

The figure printed is the minimum, over ``--passes`` passes (default
100), of the mean time per solve: end-to-end runs swing with host speed,
and the minimum of many short passes is the solver layer's cost with
that noise stripped.

Constraint memos (tables and their search rows) are warm across passes.
In ``unique-market`` traffic each session's requirement is new, so its
rows are built once per session; the traced end-to-end row
``solver.solve_ms_per_session`` carries that cost, this figure does not.

    python3 benchmarks/solver_bench.py --workload unique-market
    python3 benchmarks/solver_bench.py --workload chain-market \
        --method elimination --passes 20
    make bench-solver W=chain-market METHOD=elimination PASSES=20

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Inputs  # noqa: E402

from repro.soa.broker import Broker  # noqa: E402
from repro.solver import (  # noqa: E402
    SCSP,
    solve_branch_bound,
    solve_elimination,
)

SEED = 1
SESSIONS = 32
PASSES = 100


def capture(workload: str) -> List[SCSP]:
    """Every candidate SCSP a plain broker solves over ``SESSIONS``
    sessions of ``workload``'s request stream."""
    inputs = Inputs(WORKLOADS[workload], SEED, window=0)
    broker = Broker(inputs.registry())
    problems: List[SCSP] = []
    solve = broker._solve

    def capturing(problem, **options):
        problems.append(problem)
        return solve(problem, **options)

    broker._solve = capturing
    for index in range(SESSIONS):
        _spec, request = inputs.request(index)
        broker.negotiate(request)
    return problems


def pass_times(
    problems: List[SCSP], method: str, passes: int
) -> List[float]:
    """Mean seconds per solve, one entry per pass over ``problems``."""
    if method == "elimination":
        problems = [SCSP(p.constraints, con=()) for p in problems]
        solver = solve_elimination
    else:
        solver = solve_branch_bound
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        for problem in problems:
            solver(problem)
        times.append((time.perf_counter() - started) / len(problems))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="unique-market"
    )
    parser.add_argument(
        "--method",
        choices=("branch-bound", "elimination"),
        default="branch-bound",
    )
    parser.add_argument("--passes", type=int, default=PASSES)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    problems = capture(args.workload)
    times = pass_times(problems, args.method, args.passes)
    row = {
        "workload": args.workload,
        "method": args.method,
        "problems": len(problems),
        "passes": args.passes,
        "solve_us_min": round(min(times) * 1e6, 2),
        "solve_us_median": round(statistics.median(times) * 1e6, 2),
    }
    print(
        f"{args.workload} {args.method}: {len(problems)} candidate solves, "
        f"min {row['solve_us_min']} µs / median "
        f"{row['solve_us_median']} µs per solve over {args.passes} passes"
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
