"""Per-solve solver time on one workload's candidate SCSPs.

Serves a few sessions of an end-to-end workload (``benchmarks/e2e/
workloads.py``, imported read-only) through a plain :class:`Broker`,
captures every candidate SCSP the broker builds, then times one solver
over the captured problems:

* ``--method branch-bound`` (the default): ``solve_branch_bound`` on
  each problem, one candidate at a time;
* ``--method stacked``: ``solve_stacked`` once per topology group of
  each session's candidates, as the broker's step 3 solves a group
  whose joint table is within ``STACK_LIMIT`` (here every group is
  stacked, whatever its size, so the figure shows what stacking costs
  beyond the bound too);
* ``--method elimination``: ``solve_elimination`` on each problem's
  constraints with ``con=()`` — the store-consistency query ``σ ⇓∅``
  that ``verified-market``'s nmsccp confirmation asks.

The figure printed is the minimum, over ``--passes`` passes (default
100), of the mean time per candidate: end-to-end runs swing with host
speed, and the minimum of many short passes is the solver layer's cost
with that noise stripped.

Constraint memos (tables and their search rows) are warm across passes.
In ``unique-market`` traffic each session's requirement is new, so its
rows are built once per session; the traced end-to-end row
``solver.solve_ms_per_session`` carries that cost, this figure does not.

    python3 benchmarks/solver_bench.py --workload unique-market
    python3 benchmarks/solver_bench.py --workload unique-market \
        --method stacked
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
    solve_stacked,
    topology_groups,
)

SEED = 1
SESSIONS = 32
PASSES = 100


def capture(workload: str) -> List[List[SCSP]]:
    """Every candidate SCSP a plain broker builds over ``SESSIONS``
    sessions of ``workload``'s request stream, one topology group per
    list (the groups the broker's step 3 forms)."""
    inputs = Inputs(WORKLOADS[workload], SEED, window=0)
    broker = Broker(inputs.registry())
    session: List[SCSP] = []
    build = broker._candidate_problem

    def capturing(*args):
        problem = build(*args)
        if problem is not None:
            session.append(problem)
        return problem

    broker._candidate_problem = capturing
    groups: List[List[SCSP]] = []
    for index in range(SESSIONS):
        _spec, request = inputs.request(index)
        session.clear()
        broker.negotiate(request)
        groups.extend(
            [session[member] for member in group]
            for group in topology_groups(session)
        )
    return groups


def pass_times(
    groups: List[List[SCSP]], method: str, passes: int
) -> List[float]:
    """Mean seconds per candidate, one entry per pass over ``groups``."""
    problems = [problem for group in groups for problem in group]
    if method == "stacked":
        calls = [(solve_stacked, group) for group in groups]
    elif method == "elimination":
        calls = [
            (solve_elimination, SCSP(p.constraints, con=()))
            for p in problems
        ]
    else:
        calls = [(solve_branch_bound, problem) for problem in problems]
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        for solver, argument in calls:
            solver(argument)
        times.append((time.perf_counter() - started) / len(problems))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="unique-market"
    )
    parser.add_argument(
        "--method",
        choices=("branch-bound", "stacked", "elimination"),
        default="branch-bound",
    )
    parser.add_argument("--passes", type=int, default=PASSES)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    groups = capture(args.workload)
    problems = sum(len(group) for group in groups)
    times = pass_times(groups, args.method, args.passes)
    row = {
        "workload": args.workload,
        "method": args.method,
        "problems": problems,
        "groups": len(groups),
        "passes": args.passes,
        "solve_us_min": round(min(times) * 1e6, 2),
        "solve_us_median": round(statistics.median(times) * 1e6, 2),
    }
    print(
        f"{args.workload} {args.method}: {problems} candidates in "
        f"{len(groups)} groups, min {row['solve_us_min']} µs / median "
        f"{row['solve_us_median']} µs per candidate over {args.passes} "
        "passes"
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
