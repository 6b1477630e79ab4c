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
  beyond the bound too).  It also prints the time per group through
  ``solve(group, cache=…)``, the broker's own call: on a miss, with
  each pass rebuilding its sessions' requirements as fresh objects so
  every pass pays their tables, lowering and factor digests as serving
  does; and on a warm hit;
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
from typing import List, NamedTuple, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Inputs  # noqa: E402

from repro.soa.broker import Broker  # noqa: E402
from repro.solver import (  # noqa: E402
    SCSP,
    SolveCache,
    solve,
    solve_branch_bound,
    solve_elimination,
    solve_stacked,
    topology_groups,
)

SEED = 1
SESSIONS = 32
PASSES = 100


class Group(NamedTuple):
    """One topology group of one session's candidates."""

    session: int
    #: How many leading constraints of each member are the session's
    #: requirements (the rest is the candidate's compiled offer).
    requirements: int
    problems: List[SCSP]


def capture(inputs: Inputs) -> List[Group]:
    """Every candidate SCSP a plain broker builds over ``SESSIONS``
    sessions of ``inputs``' request stream, one topology group per
    entry (the groups the broker's step 3 forms)."""
    broker = Broker(inputs.registry())
    session: List[SCSP] = []
    build = broker._candidate_problem

    def capturing(*args):
        problem = build(*args)
        if problem is not None:
            session.append(problem)
        return problem

    broker._candidate_problem = capturing
    groups: List[Group] = []
    for index in range(SESSIONS):
        _spec, request = inputs.request(index)
        session.clear()
        broker.negotiate(request)
        groups.extend(
            Group(
                index,
                len(request.requirements),
                [session[member] for member in group],
            )
            for group in topology_groups(session)
        )
    return groups


def fresh_groups(inputs: Inputs, groups: List[Group]) -> List[List[SCSP]]:
    """``groups`` rebuilt over fresh requirement objects (no table,
    lowering or digest memoized yet), sharing the captured offers."""
    fresh = {
        index: inputs._build(inputs.request(index)[0])[1].requirements
        for index in {group.session for group in groups}
    }
    return [
        [
            SCSP(
                list(fresh[group.session])
                + list(problem.constraints[group.requirements :]),
                name=problem.name,
            )
            for problem in group.problems
        ]
        for group in groups
    ]


def cached_group_times(
    inputs: Inputs, groups: List[Group], passes: int
) -> Tuple[List[float], List[float]]:
    """Mean seconds per group through ``solve(group, cache=…)``, one
    entry per pass: on a miss (fresh requirements, empty caches) and on
    a warm hit."""
    misses = []
    for _ in range(passes):
        batch = fresh_groups(inputs, groups)
        caches = [SolveCache() for _ in batch]
        started = time.perf_counter()
        for problems, cache in zip(batch, caches):
            solve(problems, cache=cache)
        misses.append((time.perf_counter() - started) / len(batch))
    cache = SolveCache()
    for group in groups:
        solve(group.problems, cache=cache)
    hits = []
    for _ in range(passes):
        started = time.perf_counter()
        for group in groups:
            solve(group.problems, cache=cache)
        hits.append((time.perf_counter() - started) / len(groups))
    return misses, hits


def pass_times(groups: List[Group], method: str, passes: int) -> List[float]:
    """Mean seconds per candidate, one entry per pass over ``groups``."""
    problems = [problem for group in groups for problem in group.problems]
    if method == "stacked":
        calls = [(solve_stacked, group.problems) for group in groups]
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

    inputs = Inputs(WORKLOADS[args.workload], SEED, window=0)
    groups = capture(inputs)
    problems = sum(len(group.problems) for group in groups)
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
    if args.method == "stacked":
        misses, hits = cached_group_times(inputs, groups, args.passes)
        for outcome, figures in (("miss", misses), ("hit", hits)):
            row[f"cached_{outcome}_us_min"] = round(min(figures) * 1e6, 2)
            row[f"cached_{outcome}_us_median"] = round(
                statistics.median(figures) * 1e6, 2
            )
            print(
                f"{args.workload} solve(group, cache=…) {outcome}: min "
                f"{row[f'cached_{outcome}_us_min']} µs / median "
                f"{row[f'cached_{outcome}_us_median']} µs per group"
            )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
