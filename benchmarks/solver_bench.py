"""Per-solve solver time on one workload's candidate problems.

Builds a plain :class:`Broker` over an end-to-end workload's market
(``benchmarks/e2e/workloads.py``, imported read-only), takes the
candidate problems its step 3 solves for a few sessions —
``requirements ⊗ offer`` for each admitted offer of the broker's market
plan, one entry per plan group — then times one solver over them:

* ``--method branch-bound`` (the default): ``solve_branch_bound`` on
  each problem, one candidate at a time.  It also times the group
  search (``search_group``) once per plan group, the session's
  requirements against the group's stacked offers under its mask: what
  step 3 runs on a group whose joint table exceeds ``STACK_LIMIT``
  (here every group is searched, whatever its size);
* ``--method stacked``: ``solve_stacked`` once per plan group, the
  stacked scan step 3 runs on a group whose joint table is within
  ``STACK_LIMIT`` (here every group is stacked, whatever its size, so
  the figure shows what stacking costs beyond the bound too);
* ``--method elimination``: ``solve_elimination`` on each problem's
  constraints with ``con=()`` — the store-consistency query ``σ ⇓∅``
  that ``verified-market``'s nmsccp confirmation asks.

Every method also prints the time of a whole session's step 3
(``Broker._evaluate_candidates``, each group's ``solve(…, cache=…)``
included, whichever of the scan, the group search or per-candidate
solves the broker picks): on a miss, each pass with fresh requirement
objects and an empty solve cache, so every pass pays the requirements'
tables, lowering and digests as serving does; and on a warm hit.

The figure printed is the minimum, over ``--passes`` passes (default
100), of the mean time per candidate (per session for step 3): end-to-end
runs swing with host speed, and the minimum of many short passes is the
solver layer's cost with that noise stripped.

Constraint memos (tables and their search rows) are warm across passes.
In ``unique-market`` traffic each session's requirement is new, so its
rows are built once per session; the traced end-to-end row
``solver.solve_ms_per_session`` carries that cost, the per-candidate
figures do not (the step-3 miss figure does).

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
from typing import List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Inputs  # noqa: E402

from repro.soa.broker import Broker, ClientRequest  # noqa: E402
from repro.solver import (  # noqa: E402
    SCSP,
    GroupSearch,
    Requirement,
    SolveCache,
    search_group,
    solve_branch_bound,
    solve_elimination,
    solve_stacked,
)

SEED = 1
SESSIONS = 32
PASSES = 100


class Group(NamedTuple):
    """One plan group's admitted candidates for one session, and the
    group search of them (``None`` when the group is not stacked)."""

    session: int
    problems: List[SCSP]
    search: Optional[GroupSearch]


def capture(inputs: Inputs) -> Tuple[Broker, List[Group]]:
    """A plain broker over ``inputs``' market, and the candidate
    problems its step 3 solves over ``SESSIONS`` sessions of the request
    stream: each plan group's admitted offers, each combined with the
    session's requirements."""
    broker = Broker(inputs.registry())
    groups: List[Group] = []
    for index in range(SESSIONS):
        request = inputs.request(index)[1]
        plan = broker._market(
            request.operation, request.attribute, request.resolved_semiring()
        )
        requirement = Requirement(request.requirements, plan.lowering)
        for group, picks in plan.select(
            candidates(broker, request), request.requirements
        ):
            search = None
            if group.stack is not None:
                search = GroupSearch.of(
                    group.stack, requirement, [offer.member for _, offer in picks]
                )
            groups.append(
                Group(
                    index,
                    [
                        SCSP(
                            list(request.requirements) + list(offer.constraints),
                            name=offer.description.service_id,
                        )
                        for _, offer in picks
                    ],
                    search,
                )
            )
    return broker, groups


def candidates(broker: Broker, request: ClientRequest) -> list:
    """Step 2: the registry's admitted candidates for ``request``."""
    return broker.registry.find(
        operation=request.operation, requires_attribute=request.attribute
    )


def step3_times(
    inputs: Inputs, broker: Broker, passes: int
) -> Tuple[List[float], List[float]]:
    """Mean seconds per session of the broker's step 3, one entry per
    pass over ``SESSIONS`` sessions: on a miss (fresh requirement
    objects, an empty solve cache) and on a warm hit."""

    def requests() -> List[ClientRequest]:
        return [
            inputs._build(inputs.request(index)[0])[1]
            for index in range(SESSIONS)
        ]

    def step3(batch: List[ClientRequest]) -> float:
        work = [
            (candidates(broker, request), request, request.resolved_semiring())
            for request in batch
        ]
        started = time.perf_counter()
        for found, request, semiring in work:
            broker._evaluate_candidates(found, request, semiring)
        return (time.perf_counter() - started) / len(batch)

    misses = []
    for _ in range(passes):
        batch = requests()
        broker.solve_cache = SolveCache()
        misses.append(step3(batch))
    batch = requests()
    step3(batch)
    hits = [step3(batch) for _ in range(passes)]
    return misses, hits


def pass_times(groups: List[Group], method: str, passes: int) -> List[float]:
    """Mean seconds per candidate, one entry per pass over ``groups``."""
    problems = [problem for group in groups for problem in group.problems]
    if method == "stacked":
        calls = [(solve_stacked, group.problems) for group in groups]
    elif method == "group-search":
        calls = [(search_group, group.search) for group in groups]
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
    broker, groups = capture(inputs)
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
    if args.method == "branch-bound" and all(group.search for group in groups):
        searched = pass_times(groups, "group-search", args.passes)
        row["group_search_us_min"] = round(min(searched) * 1e6, 2)
        row["group_search_us_median"] = round(
            statistics.median(searched) * 1e6, 2
        )
        print(
            f"{args.workload} group search: min {row['group_search_us_min']} "
            f"µs / median {row['group_search_us_median']} µs per candidate"
        )
    misses, hits = step3_times(inputs, broker, args.passes)
    for outcome, figures in (("miss", misses), ("hit", hits)):
        row[f"step3_{outcome}_us_min"] = round(min(figures) * 1e6, 2)
        row[f"step3_{outcome}_us_median"] = round(
            statistics.median(figures) * 1e6, 2
        )
        print(
            f"{args.workload} step 3 {outcome}: min "
            f"{row[f'step3_{outcome}_us_min']} µs / median "
            f"{row[f'step3_{outcome}_us_median']} µs per session"
        )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
