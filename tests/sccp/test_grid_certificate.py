"""The told-prefix grid against the interpreter it replaces.

For parties that only tell, ``negotiate`` decides the deterministic run
and the scheduler-independence certificate on the grid of told-prefix
vectors (``TellGrid``) instead of running ``successors`` step by step and
exploring every interleaving.  These tests hold the grid to ``run`` +
``explore`` on seeded random tell-only party sets: the verdict, the
final store, the agreed level (bit for bit), the certificate and the
walk's steps must all be the ones the interpreter produces.
"""

import random

import pytest

from repro.constraints import TableConstraint, empty_store, integer_variable
from repro.sccp import (
    SUCCESS,
    CheckError,
    CheckSpec,
    ScriptedScheduler,
    Status,
    ask,
    explore,
    parallel,
    retract,
    run,
    sequence,
    tell,
    update,
)
from repro.semirings import (
    FuzzySemiring,
    ProbabilisticSemiring,
    WeightedSemiring,
)
from repro.soa import Party, negotiate
from repro.soa.negotiation import TellGrid, tell_chains
from repro.telemetry import telemetry_session

SEMIRINGS = {
    "weighted": (WeightedSemiring(), (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)),
    "fuzzy": (FuzzySemiring(), (0.0, 0.2, 0.4, 0.5, 0.7, 0.9, 1.0)),
    "probabilistic": (
        ProbabilisticSemiring(),
        (0.0, 0.3, 0.5, 0.6, 0.7, 0.9, 0.95, 1.0),
    ),
}
SEEDS = range(60)

X = integer_variable("x", 2)
Y = integer_variable("y", 1)
SCOPES = ((X,), (Y,), (X, Y))


def _table(rng, semiring, values):
    scope = rng.choice(SCOPES)
    rows = [()]
    for var in scope:
        rows = [row + (value,) for row in rows for value in var.domain]
    table = {row: rng.choice(values) for row in rows}
    return TableConstraint(semiring, scope, table)


def _check(rng, semiring, values):
    """A random checked arrow, or ``None`` (an unchecked tell)."""
    for _ in range(20):
        kind = rng.choice(
            ("none",) * 6 + ("lower", "upper") * 2 + ("both", "C2", "C3", "C4")
        )
        if kind == "none":
            return None
        try:
            if kind == "lower":
                return CheckSpec(semiring, lower=rng.choice(values))
            if kind == "upper":
                return CheckSpec(semiring, upper=rng.choice(values))
            if kind == "both":
                return CheckSpec(
                    semiring,
                    lower=rng.choice(values),
                    upper=rng.choice(values),
                )
            if kind == "C2":
                return CheckSpec(
                    semiring,
                    lower=rng.choice(values),
                    upper=_table(rng, semiring, values),
                )
            if kind == "C3":
                return CheckSpec(
                    semiring,
                    lower=_table(rng, semiring, values),
                    upper=rng.choice(values),
                )
            return CheckSpec(
                semiring,
                lower=_table(rng, semiring, values),
                upper=_table(rng, semiring, values),
            )
        except CheckError:
            continue  # an intrinsically wrong interval: draw again
    return None


def random_agent(seed, semiring_name):
    """1–3 parties of 1–3 tells, each tell checked or not."""
    semiring, values = SEMIRINGS[semiring_name]
    rng = random.Random(f"{semiring_name}:{seed}")
    chains = []
    for _ in range(rng.randint(1, 3)):
        tells = [
            tell(_table(rng, semiring, values), _check(rng, semiring, values))
            for _ in range(rng.randint(1, 3))
        ]
        chains.append(sequence(*tells))
    return semiring, parallel(*chains)


def _bits(level):
    return level.hex() if isinstance(level, float) else level


def interpreter_verdict(agent, store):
    """What ``negotiate`` computed before the grid: ``run`` + ``explore``."""
    result = run(agent, store=store)
    exploration = explore(agent, store=store)
    assert not exploration.truncated
    succeeded = result.status is Status.SUCCESS
    return {
        "success": succeeded,
        "level": _bits(result.store.consistency()),
        "fingerprint": result.store.fingerprint(),
        "certificate": (
            exploration.always_succeeds
            if succeeded
            else exploration.never_succeeds
        ),
        "consistencies": [_bits(v) for v in result.trace.consistencies()],
        "steps": [(event.rule, event.action) for event in result.trace],
    }


def grid_verdict(agent, store):
    """The same verdict from the grid: the walk step by step, labelled
    as ``run`` labels it, and the certificate."""
    grid = TellGrid(tell_chains(agent), store)
    cell, moves = grid.walk()
    succeeded = cell == grid.goal
    final = grid.store(cell)
    return {
        "success": succeeded,
        "level": _bits(final.consistency()),
        "fingerprint": final.fingerprint(),
        "certificate": grid.certificate(succeeded),
        "consistencies": [
            _bits(grid.store(_advance(*move)).consistency()) for move in moves
        ],
        "steps": [grid.label(*move) for move in moves],
    }


@pytest.mark.parametrize("semiring_name", sorted(SEMIRINGS))
def test_grid_matches_run_and_explore(semiring_name):
    verdicts = set()
    for seed in SEEDS:
        semiring, agent = random_agent(seed, semiring_name)
        store = empty_store(semiring)
        expected = interpreter_verdict(agent, store)
        got = grid_verdict(agent, store)
        assert got == expected, f"seed {seed}"
        verdicts.add((expected["success"], expected["certificate"]))
    # Succeeding and failing runs, each certified and not.
    assert verdicts == {(s, c) for s in (True, False) for c in (True, False)}


def test_the_lazy_default_scheduler_makes_the_eager_choice(weighted, fig7):
    """``DeterministicScheduler`` picks the first step without building
    the others; the run is the one an eager first-step choice makes
    (``ScriptedScheduler`` with an empty script chooses index 0 of the
    full list)."""
    agents = [random_agent(seed, "weighted")[1] for seed in range(20)]
    c3, c4 = fig7["c3"], fig7["c4"]
    agents.append(
        parallel(sequence(tell(c4), ask(c3), retract(c4)), tell(c3))
    )
    for agent in agents:
        store = empty_store(weighted)
        expected = run(agent, store=store, scheduler=ScriptedScheduler([]))
        got = run(agent, store=store)
        assert got.status is expected.status
        assert got.store.fingerprint() == expected.store.fingerprint()
        assert list(got.trace) == list(expected.trace)


def _cells(grid):
    cells = [()]
    for chain in grid.chains:
        cells = [c + (k,) for c in cells for k in range(len(chain) + 1)]
    return cells


def _busy(grid, cell):
    return [p for p, k in enumerate(cell) if k < grid.goal[p]]


def _advance(cell, party):
    return cell[:party] + (cell[party] + 1,) + cell[party + 1 :]


def _reachable(grid):
    seen, frontier = {grid.origin}, [grid.origin]
    while frontier:
        cell = frontier.pop()
        for party in _busy(grid, cell):
            if grid.enabled(cell, party) and _advance(cell, party) not in seen:
                seen.add(_advance(cell, party))
                frontier.append(_advance(cell, party))
    return seen


def test_the_seeded_sets_cover_the_hard_shapes():
    """Lower bounds that deadlock, upper bounds whose enabling is not
    monotone, constraint thresholds (C2–C4) and failing negotiations
    all occur among the sets the oracle test draws."""
    seen = set()
    for semiring_name in SEMIRINGS:
        for seed in SEEDS:
            semiring, agent = random_agent(seed, semiring_name)
            grid = TellGrid(tell_chains(agent), empty_store(semiring))
            checks = [t.check for c in grid.chains for t in c if t.check]
            if any(check.case != "C1" for check in checks):
                seen.add("constraint-threshold")
            for cell in _reachable(grid):
                busy = _busy(grid, cell)
                blocked = [grid.chains[p][cell[p]].check for p in busy]
                if (
                    busy
                    and not any(grid.enabled(cell, p) for p in busy)
                    and all(c.upper is None for c in blocked)
                ):
                    seen.add("lower-bound-deadlock")
            for cell in _cells(grid):
                for party in _busy(grid, cell):
                    check = grid.chains[party][cell[party]].check
                    if check is None or check.upper is None:
                        continue
                    for other in _busy(grid, cell):
                        if other != party and not grid.enabled(
                            cell, party
                        ) and grid.enabled(_advance(cell, other), party):
                            seen.add("non-monotone-upper-bound")
            if not grid_verdict(agent, empty_store(semiring))["success"]:
                seen.add("failing-negotiation")
    assert seen == {
        "constraint-threshold",
        "lower-bound-deadlock",
        "non-monotone-upper-bound",
        "failing-negotiation",
    }


def test_a_deadlock_behind_a_checked_tell_that_is_not_the_last(weighted):
    """The leftmost run succeeds, but telling party 1's cost first
    leaves party 0's first tell over its bound: a deadlock at a cell
    where party 0's next tell is checked though it is not its last."""

    agent = parallel(
        sequence(
            tell(_cost(weighted, 1.0), CheckSpec(weighted, lower=3.0)),
            tell(_cost(weighted, 0.0)),
        ),
        tell(_cost(weighted, 5.0)),
    )
    store = empty_store(weighted)
    expected = interpreter_verdict(agent, store)
    assert expected["success"] and expected["certificate"] is False
    assert grid_verdict(agent, store) == expected


@pytest.mark.parametrize("semiring_name", sorted(SEMIRINGS))
def test_negotiate_matches_the_interpreter(semiring_name):
    """Through ``negotiate``: parties whose last tell carries the
    acceptance, as the broker builds them."""
    semiring, values = SEMIRINGS[semiring_name]
    for seed in SEEDS:
        rng = random.Random(f"party:{semiring_name}:{seed}")
        parties = [
            Party(
                f"p{index}",
                [
                    _table(rng, semiring, values)
                    for _ in range(rng.randint(1, 3))
                ],
                _check(rng, semiring, values),
            )
            for index in range(rng.randint(1, 3))
        ]
        outcome = negotiate(parties, semiring)
        agent = parallel(*(party.agent() for party in parties))
        expected = interpreter_verdict(agent, empty_store(semiring))
        assert outcome.success == expected["success"]
        assert _bits(outcome.agreed_level) == expected["level"]
        assert outcome.store.fingerprint() == expected["fingerprint"]
        assert outcome.scheduler_independent == expected["certificate"]
        assert [_bits(v) for v in outcome.trace.consistencies()] == (
            expected["consistencies"]
        )
        assert [(e.rule, e.action) for e in outcome.trace] == (
            expected["steps"]
        )
        assert outcome.detail == (
            "run ended with success"
            if expected["success"]
            else "run ended with deadlock"
        )


@pytest.mark.parametrize("seed", range(6))
def test_grid_counts_the_run_it_replaces(seed):
    """The walk records the transitions, status, step count and failed
    checks ``run`` records for the same agents."""
    semiring, values = SEMIRINGS["weighted"]
    rng = random.Random(f"telemetry:{seed}")
    parties = [
        Party(
            f"p{index}",
            [_table(rng, semiring, values) for _ in range(rng.randint(1, 3))],
            _check(rng, semiring, values),
        )
        for index in range(3)
    ]

    def counted(registry):
        metrics = (
            "sccp_transitions_total",
            "sccp_runs_total",
            "sccp_check_failures_total",
        )
        return {
            metric: sorted(
                (tuple(sorted(s["labels"].items())), s["value"])
                for s in getattr(registry.get(metric), "samples", list)()
            )
            for metric in metrics
        }

    with telemetry_session() as grid_session:
        negotiate(parties, semiring, verify_scheduler_independence=False)
    with telemetry_session() as run_session:
        run(parallel(*(p.agent() for p in parties)), semiring=semiring)
    assert counted(grid_session.registry) == counted(run_session.registry)


def _cost(weighted, value):
    return TableConstraint(weighted, (X,), {(v,): value for v in X.domain})


def _check_failures(session):
    counter = session.registry.get("sccp_check_failures_total")
    samples = counter.samples() if counter is not None else []
    return {s["labels"]["rule"]: s["value"] for s in samples if s["value"]}


def test_an_unreachable_stuck_cell_counts_no_check_failure(weighted):
    """Cell (1, 1) is stuck (party 0's second tell needs a cost of at
    most 6 and would make it 7) but no interleaving reaches it (party
    1's tell needs a cost of at least 7).  The certificate holds, and
    the candidate it had to evaluate there is no blocked transition."""
    agent = parallel(
        sequence(
            tell(_cost(weighted, 1.0)),
            tell(_cost(weighted, 5.0), CheckSpec(weighted, lower=6.0)),
        ),
        tell(_cost(weighted, 1.0), CheckSpec(weighted, upper=7.0)),
    )
    store = empty_store(weighted)
    assert grid_verdict(agent, store) == interpreter_verdict(agent, store)
    with telemetry_session() as session:
        grid = TellGrid(tell_chains(agent), store)
        assert grid.walk()[0] == grid.goal
        assert grid.certificate(True) is True
        assert not grid.enabled((1, 1), 0)
    assert _check_failures(session) == {}


def test_a_reachable_deadlock_counts_its_blocked_tells(weighted):
    agent = parallel(
        sequence(
            tell(_cost(weighted, 1.0), CheckSpec(weighted, lower=3.0)),
            tell(_cost(weighted, 0.0)),
        ),
        tell(_cost(weighted, 5.0)),
    )
    with telemetry_session() as session:
        grid = TellGrid(tell_chains(agent), empty_store(weighted))
        assert grid.walk()[0] == grid.goal
        assert grid.certificate(True) is False
    assert _check_failures(session) == {"R1-Tell": 1}


def test_reading_the_trace_replays_run_without_telemetry(weighted, fig7):
    parties = [
        Party("P", [fig7["c4"]]),
        Party("C", [fig7["c3"]], CheckSpec(weighted, lower=10.0)),
    ]
    with telemetry_session() as session:
        outcome = negotiate(parties, weighted)
        before = session.snapshot()
        replayed = outcome.trace
        assert session.snapshot() == before
    agent = parallel(*(party.agent() for party in parties))
    assert list(replayed) == list(run(agent, semiring=weighted).trace)
    assert outcome.trace is replayed


class TestShapesLeftToExplore:
    """Agents outside the tell-only fragment keep ``run`` + ``explore``."""

    def test_two_trailing_empty_parties_deadlock_with_a_certificate(
        self, weighted
    ):
        # ``success ‖ success`` never steps: a deadlock on every
        # schedule, which the certificate confirms.
        outcome = negotiate([Party("a", []), Party("b", [])], weighted)
        assert not outcome.success
        assert outcome.scheduler_independent is True
        assert outcome.detail == "run ended with deadlock"

    def test_empty_parties_leave_the_fragment(self, weighted, fig7):
        c4 = fig7["c4"]
        assert tell_chains(Party("idle", []).agent()) is None
        assert tell_chains(parallel(SUCCESS, tell(c4))) is None
        assert tell_chains(parallel(tell(c4), SUCCESS)) is None
        with telemetry_session() as session:
            outcome = negotiate(
                [Party("idle", []), Party("P", [c4])], weighted
            )
        assert outcome.success and outcome.scheduler_independent is True
        names = session.tracer.span_names()
        assert "sccp.explore" in names
        # Certified by exploration, under a certify span naming the parties.
        assert [
            (span["attributes"]["method"], span["attributes"]["parties"])
            for span in session.tracer.to_dicts()
            if span["name"] == "sccp.certify"
        ] == [("explore", ("idle", "P"))]

    @pytest.mark.parametrize("action", ["ask", "retract", "update"])
    def test_other_actions_leave_the_fragment(self, weighted, fig7, action):
        c4 = fig7["c4"]
        other = {
            "ask": lambda: ask(c4),
            "retract": lambda: retract(c4),
            "update": lambda: update(["x"], c4),
        }[action]()
        assert tell_chains(parallel(sequence(tell(c4), other))) is None
        assert tell_chains(parallel(tell(c4), other)) is None

    def test_tells_beyond_the_step_budget_leave_the_fragment(
        self, weighted, fig7
    ):
        parties = [Party("P", [fig7["c4"], fig7["c3"]])]
        with telemetry_session() as session:
            outcome = negotiate(parties, weighted, max_steps=1)
        assert not outcome.success
        assert outcome.detail == "run ended with exhausted"
        assert outcome.scheduler_independent is False
        assert "sccp.explore" in session.tracer.span_names()

    def test_tell_only_parties_are_decided_on_the_grid(self, weighted, fig7):
        parties = [Party("P", [fig7["c4"]]), Party("C", [fig7["c3"]])]
        with telemetry_session() as session:
            outcome = negotiate(parties, weighted)
        assert outcome.success and outcome.scheduler_independent is True
        names = session.tracer.span_names()
        assert "sccp.certify" in names
        assert "sccp.run" not in names and "sccp.explore" not in names
