"""One measurement window of one workload, in a fresh process.

``run.py`` starts this script once per window so module-level caches
never carry over between windows or workloads.  It builds the market,
starts the serving stack, serves ``WARMUP_SESSIONS`` sessions (set-up
ends there), drives the timed window while :mod:`host` probes the host's
speed, checks sampled agreements with :mod:`oracle` outside the timed
region, and prints one JSON object with timings scaled to reference host
speed (and the unscaled ones under ``raw``).

    python benchmarks/e2e/window.py --workload unique-market --seed 1 \
        --window 0 --seconds 8 --t0 <time.time() before the process start>
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import host

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Sessions whose agreement the oracle checks after each window.
ORACLE_SAMPLE = 20


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run
    against any other copy of the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Session:
    """One served session as the client saw it."""

    __slots__ = ("spec", "request", "start", "end", "result")

    def __init__(self, spec, request, start):
        self.spec, self.request, self.start = spec, request, start
        self.end = 0.0
        self.result = None


async def closed_loop(serving, inputs, first, stop):
    """``CLIENTS`` loops, each sending its next session when the last
    returns.  Stops at ``stop(index, now)``; returns sessions served."""
    from workloads import CLIENTS

    clock = time.perf_counter
    counter = iter(range(first, 1 << 62))
    sessions = []

    async def client():
        while True:
            index = next(counter)
            if stop(index, clock()):
                return
            spec, request = inputs.request(index)
            session = Session(spec, request, clock())
            session.result = await serving.submit(request)
            session.end = clock()
            sessions.append(session)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return sessions


async def open_loop(serving, inputs, rate, seconds, first, rng):
    """Poisson arrivals at ``rate``/s for ``seconds``, timed from each
    session's due time.  Returns (sessions, lateness of each send)."""
    clock = time.perf_counter
    count = max(1, round(rate * seconds))
    # A Poisson process conditioned on ``count`` arrivals: sorted uniforms.
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    sessions, late, futures = [], [], []
    t0 = clock()
    for k, offset in enumerate(offsets):
        due = t0 + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(clock() - due)
        spec, request = inputs.request(first + k)
        session = Session(spec, request, due)
        future = serving.submit(request)

        def done(f, session=session):
            session.end = clock()
            session.result = f.result()

        future.add_done_callback(done)
        futures.append(future)
        sessions.append(session)
    await asyncio.gather(*futures)
    # Callbacks run one loop turn after the futures resolve.
    await asyncio.sleep(0)
    return sessions, late


async def measure(workload, inputs, seed, seconds, recorder, t0):
    """Serve the warm-up, then the timed window; returns measurements as
    taken, plus the host probe's speed factors over the timed window."""
    import workloads
    from repro.caching import cache_stats

    serving = workloads.Serving(workload, inputs.registry(), seed)
    await serving.start()
    probe = host.Probe()
    try:
        warm = await closed_loop(
            serving,
            inputs,
            0,
            lambda index, now: index >= workloads.WARMUP_SESSIONS,
        )
        setup_s = time.time() - t0
        setup_rss_mb = _peak_rss_mb()
        caches_before = _cache_counts(cache_stats())
        solve_before = serving.solve_cache_counts()
        if recorder is not None:
            recorder.reset()
        late = []
        probe.start()
        cpu0, start = time.process_time(), time.perf_counter()
        if workload.loop == "closed":
            deadline = start + seconds
            timed = await closed_loop(
                serving,
                inputs,
                workloads.WARMUP_SESSIONS,
                lambda index, now: now >= deadline,
            )
        else:
            timed, late = await open_loop(
                serving,
                inputs,
                workload.rate,
                seconds,
                workloads.WARMUP_SESSIONS,
                random.Random(f"arrivals:{inputs.seed}:{inputs.window}"),
            )
        end = max(session.end for session in timed)
        await probe.stop()
        cpu_s = time.process_time() - cpu0
        end_rss_mb = _peak_rss_mb()
        caches_after = _cache_counts(cache_stats())
        solve_after = serving.solve_cache_counts()
    finally:
        await probe.stop()
        await serving.stop()
    return {
        "warm": warm,
        "timed": timed,
        "late": late,
        "setup_s": setup_s,
        "setup_rss_mb": setup_rss_mb,
        "end_rss_mb": end_rss_mb,
        "start": start,
        "end": end,
        # The probe runs on this process's event loop: its CPU is not the
        # program's.
        "cpu_s": cpu_s - probe.cpu_s,
        "scale": host.Scale(probe.samples, start),
        "caches": {
            name: [after[0] - caches_before.get(name, (0, 0))[0],
                   after[1] - caches_before.get(name, (0, 0))[1]]
            for name, after in caches_after.items()
        },
        "solve_cache": {
            key: solve_after[key] - solve_before.get(key, 0)
            for key in solve_after
        },
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts(stats):
    """name → (hits, lookups), summed over every cache of that name."""
    out = {}
    for name, rows in stats.items():
        hits = sum(row.get("hits", 0) for row in rows)
        misses = sum(row.get("misses", 0) for row in rows)
        out[name] = (hits, hits + misses)
    return out


def _ratio(hits, lookups):
    return hits / lookups if lookups else 0.0


def run_oracle(workload, inputs, sessions, seed, window):
    """Check up to ``ORACLE_SAMPLE`` completed sessions; a fleet's
    agreements must also equal a single broker's on the same requests."""
    import oracle
    from repro.soa.broker import Broker

    done = [s for s in sessions if s.result.sla is not None]
    rng = random.Random(f"oracle:{seed}:{window}")
    sample = rng.sample(done, min(ORACLE_SAMPLE, len(done)))
    twin = Broker(inputs.registry()) if workload.fleet else None
    errors = []
    for session in sample:
        negotiation = session.result.negotiation
        outcome = negotiation.outcome if negotiation is not None else None
        found = oracle.check(
            inputs.problem(session.spec),
            session.result.sla,
            scheduler_independent=(
                outcome.scheduler_independent if outcome is not None else None
            ),
            verify=workload.verify,
        )
        if twin is not None:
            mine = session.result.sla
            theirs = twin.negotiate(session.request).sla
            if theirs is None or (
                mine.service_ids,
                mine.agreed_level,
                mine.resource_assignment,
            ) != (
                theirs.service_ids,
                theirs.agreed_level,
                theirs.resource_assignment,
            ):
                found.append("fleet agreement differs from a single broker's")
        errors.extend(f"session {session.spec.index}: {e}" for e in found)
    return {"checked": len(sample), "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--t0",
        type=float,
        default=time.time(),
        help="wall-clock time just before this process started",
    )
    args = parser.parse_args(argv)

    _import_program()
    import trace
    import workloads
    from repro.runtime import SessionStatus

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.Inputs(workload, args.seed, args.window)
    recorder = None
    if args.trace:
        recorder = trace.Recorder()
        recorder.install()
    run = asyncio.run(
        measure(workload, inputs, args.seed, args.seconds, recorder, args.t0)
    )
    timed, warm = run["timed"], run["warm"]
    completed = [s for s in timed if s.result.status is SessionStatus.COMPLETED]
    everything = warm + timed
    failed = sum(
        1 for s in everything if s.result.status is not SessionStatus.COMPLETED
    )
    # Timings of the timed window at reference host speed (host.py).  An
    # open loop's duration is set by its wall-clock schedule, so it stays
    # unscaled.  Set-up time does not follow the probe (it is mostly
    # process start and imports) and is reported as measured.
    scale = run["scale"]
    elapsed_s = run["end"] - run["start"]
    speed = scale.duration(run["start"], run["end"]) / elapsed_s
    measured = [1000.0 * (s.end - s.start) for s in completed]
    latencies = [
        ms * scale.factor((s.start + s.end) / 2)
        for ms, s in zip(measured, completed)
    ]
    queue_waits = [1000.0 * s.result.queue_wait_s for s in completed]
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "window": args.window,
        "trace": bool(args.trace),
        "setup_s": run["setup_s"],
        "setup_rss_mb": run["setup_rss_mb"],
        # Memory the serving process still holds per timed session (it
        # keeps every result and SLA), from the growth of its peak RSS.
        "retained_kb_per_session": 1024.0
        * (run["end_rss_mb"] - run["setup_rss_mb"])
        / max(len(completed), 1),
        "elapsed_s": elapsed_s * speed if workload.loop == "closed" else elapsed_s,
        "cpu_s": run["cpu_s"] * speed,
        "host_speed": speed,
        "raw": {
            "elapsed_s": elapsed_s,
            "cpu_s": run["cpu_s"],
            "latency_p50_ms": percentile(measured, 50),
        },
        "attempted": len(everything),
        "completed": len(completed),
        "failed": failed,
        "latencies_ms": latencies,
    }
    if recorder is not None:
        recorder.uninstall()
        sessions = len(completed)
        layers = trace.layer_table(recorder.spans, sessions)
        # Worker service time not spent inside Broker.negotiate: the
        # executor hop and waits for the interpreter lock.
        service_ms = sum(
            1000.0 * (s.result.latency_s - s.result.queue_wait_s)
            for s in completed
        )
        layers["runtime.dispatch_ms_per_session"] = (
            service_ms / max(sessions, 1)
            - layers["broker.negotiate_ms_per_session"]
        )
        layers["runtime.queue_wait_p50_ms"] = percentile(queue_waits, 50)
        layers["runtime.queue_wait_p99_ms"] = percentile(queue_waits, 99)
        edge = [
            1000.0 * (s.end - s.start - s.result.latency_s) for s in completed
        ] if workload.fleet else []
        layers["fleet.edge_wait_p50_ms"] = percentile(edge, 50)
        layers["fleet.edge_wait_p99_ms"] = percentile(edge, 99)
        solve = run["solve_cache"]
        layers["solver.cache_hit_ratio"] = _ratio(solve["hits"], solve["lookups"])
        layers["fleet.l1_hit_ratio"] = _ratio(
            solve.get("l1_hits", 0), solve.get("l1_lookups", 0)
        )
        layers["fleet.l2_hit_ratio"] = _ratio(
            solve.get("l2_hits", 0), solve.get("l2_lookups", 0)
        )
        for name, (hits, lookups) in run["caches"].items():
            layers[f"caching.{name}.hit_ratio"] = _ratio(hits, lookups)
        layers["loadgen.late_p99_ms"] = 1000.0 * percentile(run["late"], 99)
        layers["host.speed"] = speed
        out["layers"] = layers
        out["layer_calls"] = {
            layer: len(durations)
            for layer, durations in trace.layer_durations(recorder.spans).items()
        }
        if args.trace_out is not None:
            recorder.write_jsonl(args.trace_out)
    out["oracle"] = run_oracle(workload, inputs, timed, args.seed, args.window)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
