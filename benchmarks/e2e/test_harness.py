"""Smoke tests for the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload for short windows with the oracle on, and shows that
the oracle, the span arithmetic and the compare tool reject what they
should.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_every_workload_with_oracle(tmp_path):
    out = tmp_path / "run.json"
    proc = run("--seed", "5", "--seconds", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    report = json.loads(out.read_text())
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(report["workloads"]) == list(workloads.WORKLOADS) == names
    for entry in report["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0
        assert [m for m in entry["metrics"]] == [
            m["name"] for m in SPEC["end_to_end"]
        ]
        assert all(m["value"] > 0 for m in entry["metrics"].values())
    assert report["meta"]["seed"] == 5
    assert compare.main([str(out), str(out)]) == 0


def test_driver_result_line_for_one_traced_workload(tmp_path):
    proc = run(
        "--workload", "verified-market", "--seed", "2", "--seconds", "2",
        "--trace", "1", "--trace-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["sccp.verify_ms_per_session"]["value"] > 0
    assert (tmp_path / "verified-market-2.jsonl").stat().st_size > 0


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = run("--workload", "hot-market", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def agreement():
    """One genuine unique-market agreement and its oracle problem."""
    from repro.soa.broker import Broker

    inputs = workloads.Inputs(workloads.WORKLOADS["unique-market"], 3, 0)
    spec, request = inputs.request(7)
    sla = Broker(inputs.registry()).negotiate(request).sla
    return inputs.problem(spec), sla


def test_oracle_accepts_genuine_agreement(agreement):
    problem, sla = agreement
    assert oracle.check(problem, sla) == []


def test_oracle_rejects_corrupted_agreements(agreement):
    from dataclasses import replace

    problem, sla = agreement
    winner = problem.providers.index(sla.service_ids[0])
    worst = problem.domains[0][int(problem.costs[winner].argmax())]
    moved = replace(sla, resource_assignment={"x": worst})
    assert any("costs" in e for e in oracle.check(problem, moved))
    other = next(p for p in problem.providers if (p,) != sla.service_ids)
    assert oracle.check(problem, replace(sla, service_ids=(other,)))
    assert oracle.check(problem, replace(sla, agreed_level=sla.agreed_level + 1))
    assert oracle.check(problem, None) == ["no SLA signed"]
    assert oracle.check(problem, sla, scheduler_independent=None, verify=True)


def test_self_time_subtracts_covered_children():
    import trace

    spans = [
        (1, 1, None, "root", 0.0, 10.0),
        (1, 2, 1, "a", 1.0, 4.0),
        (1, 3, 1, "b", 3.0, 6.0),  # overlaps a: union 1..6
        (1, 4, 2, "c", 1.5, 2.0),
    ]
    selfs = trace.self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)


def test_host_scale_per_slice_factors():
    import host

    ref = host.REF_UNIT_S
    # Slice 0: the host runs at reference speed on both CPUs.  Slice 1:
    # CPU 0 at half speed, CPU 1 at reference speed (mean unit 1.5 ref).
    # Slice 2 has no sample and takes its nearest slice's factor.
    samples = [
        (10.1, 0, ref), (10.2, 1, ref), (10.3, 0, ref),
        (11.1, 0, 2 * ref), (11.2, 1, ref), (11.5, 0, 2 * ref),
        (9.9, 0, 10 * ref),  # before the window: ignored
    ]
    scale = host.Scale(samples, start=10.0)
    assert scale.factor(10.5) == pytest.approx(1.0)
    assert scale.factor(11.5) == pytest.approx(1 / 1.5)
    assert scale.factor(12.5) == pytest.approx(1 / 1.5)
    assert scale.duration(10.5, 12.0) == pytest.approx(0.5 + 1 / 1.5)
    with pytest.raises(ValueError):
        host.Scale(samples, start=20.0)


def test_compare_flags_regressions_beyond_bound():
    def report(rate):
        return {
            "meta": {},
            "workloads": {
                "w": {"metrics": {"sessions_per_s": {"value": rate, "unit": "1/s"}}}
            },
        }

    rows = compare.compare(report(100.0), report(70.0), SPEC)
    assert rows[-1].endswith("WORSE")
    rows = compare.compare(report(100.0), report(97.0), SPEC)
    assert not rows[-1].endswith(("WORSE", "BETTER"))
