"""The command-line interface, driven through its main() entry point."""

import json

import pytest

from repro import serialization as ser
from repro.cli import main
from repro.coalitions import TrustNetwork
from repro.constraints import TableConstraint, variable
from repro.semirings import WeightedSemiring
from repro.solver import SCSP


@pytest.fixture
def fig1_file(tmp_path, fig1):
    problem = SCSP([fig1["c1"], fig1["c2"], fig1["c3"]], con=["X"], name="fig1")
    path = tmp_path / "fig1.json"
    path.write_text(ser.dumps(problem))
    return path


@pytest.fixture
def network_file(tmp_path):
    network = TrustNetwork(
        ["a", "b", "c"],
        {
            ("a", "a"): 0.6, ("b", "b"): 0.6, ("c", "c"): 0.6,
            ("a", "b"): 0.9, ("b", "a"): 0.9,
            ("a", "c"): 0.2, ("c", "a"): 0.2,
            ("b", "c"): 0.3, ("c", "b"): 0.3,
        },
    )
    path = tmp_path / "net.json"
    path.write_text(ser.dumps(network))
    return path


@pytest.fixture
def market_file(tmp_path):
    market = {
        "kind": "market",
        "services": [
            {
                "service_id": f"svc-{provider}",
                "operation": "compress",
                "qos": {
                    "kind": "qos-document",
                    "service_name": "compress",
                    "provider": provider,
                    "policies": [
                        {"attribute": "cost", "variables": {}, "constant": cost}
                    ],
                },
            }
            for provider, cost in (("P1", 5.0), ("P2", 3.0))
        ],
        "request": {
            "client": "cli-client",
            "operation": "compress",
            "attribute": "cost",
            "acceptance": {"lower": 10.0, "upper": 0.0},
        },
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market))
    return path


class TestSolve:
    def test_solves_fig1(self, fig1_file, capsys):
        exit_code = main(["solve", str(fig1_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["blevel"] == 7.0
        assert out["consistent"] is True
        assert out["optima"] == [[{"X": "a"}]]

    def test_method_flag(self, fig1_file, capsys):
        main(["solve", str(fig1_file), "--method", "elimination"])
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "elimination"

    def test_solver_backend_flag(self, fig1_file, capsys):
        for backend in ("dict", "dense"):
            exit_code = main(
                ["solve", str(fig1_file), "--solver-backend", backend]
            )
            out = json.loads(capsys.readouterr().out)
            assert exit_code == 0
            assert out["blevel"] == 7.0
            assert out["optima"] == [[{"X": "a"}]]

    def test_rejects_unknown_backend(self, fig1_file):
        with pytest.raises(SystemExit):
            main(["solve", str(fig1_file), "--solver-backend", "bogus"])

    def test_inconsistent_problem_exit_1(self, tmp_path, capsys):
        weighted = WeightedSemiring()
        x = variable("x", [0])
        dead = TableConstraint(weighted, [x], {})
        path = tmp_path / "dead.json"
        path.write_text(ser.dumps(SCSP([dead], name="dead")))
        assert main(["solve", str(path)]) == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", str(tmp_path / "missing.json")])


class TestCoalitions:
    def test_exact(self, network_file, capsys):
        exit_code = main(["coalitions", str(network_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["found"] and out["stable"]
        assert ["a", "b"] in out["partition"]
        # Exact enumeration counts the stable universe and reports it.
        assert out["stable_partitions"] >= 1

    def test_local_search(self, network_file, capsys):
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                "local-search",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["method"] == "local-search"
        assert out["stable"] is True
        assert "stable_partitions" not in out

    def test_engine(self, network_file, capsys):
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                "engine",
                "--seed",
                "3",
                "--workers",
                "2",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["method"] == "engine"
        assert out["stable"] is True
        assert ["a", "b"] in out["partition"]

    @pytest.mark.parametrize("method", ["local-search", "engine"])
    def test_unstable_result_exits_nonzero(
        self, method, network_file, capsys
    ):
        # A zero-iteration climb returns its (unstable) singleton start:
        # the result is *found* but carries blocking coalitions, which
        # is not a Def. 4 answer.  The CLI used to report success here.
        exit_code = main(
            [
                "coalitions",
                str(network_file),
                "--method",
                method,
                "--restarts",
                "1",
                "--max-iterations",
                "0",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert out["found"] is True
        assert out["stable"] is False
        assert exit_code == 1


class TestNegotiate:
    def test_best_provider_wins(self, market_file, capsys):
        exit_code = main(["negotiate", str(market_file)])
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["success"] is True
        assert out["sla"]["providers"] == ["P2"]
        assert out["sla"]["agreed_level"] == 3.0
        assert len(out["evaluations"]) == 2

    def test_solver_flags_accepted(self, market_file, capsys):
        exit_code = main(
            [
                "negotiate",
                str(market_file),
                "--solver-backend",
                "dense",
                "--no-solve-cache",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["sla"]["providers"] == ["P2"]

    @pytest.mark.parametrize("backend", ["auto", "monolith", "factored"])
    def test_store_backend_flag(self, market_file, capsys, backend):
        from repro.constraints.store import (
            get_default_store_backend,
            set_default_store_backend,
        )

        previous = get_default_store_backend()
        try:
            exit_code = main(
                ["negotiate", str(market_file), "--store-backend", backend]
            )
            # The flag also rebinds the process-wide default, so nmsccp
            # sessions the broker spawns internally follow it.
            assert get_default_store_backend() == backend
        finally:
            set_default_store_backend(previous)
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["sla"]["providers"] == ["P2"]
        assert out["sla"]["agreed_level"] == 3.0

    def test_unknown_store_backend_rejected(self, market_file):
        with pytest.raises(SystemExit):
            main(
                ["negotiate", str(market_file), "--store-backend", "quantum"]
            )

    def test_failed_negotiation_exit_1(self, tmp_path, capsys):
        market = {
            "kind": "market",
            "services": [],
            "request": {"operation": "compress", "attribute": "cost"},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(market))
        assert main(["negotiate", str(path)]) == 1

    def test_non_market_payload_rejected(self, fig1_file):
        with pytest.raises(SystemExit):
            main(["negotiate", str(fig1_file)])


class TestRuntime:
    def test_serves_market_sessions(self, market_file, capsys):
        exit_code = main(
            ["runtime", str(market_file), "--requests", "4", "--seed", "1"]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["requests"] == 4
        assert out["outcomes"] == {"completed": 4}
        assert len(out["sessions"]) == 4
        assert all(s["sla_id"] is not None for s in out["sessions"])

    def test_outage_faults_trigger_retries_and_degradation(
        self, market_file, capsys
    ):
        exit_code = main(
            [
                "runtime",
                str(market_file),
                "--requests",
                "6",
                "--seed",
                "1",
                "--fault-outage",
                "1:2",
                "--base-backoff",
                "0.001",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["retries_total"] > 0
        assert out["outcomes"].get("degraded", 0) >= 1
        degraded = [
            s for s in out["sessions"] if s["status"] == "degraded"
        ]
        assert all(s["attempts"] > 1 for s in degraded)

    def test_fault_run_logs_retries_and_degradation_events(
        self, market_file, capsys, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        main(
            [
                "runtime",
                str(market_file),
                "--requests",
                "6",
                "--seed",
                "1",
                "--fault-outage",
                "1:2",
                "--base-backoff",
                "0.001",
                "--trace-out",
                str(trace),
            ]
        )
        capsys.readouterr()
        kinds = [
            json.loads(line).get("kind")
            for line in trace.read_text().splitlines()
        ]
        assert "runtime.retry" in kinds
        assert "fault.injected" in kinds
        assert "runtime.degraded" in kinds

    def test_bad_fault_flag_rejected(self, market_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "runtime",
                    str(market_file),
                    "--fault-outage",
                    "not-a-window",
                ]
            )


class TestLoadgen:
    def test_synthetic_market_by_default(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--clients",
                "8",
                "--rate",
                "2000",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["offered"] == 8
        assert out["outcomes"] == {"completed": 8}
        assert out["throughput_rps"] > 0
        assert out["latency_s"]["p99"] >= out["latency_s"]["p50"]

    def test_explicit_market_and_closed_loop(self, market_file, capsys):
        exit_code = main(
            [
                "loadgen",
                "--market",
                str(market_file),
                "--clients",
                "3",
                "--requests",
                "6",
                "--mode",
                "closed",
                "--seed",
                "3",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["offered"] == 6
        assert out["outcomes"]["completed"] == 6

    def test_telemetry_snapshot_shows_queue_wait_histogram(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--clients",
                "5",
                "--rate",
                "2000",
                "--seed",
                "3",
                "--telemetry",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        names = {m["name"] for m in out["telemetry"]["metrics"]}
        assert "runtime_queue_wait_seconds" in names
        assert "runtime_session_seconds" in names
        assert "runtime_sessions_total" in names


class TestFleet:
    def test_synthetic_market_over_shards(self, capsys):
        exit_code = main(
            [
                "fleet",
                "--shards",
                "3",
                "--clients",
                "6",
                "--requests",
                "12",
                "--mode",
                "closed",
                "--seed",
                "5",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["shards"] == 3
        assert out["fleet"]["offered"] == 12
        assert out["fleet"]["outcomes"]["completed"] == 12
        assert sum(
            row["offered"] for row in out["per_shard"].values()
        ) == 12
        assert out["cache"]["l2"] is not None

    def test_no_l2_cache_flag(self, market_file, capsys):
        exit_code = main(
            [
                "fleet",
                "--market",
                str(market_file),
                "--shards",
                "2",
                "--clients",
                "2",
                "--requests",
                "4",
                "--mode",
                "closed",
                "--seed",
                "5",
                "--no-l2-cache",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["cache"]["l2"] is None
        assert out["fleet"]["outcomes"]["completed"] == 4

    def test_telemetry_snapshot_shows_fleet_metrics(self, capsys):
        exit_code = main(
            [
                "fleet",
                "--shards",
                "2",
                "--clients",
                "4",
                "--requests",
                "8",
                "--mode",
                "closed",
                "--seed",
                "5",
                "--telemetry",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        names = {m["name"] for m in out["telemetry"]["metrics"]}
        assert "fleet_sessions_total" in names
        assert "fleet_shards" in names
        assert "fleet_solve_cache_requests_total" in names


@pytest.fixture
def slo_market_file(tmp_path):
    market = {
        "kind": "market",
        "services": [
            {
                "service_id": service_id,
                "operation": operation,
                "qos": {
                    "kind": "qos-document",
                    "service_name": operation,
                    "provider": provider,
                    "policies": [
                        {
                            "attribute": "reliability",
                            "variables": {},
                            "constant": level,
                        }
                    ],
                },
            }
            for service_id, operation, provider, level in (
                ("ocr-fast", "ocr", "P1", 0.99),
                ("translate-hq", "translate", "P2", 0.98),
            )
        ],
        "observations": {
            "ocr-fast": {"attempts": 200, "failures": 2}
        },
    }
    path = tmp_path / "slo-market.json"
    path.write_text(json.dumps(market))
    return path


class TestSlo:
    ARGS = [
        "--attribute",
        "reliability",
        "--pipeline",
        "ocr-fast,translate-hq",
    ]

    def test_achievable_json_exit_0(self, slo_market_file, capsys):
        code = main(
            ["slo", str(slo_market_file), "--target", "0.75"] + self.ARGS
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["achievable"] is True
        assert out["attribute"] == "reliability"
        levels = {lv["service_id"]: lv for lv in out["levels"]}
        assert levels["ocr-fast"]["informative"] is True
        assert levels["translate-hq"]["informative"] is False

    def test_unachievable_text_exit_1(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.999",
                "--format",
                "text",
            ]
            + self.ARGS
        )
        text = capsys.readouterr().out
        assert code == 1
        assert "UNACHIEVABLE" in text
        assert "remediation" in text

    def test_trust_published_skips_evidence(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.97",
                "--trust-published",
            ]
            + self.ARGS
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["bound"] == pytest.approx(0.99 * 0.98)

    def test_unknown_service_exit_2(self, slo_market_file, capsys):
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.9",
                "--attribute",
                "reliability",
                "--pipeline",
                "ghost",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_plan_file_beats_market_plan(
        self, slo_market_file, tmp_path, capsys
    ):
        from repro.soa import Choose, Invoke, Pipeline

        plan = Pipeline(
            [
                Choose([Invoke("ocr-fast"), Invoke("translate-hq")]),
            ]
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(ser.dumps(plan))
        code = main(
            [
                "slo",
                str(slo_market_file),
                "--target",
                "0.5",
                "--attribute",
                "reliability",
                "--plan",
                str(plan_path),
                "--choose",
                "redundant",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"]["choose"] == "redundant"

    def test_no_plan_anywhere_is_usage_error(self, slo_market_file):
        with pytest.raises(SystemExit):
            main(["slo", str(slo_market_file), "--target", "0.9"])


class TestValidateSemiring:
    def test_builtin_ok(self, capsys):
        assert main(["validate-semiring", "fuzzy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_parameterized(self, capsys):
        assert (
            main(["validate-semiring", "set", "--universe", "r,w,x"]) == 0
        )
        assert (
            main(["validate-semiring", "bounded-weighted", "--cap", "5"])
            == 0
        )


class TestConsoleScript:
    def test_installed_entry_point_works(self, fig1_file):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", str(fig1_file)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["blevel"] == 7.0


class TestExitContract:
    """Bad input exits 2 before any result is printed (module docstring)."""

    @staticmethod
    def run_cli(*argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    def test_missing_input_exits_2(self, tmp_path):
        completed = self.run_cli("solve", tmp_path / "missing.json")
        assert completed.returncode == 2
        assert "cannot read" in completed.stderr
        assert completed.stdout == ""

    def test_malformed_input_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        completed = self.run_cli("negotiate", path)
        assert completed.returncode == 2
        assert "cannot read" in completed.stderr

    def test_non_market_payload_exits_2(self, fig1_file):
        completed = self.run_cli("negotiate", fig1_file)
        assert completed.returncode == 2
        assert "not a market spec" in completed.stderr

    @pytest.mark.parametrize("flag", ["--trace-out", "--prometheus-out"])
    def test_missing_output_directory_rejected_before_running(
        self, market_file, tmp_path, flag
    ):
        target = tmp_path / "absent" / "out.txt"
        completed = self.run_cli("negotiate", market_file, flag, target)
        assert completed.returncode == 2
        assert flag in completed.stderr
        assert "does not exist" in completed.stderr
        # Rejected before the command ran: no result was printed.
        assert completed.stdout == ""
        assert not target.parent.exists()

    @pytest.mark.parametrize("flag", ["--trace-out", "--prometheus-out"])
    def test_directory_as_output_rejected(self, market_file, tmp_path, flag):
        completed = self.run_cli("negotiate", market_file, flag, tmp_path)
        assert completed.returncode == 2
        assert "is a directory" in completed.stderr
        assert completed.stdout == ""

    def test_writable_outputs_still_written(self, market_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        completed = self.run_cli(
            "negotiate",
            market_file,
            "--trace-out",
            trace,
            "--prometheus-out",
            metrics,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["success"] is True
        assert trace.read_text() and metrics.read_text()

    # Out-of-range flag values are rejected while parsing, before any
    # market is built: exit 2, nothing on stdout, the flag on stderr.
    @pytest.mark.parametrize(
        "argv",
        [
            ("negotiate", "MARKET", "--allocation-policy", "fair",
             "--batch-max", "0"),
            ("runtime", "MARKET", "--allocation-policy", "fair",
             "--batch-window-ms", "-1"),
            ("fleet", "--allocation-policy", "greedy",
             "--batch-window-ms", "-5"),
            ("fleet", "--shards", "0"),
            ("fleet", "--vnodes", "0"),
            ("runtime", "MARKET", "--workers", "0"),
            ("loadgen", "--clients", "0"),
            ("runtime", "MARKET", "--fault-crash", "2.0"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_out_of_range_flag_exits_2(self, market_file, argv):
        argv = [market_file if arg == "MARKET" else arg for arg in argv]
        completed = self.run_cli(*argv)
        assert completed.returncode == 2, completed.stderr
        assert completed.stdout == ""
        assert argv[-2] in completed.stderr
        assert "Traceback" not in completed.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("runtime", "--requests", "-3"),
            ("runtime", "--queue", "0"),
            ("runtime", "--deadline", "-1"),
            ("runtime", "--max-attempts", "0"),
            ("runtime", "--base-backoff", "-0.1"),
            ("runtime", "--fault-crash", "nan"),
            ("runtime", "--fault-outage", "0:0"),
            ("runtime", "--fault-outage", "not-a-window"),
            ("runtime", "--fault-delay", "1.5:10"),
            ("runtime", "--breaker-threshold", "-1"),
            ("runtime", "--breaker-recovery", "-1"),
            ("runtime", "--bulkhead-limit", "0"),
            ("runtime", "--health-interval", "0"),
            ("runtime", "--health-unhealthy-after", "0"),
            ("runtime", "--hedge-delay", "-1"),
            ("runtime", "--hedge-percentile", "0"),
            ("runtime", "--hedge-percentile", "101"),
            ("loadgen", "--requests", "0"),
            ("loadgen", "--rate", "0"),
            ("loadgen", "--think-time", "-1"),
            ("loadgen", "--contention-providers", "1"),
            ("loadgen", "--batch-max", "x"),
            ("fleet", "--dispatch-depth", "0"),
            ("fleet", "--rate", "inf"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}",
    )
    def test_every_ranged_flag_checked_while_parsing(
        self, market_file, capsys, argv
    ):
        command, flag, value = argv
        args = [command, flag, value]
        if command == "runtime":
            args.insert(1, str(market_file))
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert flag in captured.err

    def test_solver_batching_flag_is_gone(self, market_file):
        completed = self.run_cli("runtime", market_file, "--solver-batching")
        assert completed.returncode == 2
        assert "--solver-batching" in completed.stderr
        assert completed.stdout == ""

    def test_in_range_fault_flags_still_parse(self, market_file, capsys):
        exit_code = main(
            [
                "runtime",
                str(market_file),
                "--requests",
                "2",
                "--seed",
                "1",
                "--fault-outage",
                "0:1",
                "--fault-delay",
                "0.5:0",
                "--base-backoff",
                "0",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert out["requests"] == 2
