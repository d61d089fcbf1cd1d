"""Command-line interface tests."""

from __future__ import annotations

import json
import os


from repro.cli import main


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestGenerate:
    def test_json_output_is_valid_graph(self, capsys, tmp_path):
        out = run_cli(capsys, "generate", "--seed", "7")
        data = json.loads(out)
        assert data["name"] == "G"
        assert len(data["actors"]) >= 8

    def test_dot_output(self, capsys):
        out = run_cli(capsys, "generate", "--seed", "7", "--dot")
        assert out.startswith('digraph "G"')

    def test_deterministic(self, capsys):
        first = run_cli(capsys, "generate", "--seed", "3")
        second = run_cli(capsys, "generate", "--seed", "3")
        assert first == second

    def test_actor_range(self, capsys):
        out = run_cli(
            capsys, "generate", "--seed", "1", "--actors", "4", "4"
        )
        assert len(json.loads(out)["actors"]) == 4


class TestInfo:
    def test_info_reports_analysis(self, capsys, tmp_path):
        out = run_cli(capsys, "generate", "--seed", "7")
        path = tmp_path / "g.json"
        path.write_text(out)
        info = run_cli(capsys, "info", str(path))
        assert "period (isolation)" in info
        assert "strongly connected" in info
        assert "True" in info

    def test_missing_file_fails(self, capsys):
        assert main(["info", "/nonexistent/g.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_suite_estimate(self, capsys):
        out = run_cli(
            capsys, "estimate", "--suite", "3", "--model", "exact"
        )
        assert "Estimate (exact)" in out
        assert "A+B+C" in out

    def test_use_case_restriction(self, capsys):
        out = run_cli(
            capsys, "estimate", "--suite", "3", "--apps", "A,B"
        )
        assert "A+B" in out
        assert "C" not in out.splitlines()[0].replace("use-case", "")

    def test_media_selection(self, capsys):
        out = run_cli(capsys, "estimate", "--media")
        assert "h263" in out

    def test_bad_model_fails(self, capsys):
        assert main(
            ["estimate", "--suite", "2", "--model", "psychic"]
        ) == 1

    def test_file_selection(self, capsys, tmp_path):
        graph_json = run_cli(capsys, "generate", "--seed", "5")
        path = tmp_path / "g.json"
        path.write_text(graph_json)
        out = run_cli(capsys, "estimate", "--file", str(path))
        assert "G" in out


class TestSimulate:
    def test_suite_simulation(self, capsys):
        out = run_cli(
            capsys,
            "simulate", "--suite", "2", "--iterations", "30",
        )
        assert "Simulation of use-case" in out
        assert "busiest processors" in out


class TestReproduce:
    def test_quick_reproduction_small_suite(self, capsys):
        out = run_cli(
            capsys, "reproduce", "--applications", "2"
        )
        assert "Figure 5" in out
        assert "Table 1" in out
        assert "Figure 6" in out
        assert "Timing" in out


class TestSweep:
    def test_mini_sweep(self, capsys):
        out = run_cli(
            capsys,
            "sweep", "--suite", "2", "--samples", "2",
            "--sim-iterations", "20",
        )
        assert "Mean absolute inaccuracy" in out
        assert "worst_case" in out
        assert "second_order" in out
        assert "#apps" in out

    def test_store_reports_misses_then_hits(self, capsys, tmp_path):
        store = tmp_path / "results.jsonl"
        first = run_cli(
            capsys,
            "sweep", "--suite", "2", "--samples", "2",
            "--estimates-only", "--store", str(store),
        )
        assert "0 hits, 3 misses" in first
        assert store.exists()
        second = run_cli(
            capsys,
            "sweep", "--suite", "2", "--samples", "2",
            "--estimates-only", "--store", str(store),
        )
        assert "3 hits, 0 misses" in second
        assert "Sweep service" in second

    def test_jobs_flag_runs_service(self, capsys, monkeypatch):
        # The title reports the processes that ran: min(jobs, misses,
        # CPUs).  Pin the CPU count so the check holds on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = run_cli(
            capsys,
            "sweep", "--suite", "2", "--samples", "2",
            "--estimates-only", "--jobs", "2",
        )
        assert "jobs=2" in out

    def test_store_requires_estimates_only(self, capsys, tmp_path):
        assert main(
            [
                "sweep", "--suite", "2",
                "--store", str(tmp_path / "s.jsonl"),
            ]
        ) == 1
        assert "--estimates-only" in capsys.readouterr().err

    def test_store_rejects_file_galleries(self, capsys, tmp_path):
        graph_json = run_cli(capsys, "generate", "--seed", "5")
        path = tmp_path / "g.json"
        path.write_text(graph_json)
        assert main(
            [
                "sweep", "--file", str(path), "--estimates-only",
                "--store", str(tmp_path / "s.jsonl"),
            ]
        ) == 1
        assert "reproducible gallery" in capsys.readouterr().err


class TestRuntime:
    def test_replay_summary(self, capsys):
        out = run_cli(
            capsys,
            "runtime", "--suite", "2", "--events", "60",
            "--seed", "3", "--slack", "1.5",
        )
        assert "Runtime replay" in out
        assert "admission ratio" in out
        assert "decisions/sec" in out
        assert "mean utilization" in out

    def test_policies_and_arrivals(self, capsys):
        for policy in ("reject", "evict", "downgrade-greedy"):
            out = run_cli(
                capsys,
                "runtime", "--suite", "2", "--events", "40",
                "--policy", policy, "--arrival", "bursty",
            )
            assert "Runtime replay" in out

    def test_validate_prints_simulation_comparison(self, capsys):
        out = run_cli(
            capsys,
            "runtime", "--suite", "2", "--events", "80",
            "--validate", "1", "--slack", "3.0",
        )
        assert "prediction vs. discrete-event simulation" in out

    def test_save_trace_and_log(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        log_path = tmp_path / "log.json"
        run_cli(
            capsys,
            "runtime", "--suite", "2", "--events", "40",
            "--save-trace", str(trace_path),
            "--save-log", str(log_path),
        )
        trace = json.loads(trace_path.read_text())
        assert len(trace["events"]) == 40
        log = json.loads(log_path.read_text())
        assert len(log["records"]) == 40


class TestModels:
    def test_registry_table(self, capsys):
        out = run_cli(capsys, "models")
        assert "Registered contention models" in out
        assert "priority_preemptive" in out
        assert "weighted_round_robin" in out
        assert "conservative" in out and "mean" in out


class TestConformance:
    def test_reduced_batch_passes(self, capsys):
        out = run_cli(
            capsys,
            "conformance", "--suite", "4", "--scenarios", "3",
            "--sim-iterations", "25",
            "--models", "exact,worst_case,priority_preemptive",
        )
        assert "Conformance" in out
        assert "PASSED" in out
        assert "upper-bounds sim" in out

    def test_unknown_model_fails(self, capsys):
        code = main(
            ["conformance", "--suite", "3", "--models", "oracle"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown waiting model" in captured.err


class TestNewModelsEndToEnd:
    def test_sweep_accepts_priority_preemptive(self, capsys):
        out = run_cli(
            capsys,
            "sweep", "--suite", "3", "--samples", "2",
            "--estimates-only", "--model", "priority_preemptive",
        )
        assert "priority-preemptive" in out

    def test_sweep_accepts_weighted_round_robin_with_weights(
        self, capsys
    ):
        out = run_cli(
            capsys,
            "sweep", "--suite", "3", "--samples", "2",
            "--estimates-only", "--model",
            "weighted_round_robin:A=2,B=1",
        )
        assert "weighted-rr" in out

    def test_estimate_lists_models_on_bad_name(self, capsys):
        code = main(
            ["estimate", "--suite", "2", "--model", "oracle"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "registered waiting models" in captured.err
        assert "priority_preemptive" in captured.err


class TestPlace:
    def test_table_output_reports_feasibility(self, capsys):
        out = run_cli(
            capsys,
            "place", "--suite", "3", "--slack", "4.5",
            "--strategy", "greedy",
        )
        assert "Placement (greedy, total_period)" in out
        assert "feasible" in out
        assert "best: mapping=" in out

    def test_json_output_is_a_placement_result(self, capsys):
        out = run_cli(
            capsys,
            "place", "--suite", "3", "--slack", "4.5",
            "--strategy", "exhaustive", "--json",
        )
        data = json.loads(out)
        assert data["strategy"] == "exhaustive"
        assert data["feasible"] is True
        assert set(data["best"]["periods"]) == {"A", "B", "C"}

    def test_seeded_run_is_deterministic(self, capsys):
        argv = [
            "place", "--suite", "3", "--slack", "4.5",
            "--strategy", "local_search", "--seed", "11", "--json",
        ]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_explicit_targets(self, capsys):
        out = run_cli(
            capsys,
            "place", "--suite", "2",
            "--target", "A=2000", "--target", "B=2000",
        )
        assert "feasible" in out

    def test_bad_target_application_fails(self, capsys):
        code = main(
            ["place", "--suite", "2", "--target", "Zed=100"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "target" in captured.err

    def test_weights_none_disables_the_weight_axis(self, capsys):
        out = run_cli(
            capsys,
            "place", "--suite", "2", "--slack", "4.5",
            "--weights", "none", "--json",
        )
        data = json.loads(out)
        assert data["space"]["size"] == 3  # mappings only
