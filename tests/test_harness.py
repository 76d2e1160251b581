"""Harness tests: experiment runners, report formatting, the CLI."""

import pytest

from repro.harness import experiment
from repro.harness.cli import build_parser, main
from repro.harness.report import (ascii_chart, format_figure5_table,
                                  format_figure6_table,
                                  format_machine_table,
                                  format_sensitivity_table)
from repro.models.presets import baseline_config, ss1, ss2
from repro.workloads.generator import build_workload

QUICK = 1_500  # instructions per quick simulation


class TestRunners:
    def test_run_on_model(self):
        result = experiment.run_on_model(build_workload("go"), ss1(),
                                         max_instructions=QUICK)
        assert result.model == "SS-1"
        assert result.instructions >= QUICK
        assert 0 < result.ipc <= 8

    def test_table2_rows(self):
        rows = experiment.table2_rows(benchmarks=("go",),
                                      instructions=QUICK)
        assert rows[0].name == "go"
        assert rows[0].pct_int > 50

    def test_figure5_rows(self):
        rows = experiment.figure5_rows(benchmarks=("go", "vortex"),
                                       instructions=QUICK)
        assert len(rows) == 2
        for row in rows:
            assert set(row.results) == {"SS-1", "Static-2", "SS-2"}
            assert 0.0 <= row.ss2_penalty < 1.0

    def test_figure6_points(self):
        points = experiment.figure6_points(
            benchmark="go", rates=(0.0, 5000.0), instructions=QUICK)
        assert len(points) == 2
        clean, faulty = points
        assert clean.results["R=2"].rewinds == 0
        assert faulty.results["R=2"].rewinds > 0

    def test_sensitivity_rows(self):
        rows = experiment.sensitivity_rows(benchmarks=("go",),
                                           instructions=QUICK,
                                           labels=("0.5x", "2x", "inf"))
        row = rows[0]
        assert set(row.fu_ipc) == {"0.5x", "2x", "inf"}
        assert row.base_ipc > 0

    def test_recovery_cost(self):
        result = experiment.recovery_cost(benchmark="go",
                                          rate_per_million=3000,
                                          instructions=QUICK)
        assert result.rewinds >= 1
        assert result.avg_recovery_penalty > 0

    def test_physreg_ablation(self):
        rows = experiment.physreg_ablation(benchmarks=("go",),
                                           instructions=QUICK)
        name, split_ipc, shared_ipc = rows[0]
        assert name == "go"
        assert shared_ipc <= split_ipc * 1.02

    def test_rename_scheme_comparison(self):
        results = experiment.rename_scheme_comparison(benchmark="go",
                                                      instructions=800)
        assert results["map"].cycles == results["associative"].cycles
        assert results["map"].ipc == results["associative"].ipc


class TestSensitivityCampaignSpec:
    def test_builds_override_axis_from_scalings(self):
        spec = experiment.sensitivity_campaign_spec(
            benchmarks=("go",), rates=(0.0,), replicates=1,
            instructions=400, labels=("2x",))
        assert set(spec.machine_overrides) == {"base", "fu-2x",
                                               "ruu-2x"}
        assert spec.machine_overrides["ruu-2x"]["rob_size"] == 256
        assert spec.machine_overrides["fu-2x"]["int_alu"] == 8
        assert spec.grid_size == 3

    def test_runs_through_the_session(self):
        from repro.campaign import CampaignSession
        spec = experiment.sensitivity_campaign_spec(
            benchmarks=("go",), rates=(0.0,), replicates=1,
            instructions=400, labels=("0.5x",))
        session = CampaignSession(spec)
        cells = {cell.machine: cell
                 for cell in (session.run() and session.aggregate())}
        assert set(cells) == {"base", "fu-0.5x", "ruu-0.5x"}
        # Halving the window cannot speed the machine up.
        assert cells["ruu-0.5x"].mean_ipc <= cells["base"].mean_ipc


class TestReportFormatting:
    def test_figure5_table(self):
        rows = experiment.figure5_rows(benchmarks=("go",),
                                       instructions=QUICK)
        table = format_figure5_table(rows)
        assert "go" in table and "average" in table

    def test_figure6_table(self):
        points = experiment.figure6_points(benchmark="go",
                                           rates=(0.0,),
                                           instructions=QUICK)
        table = format_figure6_table(points)
        assert "IPC R=2" in table

    def test_sensitivity_table(self):
        rows = experiment.sensitivity_rows(benchmarks=("go",),
                                           instructions=QUICK)
        table = format_sensitivity_table(rows)
        assert "limited" in table

    def test_machine_table_lists_table1(self):
        table = format_machine_table(baseline_config())
        assert "128/64" in table
        assert "4 IntALU" in table

    def test_ascii_chart_renders(self):
        chart = ascii_chart(
            [("a", "*", [(1e-6, 0.5), (1e-3, 0.4)]),
             ("b", "+", [(1e-6, 0.3), (1e-3, 0.3)])],
            width=20, height=5, title="demo")
        assert "demo" in chart and "*" in chart and "+" in chart

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart([("a", "*", [])], title="t")


class TestCli:
    def test_parser_covers_all_commands(self):
        parser = build_parser()
        for command in ("table1", "table2", "figure3", "figure4",
                        "figure5", "figure6", "sensitivity", "coverage",
                        "demo"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        assert "RUU/LSQ" in capsys.readouterr().out

    def test_figure3_runs(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_coverage_runs(self, capsys):
        assert main(["coverage"]) == 0
        assert "sphere" in capsys.readouterr().out.lower()

    def test_figure5_quick(self, capsys):
        assert main(["figure5", "--benchmarks", "go",
                     "--instructions", "800"]) == 0
        assert "go" in capsys.readouterr().out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBenchCampaignAccounting:
    """The bench's internal bookkeeping: the per-phase wall-clock
    breakdown must actually account for the measured run, and the
    trial-cache counters it records must be internally consistent —
    the perf differ treats both as trustworthy inputs."""

    @pytest.fixture(scope="class")
    def payload(self):
        from repro.harness.bench import bench_campaign
        return bench_campaign(quick=True, repeats=2)

    def test_sample_lists_match_repeats(self, payload):
        assert payload["repeats"] == 2
        assert len(payload["optimized_sample_seconds"]) == 2
        assert len(payload["reference_sample_seconds"]) == 2
        for samples in \
                payload["optimized_phase_sample_seconds"].values():
            assert len(samples) == 2

    def test_headline_numbers_are_best_of_samples(self, payload):
        assert payload["optimized_seconds"] == pytest.approx(
            min(payload["optimized_sample_seconds"]), abs=1e-3)
        assert payload["reference_seconds"] == pytest.approx(
            min(payload["reference_sample_seconds"]), abs=1e-3)

    def test_phases_sum_to_optimized_seconds(self, payload):
        """Per repeat, the four phase timers must cover the bulk of
        the optimized wall time and never exceed it: the phase clock
        wraps the per-trial loop, so untimed work is only session
        setup and aggregation."""
        phases = payload["optimized_phase_sample_seconds"]
        assert set(phases) <= {"decode", "golden", "simulate",
                               "classify"}
        for repeat, total in \
                enumerate(payload["optimized_sample_seconds"]):
            covered = sum(samples[repeat]
                          for samples in phases.values())
            assert 0 < covered <= total + 0.02
            assert covered >= 0.5 * total

    def test_cache_stats_internally_consistent(self, payload):
        caches = payload["optimized_cache_stats"]
        assert set(caches) == {"golden_trace", "workload", "fault_free"}
        for name, stats in caches.items():
            for key in ("hits", "misses", "evictions", "size",
                        "limit"):
                assert stats[key] >= 0, (name, key)
            assert stats["hits"] + stats["misses"] \
                >= stats["evictions"], name
            assert stats["size"] <= stats["limit"], name
        # The quick grid re-simulates one workload at several rates:
        # the decoded-program cache must actually get hits.
        assert caches["workload"]["hits"] > 0
        assert caches["workload"]["size"] >= 1
