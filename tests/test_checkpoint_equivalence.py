"""Checkpointed fast-forward must never change a record byte.

The hard contract of :mod:`repro.campaign.checkpoint`: for every
execution mode (serial or persistent-worker pool, fresh run or store
resume) and every policy family (rate injector, directed site list,
structure sweep), the campaign's record list is byte-for-byte the
record list of straight runs — each trial simulated from cycle 0
through :func:`~repro.campaign.outcome.finish_trial`'s default
``run_windowed`` protocol, with no ladder, no restore and no fault-free
reuse.  Every test here compares full ``json.dumps(...,
sort_keys=True)`` serializations, the same bytes the stores persist.
"""

import json
import math
import types

import pytest

from repro.campaign import checkpoint, outcome
from repro.campaign.api import CampaignSession, ExecutionOptions
from repro.campaign.checkpoint import (CHECKPOINTS_PER_CELL,
                                       CellCheckpoints, default_interval,
                                       get_store, run_checkpointed)
from repro.campaign.golden import clear_trace_cache
from repro.campaign.outcome import clear_result_caches, finish_trial
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import open_store
from repro.harness.bench import run_unoptimized
from repro.models.presets import get_model
from repro.program.cache import cached_workload
from repro.uarch.processor import Processor
from repro.uarch.snapshot import ProcessorSnapshot


def bench_spec(**overrides):
    kwargs = dict(name="ckpt-eq", workloads=("fpppp",),
                  models=("SS-2",),
                  rates_per_million=(0.0, 1_000.0, 30_000.0),
                  replicates=2, instructions=300)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def record_lines(spec, options=None):
    clear_result_caches()
    clear_trace_cache()
    result = CampaignSession(spec, options=options).run()
    return [json.dumps(record, sort_keys=True)
            for record in result.records]


def straight_record(trial):
    """``trial`` simulated from cycle 0 by the plain windowed protocol."""
    model = trial.resolve_model()
    processor = Processor(
        cached_workload(trial.workload, trial.workload_seed),
        config=model.config, ft=model.ft,
        policy=trial.injection_policy())
    return finish_trial(trial, processor)[0].to_record()


def straight_lines(spec):
    return [json.dumps(straight_record(trial), sort_keys=True)
            for trial in spec.trials()]


def assert_identical(spec):
    assert record_lines(spec) == straight_lines(spec)


def boundaries(cell):
    """The dispatched-group counts of a ladder's snapshots."""
    return [snapshot.dispatched_groups for snapshot in cell.snapshots]


class TestSnapshotRestore:
    """Processor-level: restore continues the exact simulation."""

    def run_processor(self, segmented, target=400, pause=150):
        program = cached_workload("fpppp")
        model = get_model("SS-2")
        processor = Processor(program, config=model.config, ft=model.ft)
        if segmented:
            processor.run(max_instructions=pause, max_cycles=100_000)
            snapshot = ProcessorSnapshot(processor)
            processor = Processor(program, config=model.config,
                                  ft=model.ft)
            snapshot.restore_into(processor)
        remaining = target - processor.stats.instructions
        stats = processor.run(max_instructions=remaining,
                              max_cycles=100_000)
        return stats.as_dict()

    def test_restored_run_matches_straight_run(self):
        assert self.run_processor(False) == self.run_processor(True)

    def test_one_snapshot_serves_repeated_restores(self):
        program = cached_workload("fpppp")
        model = get_model("SS-2")
        source = Processor(program, config=model.config, ft=model.ft)
        source.run(max_instructions=150, max_cycles=100_000)
        snapshot = ProcessorSnapshot(source)
        finals = []
        for _ in range(2):
            processor = Processor(program, config=model.config,
                                  ft=model.ft)
            snapshot.restore_into(processor)
            stats = processor.run(
                max_instructions=400 - processor.stats.instructions,
                max_cycles=100_000)
            finals.append(stats.as_dict())
        assert finals[0] == finals[1]

    def test_restore_refuses_foreign_program(self):
        model = get_model("SS-2")
        source = Processor(cached_workload("fpppp"),
                           config=model.config, ft=model.ft)
        source.run(max_instructions=100, max_cycles=100_000)
        snapshot = ProcessorSnapshot(source)
        other = Processor(cached_workload("gcc"),
                          config=model.config, ft=model.ft)
        with pytest.raises(ValueError):
            snapshot.restore_into(other)

    def test_restore_refuses_stepped_processor(self):
        # The memory image is a diff over the target's own cells: a
        # processor that already ran would keep the cells it stored.
        program = cached_workload("gcc")
        model = get_model("SS-2")
        source = Processor(program, config=model.config, ft=model.ft)
        source.run(max_instructions=100, max_cycles=100_000)
        snapshot = ProcessorSnapshot(source)
        stepped = Processor(program, config=model.config, ft=model.ft)
        stepped.run(max_instructions=300, max_cycles=100_000)
        assert stepped.arch.memory.written
        with pytest.raises(ValueError, match="freshly constructed"):
            snapshot.restore_into(stepped)
        one_cycle = Processor(program, config=model.config, ft=model.ft)
        one_cycle.step()
        with pytest.raises(ValueError, match="freshly constructed"):
            snapshot.restore_into(one_cycle)

    def test_capturing_run_matches_straight_protocol(self):
        program = cached_workload("fpppp")
        model = get_model("SS-2")
        straight = Processor(program, config=model.config, ft=model.ft)
        straight.run(max_instructions=400, max_cycles=100_000)
        cell = CellCheckpoints(program)
        segmented = Processor(program, config=model.config, ft=model.ft)
        stats, _, _ = run_checkpointed(segmented, cell, math.inf, 400,
                                       max_cycles=100_000)
        assert stats.as_dict() == straight.stats.as_dict()
        # Marks at 100, 200 and 300 of 400 committed instructions.
        assert len(cell.snapshots) == CHECKPOINTS_PER_CELL - 1
        assert [s.instructions // 100 for s in cell.snapshots] \
            == [1, 2, 3]

    def test_restoring_run_captures_only_missing_marks(self):
        program = cached_workload("fpppp")
        model = get_model("SS-2")

        def fresh():
            return Processor(program, config=model.config, ft=model.ft)

        straight = fresh()
        straight.run(max_instructions=400, max_cycles=100_000)
        full = CellCheckpoints(program)
        run_checkpointed(fresh(), full, math.inf, 400, max_cycles=100_000)
        # Holding only the first mark, the next run restores it and
        # captures the two marks the ladder lacks.
        partial = CellCheckpoints(program)
        partial.add(100, full.snapshots[0])
        stats, _, _ = run_checkpointed(fresh(), partial, math.inf, 400,
                                       max_cycles=100_000)
        assert stats.as_dict() == straight.stats.as_dict()
        assert boundaries(partial) == boundaries(full)
        assert partial.snapshots[0] is full.snapshots[0]
        # A first strike before the second mark ends the capturing.
        early = CellCheckpoints(program)
        run_checkpointed(fresh(), early, boundaries(full)[1] - 1, 400,
                         max_cycles=100_000)
        assert boundaries(early) == boundaries(full)[:1]


class TestRecordEquivalence:
    """Session-level byte identity against straight runs."""

    def test_rate_ladder(self):
        spec = bench_spec()
        assert_identical(spec)
        # And against the frozen reference engine, for rate specs.
        assert record_lines(spec) == [
            json.dumps(record, sort_keys=True)
            for record in run_unoptimized(spec)]

    def test_second_redundant_model(self):
        assert_identical(bench_spec(models=("SS-3",),
                                    rates_per_million=(1_000.0,),
                                    replicates=1))

    def test_warmup_cell(self):
        # Warmup stamps land mid-protocol; capturing and restored runs
        # must place them exactly where run_windowed does.
        assert_identical(bench_spec(warmup=150))

    def test_explicit_odd_interval(self, monkeypatch):
        # An odd spacing that never lines up with commit-width groups.
        monkeypatch.setattr(checkpoint, "default_interval",
                            lambda instructions, warmup=0: 37)
        assert_identical(bench_spec())

    def test_pc_heavy_kind_mix(self):
        # pc faults add a per-group draw ahead of the per-copy draws;
        # the rate policy's walk must keep that order exactly.
        assert_identical(bench_spec(
            mixes={"pc-heavy": {"pc": 0.6, "value": 0.4}}))

    def test_tight_cycle_budget_timeout(self):
        # A trial that exhausts max_cycles after restoring must report
        # the same timeout record as the full run.
        assert_identical(bench_spec(rates_per_million=(30_000.0,),
                                    max_cycles=700))

    def test_site_list_and_structure_sweep(self):
        # The early strike runs first, so the late one restores from
        # the marks the early trials must not have captured past 40.
        assert_identical(bench_spec(
            rates_per_million=(0.0,), replicates=2,
            fault_sites={
                "strike-40": {"policy": "site_list",
                              "sites": [{"structure": "fu_result",
                                         "index": 40, "bit": 7}]},
                "sweep-rob": {"policy": "structure_sweep",
                              "structure": "rob_entry",
                              "strikes": 1},
                "zz-strike-250": {"policy": "site_list",
                                  "sites": [{"structure": "fu_result",
                                             "index": 250, "bit": 7}]}}))


class TestRateCellWithoutBaseline:
    """A rate cell with no fault-free baseline (no rate-0 sibling, and
    too high a rate for one to pay off) still fast-forwards: each trial
    reads its first strike from its policy, and later replicates
    restore the marks earlier ones captured from their clean
    prefixes."""

    @pytest.mark.parametrize("overrides", [
        {}, {"warmup": 150}, {"max_cycles": 700}],
        ids=["plain", "warmup", "tight-max-cycles"])
    def test_records_match_straight_runs(self, monkeypatch, overrides):
        spec = bench_spec(models=("SS-3",), rates_per_million=(1_000.0,),
                          replicates=4, **overrides)
        for trial in spec.trials():
            assert not outcome._worth_baseline(trial,
                                               trial.injection_policy())
        restores = []
        real = ProcessorSnapshot.restore_into

        def counting(snapshot, processor):
            restores.append(snapshot.dispatched_groups)
            return real(snapshot, processor)
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", counting)
        lines = record_lines(spec)
        assert restores
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", real)
        assert lines == straight_lines(spec)


class TestExecutionModes:
    """Pool and resume paths reproduce the serial records."""

    def test_persistent_worker_pool(self):
        spec = bench_spec()
        serial = record_lines(spec, ExecutionOptions())
        pooled = record_lines(
            spec, ExecutionOptions(workers=2, persistent_workers=True))
        assert serial == pooled

    def test_resume_from_partial_store(self, tmp_path):
        spec = bench_spec()
        serial = record_lines(spec, ExecutionOptions())
        store = open_store(str(tmp_path / "partial.jsonl"))
        for line in serial[:3]:
            store.append(json.loads(line))
        clear_result_caches()
        clear_trace_cache()
        session = CampaignSession(spec, store=store)
        resumed = session.resume()
        assert [json.dumps(record, sort_keys=True)
                for record in resumed.records] == serial


class TestCheckpointSelection:
    """Pure logic of the per-cell snapshot ladder."""

    @staticmethod
    def ladder(*boundaries):
        cell = CellCheckpoints(None)
        for mark, boundary in enumerate(boundaries):
            cell.add(mark, types.SimpleNamespace(
                dispatched_groups=boundary))
        return cell

    def test_best_before_picks_latest_safe_boundary(self):
        snapshot = self.ladder(50, 100, 150).best_before(120)
        assert snapshot.dispatched_groups == 100

    def test_best_before_exact_boundary_is_safe(self):
        # A snapshot at D is taken before group D's draws — a first
        # strike inside group D may still restore from it.
        snapshot = self.ladder(50, 100).best_before(100)
        assert snapshot.dispatched_groups == 100

    def test_best_before_none_when_strike_precedes_all(self):
        assert self.ladder(50, 100).best_before(49) is None

    def test_default_interval_floor(self):
        assert default_interval(100) == 50
        assert default_interval(1_600) == 400
        assert default_interval(1_500, warmup=500) == 500


class TestNoCaptureOnlyRuns:
    """Ladders fill from runs a campaign makes anyway: a struck trial
    never triggers an extra fault-free baseline."""

    @pytest.fixture
    def baseline_runs(self, monkeypatch):
        clear_result_caches()
        clear_trace_cache()
        calls = []
        real = outcome._run_baseline

        def counting(*args, **kwargs):
            calls.append(args[0].key)
            return real(*args, **kwargs)
        monkeypatch.setattr(outcome, "_run_baseline", counting)
        yield calls
        clear_result_caches()

    def test_one_site_trial_runs_no_baseline(self, baseline_runs):
        spec = bench_spec(
            rates_per_million=(0.0,), replicates=1,
            fault_sites={"late": {"policy": "site_list",
                                  "sites": [{"structure": "fu_result",
                                             "index": 250, "bit": 3}]}})
        (trial,) = spec.trials()
        record = CampaignSession(spec).run().records[0]
        assert baseline_runs == []
        assert json.dumps(record, sort_keys=True) \
            == json.dumps(straight_record(trial), sort_keys=True)
        # Its own clean prefix filled the ladder marks before index 250.
        assert get_store().get(outcome._baseline_key(trial)).snapshots

    def test_high_rate_campaign_runs_no_baseline(self, baseline_runs):
        spec = bench_spec(rates_per_million=(30_000.0,))
        records = CampaignSession(spec).run().records
        assert baseline_runs == []
        assert [json.dumps(record, sort_keys=True)
                for record in records] == straight_lines(spec)
