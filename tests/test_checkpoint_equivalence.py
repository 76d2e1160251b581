"""Checkpointed fast-forward must never change a record byte.

The hard contract of :mod:`repro.campaign.checkpoint`: for every
execution mode (checkpointing on or off, serial or persistent-worker
pool, fresh run or store resume) and every policy family (rate
injector, directed site list, structure sweep), the campaign's record
list is byte-for-byte identical.  Every test here compares full
``json.dumps(..., sort_keys=True)`` serializations, the same bytes the
stores persist.
"""

import json
import types

import pytest

from repro.campaign import checkpoint
from repro.campaign.api import CampaignSession, ExecutionOptions
from repro.campaign.checkpoint import (CellCheckpoints, default_interval,
                                       run_windowed_capturing)
from repro.campaign.golden import clear_trace_cache
from repro.campaign.outcome import clear_result_caches
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import open_store
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


def record_lines(spec, options):
    clear_result_caches()
    clear_trace_cache()
    result = CampaignSession(spec, options=options).run()
    return [json.dumps(record, sort_keys=True)
            for record in result.records]


def assert_identical(spec):
    plain = record_lines(spec, ExecutionOptions())
    fast = record_lines(spec, ExecutionOptions(checkpointing=True))
    assert plain == fast


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

    def test_capturing_run_matches_straight_protocol(self):
        program = cached_workload("fpppp")
        model = get_model("SS-2")
        straight = Processor(program, config=model.config, ft=model.ft)
        straight.run(max_instructions=400, max_cycles=100_000)
        captured = []
        segmented = Processor(program, config=model.config, ft=model.ft)
        stats, _, _ = run_windowed_capturing(
            segmented, 400, max_cycles=100_000,
            capture=lambda p: captured.append(p.stats.dispatched_groups))
        assert stats.as_dict() == straight.stats.as_dict()
        assert captured, "no checkpoint boundary was ever crossed"


class TestRecordEquivalence:
    """Session-level byte identity, checkpointing on vs off."""

    def test_rate_ladder(self):
        assert_identical(bench_spec())

    def test_second_redundant_model(self):
        assert_identical(bench_spec(models=("SS-3",),
                                    rates_per_million=(1_000.0,),
                                    replicates=1))

    def test_warmup_cell(self):
        # Warmup stamps land mid-protocol; the capturing and resumed
        # runs must place them exactly where run_windowed does.
        assert_identical(bench_spec(warmup=150))

    def test_explicit_odd_interval(self, monkeypatch):
        # An odd spacing that never lines up with commit-width groups.
        monkeypatch.setattr(checkpoint, "default_interval",
                            lambda instructions, warmup=0: 37)
        assert_identical(bench_spec())

    def test_pc_heavy_kind_mix(self):
        # pc faults add a per-group draw ahead of the per-copy draws;
        # the prewalk must mirror that order exactly.
        assert_identical(bench_spec(
            mixes={"pc-heavy": {"pc": 0.6, "value": 0.4}}))

    def test_tight_cycle_budget_timeout(self):
        # A trial that exhausts max_cycles after restoring must report
        # the same timeout record as the full run.
        assert_identical(bench_spec(rates_per_million=(30_000.0,),
                                    max_cycles=700))

    def test_site_list_and_structure_sweep(self):
        assert_identical(bench_spec(
            rates_per_million=(0.0,), replicates=2,
            fault_sites={
                "strike-40": {"policy": "site_list",
                              "sites": [{"structure": "fu_result",
                                         "index": 40, "bit": 7}]},
                "sweep-rob": {"policy": "structure_sweep",
                              "structure": "rob_entry",
                              "strikes": 1}}))


class TestExecutionModes:
    """Pool and resume paths reproduce the serial records."""

    def test_persistent_worker_pool(self):
        spec = bench_spec()
        serial = record_lines(spec, ExecutionOptions())
        pooled = record_lines(
            spec, ExecutionOptions(workers=2, persistent_workers=True,
                                   checkpointing=True))
        assert serial == pooled

    def test_resume_from_partial_store(self, tmp_path):
        spec = bench_spec()
        serial = record_lines(spec, ExecutionOptions())
        store = open_store(str(tmp_path / "partial.jsonl"))
        for line in serial[:3]:
            store.append(json.loads(line))
        clear_result_caches()
        clear_trace_cache()
        session = CampaignSession(
            spec, options=ExecutionOptions(checkpointing=True),
            store=store)
        resumed = session.resume()
        assert [json.dumps(record, sort_keys=True)
                for record in resumed.records] == serial


class TestCheckpointSelection:
    """Pure logic of the per-cell snapshot ladder."""

    @staticmethod
    def ladder(*boundaries):
        return CellCheckpoints([
            types.SimpleNamespace(dispatched_groups=boundary,
                                  program=None)
            for boundary in boundaries])

    def test_best_before_picks_latest_safe_boundary(self):
        cell = self.ladder(50, 100, 150)
        snapshot, boundary = cell.best_before(120)
        assert boundary == 100
        assert snapshot.dispatched_groups == 100

    def test_best_before_exact_boundary_is_safe(self):
        # A snapshot at D is taken before group D's draws — a first
        # strike inside group D may still restore from it.
        _, boundary = self.ladder(50, 100).best_before(100)
        assert boundary == 100

    def test_best_before_none_when_strike_precedes_all(self):
        assert self.ladder(50, 100).best_before(49) is None

    def test_default_interval_floor(self):
        assert default_interval(100) == 50
        assert default_interval(1_600) == 200
        assert default_interval(1_500, warmup=500) == 250
