"""Checkpointed fast-forward must never change a record byte.

The hard contract of :mod:`repro.campaign.checkpoint`: for every
execution mode (serial or persistent-worker pool, fresh run or store
resume) and every policy family (rate injector, directed site list,
structure sweep), the campaign's record list is byte-for-byte the
record list of straight runs — each trial simulated from cycle 0
through :func:`~repro.campaign.outcome.finish_trial`'s default
``run_windowed`` protocol, with no rung, no restore and no fault-free
reuse.  Every test here compares full ``json.dumps(...,
sort_keys=True)`` serializations, the same bytes the stores persist.
"""

import json
import math
import types
from dataclasses import replace

import pytest

from repro.campaign import checkpoint, outcome
from repro.campaign.api import CampaignSession, ExecutionOptions
from repro.campaign.checkpoint import (DIGEST_INTERVAL, RUNGS_PER_CELL,
                                       FaultFreeTwin, run_checkpointed)
from repro.campaign.golden import clear_trace_cache
from repro.campaign.outcome import clear_result_caches, finish_trial
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import open_store
from repro.faults.policy import SiteListPolicy
from repro.faults.sites import FaultSite
from repro.harness.bench import run_unoptimized
from repro.harness.experiment import cycle_budget
from repro.models.presets import get_model
from repro.program.cache import cached_workload
from repro.uarch.processor import Processor
from repro.uarch.snapshot import ProcessorSnapshot, state_digest


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

    def test_restore_onto_an_equal_program_continues_identically(self):
        # A workload-cache eviction rebuilds a program as a new, equal
        # object with its own decode table; a rung restores onto it.
        program = cached_workload("gcc")
        model = get_model("SS-2")
        straight = Processor(program, config=model.config, ft=model.ft)
        straight.run(max_instructions=600, max_cycles=100_000)
        source = Processor(program, config=model.config, ft=model.ft)
        source.run(max_instructions=300, max_cycles=100_000)
        snapshot = ProcessorSnapshot(source)
        rebuilt = replace(program)
        assert rebuilt == program and rebuilt is not program
        processor = Processor(rebuilt, config=model.config, ft=model.ft)
        assert processor.decoded is not source.decoded
        snapshot.restore_into(processor)
        assert state_digest(processor) == snapshot.digest
        stats = processor.run(
            max_instructions=600 - processor.stats.instructions,
            max_cycles=100_000)
        assert stats.as_dict() == straight.stats.as_dict()

    def test_restore_decodes_a_group_whose_pc_a_strike_rewrote(self):
        # A pc strike leaves the group's instruction as fetched, so it
        # no longer matches the decode-table entry at the group's pc.
        program = cached_workload("gcc")
        model = get_model("SS-2")
        site = FaultSite(structure="pc", index=200, bit=3)

        def armed():
            return Processor(program, config=model.config, ft=model.ft,
                             policy=SiteListPolicy([site]))

        straight = armed()
        straight.run(max_instructions=600, max_cycles=100_000)
        source = armed()
        while source.stats.dispatched_groups <= 200:
            source.step()
        (struck,) = [group for group in source.groups
                     if group.gseq == 200]
        assert struck.meta is not source.decoded[struck.pc]
        snapshot = ProcessorSnapshot(source)
        # The site is spent: a processor with no policy runs on alike.
        processor = Processor(program, config=model.config, ft=model.ft)
        snapshot.restore_into(processor)
        assert state_digest(processor) == snapshot.digest
        stats = processor.run(
            max_instructions=600 - processor.stats.instructions,
            max_cycles=100_000)
        assert stats.faults_injected == 1
        assert stats.as_dict() == straight.stats.as_dict()

    def test_capturing_run_matches_straight_protocol(self):
        program = cached_workload("fpppp")
        model = get_model("SS-2")
        straight = Processor(program, config=model.config, ft=model.ft)
        straight.run(max_instructions=400, max_cycles=100_000)
        twin = FaultFreeTwin()
        segmented = Processor(program, config=model.config, ft=model.ft)
        stats = run_checkpointed(segmented, twin, math.inf, 400,
                                 max_cycles=100_000)[0]
        assert stats.as_dict() == straight.stats.as_dict()
        # A rung at every digest mark: 100, 200 and 300 of 400
        # committed instructions, each digesting as its mark.
        assert [rung.instructions // 100 for rung in twin.rungs] \
            == [1, 2, 3]
        assert [rung.digest for rung in twin.rungs] \
            == [twin.marks[mark].digest for mark in (100, 200, 300)]


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
        # An odd spacing of marks and rungs that never lines up with
        # commit-width groups.
        monkeypatch.setattr(checkpoint, "DIGEST_INTERVAL", 37)
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
    """A rate cell with no rate-0 baseline sibling in its grid still
    runs its fault-free twin, exactly once: each trial reads its first
    strike from its policy against the twin's dispatched-group count,
    restores the ladder the twin filled, and may stop early against the
    twin's marks."""

    @pytest.mark.parametrize("overrides", [
        {}, {"warmup": 150}, {"max_cycles": 700}],
        ids=["plain", "warmup", "tight-max-cycles"])
    def test_records_match_straight_runs(self, monkeypatch, twin_runs,
                                         overrides):
        spec = bench_spec(models=("SS-3",), rates_per_million=(1_000.0,),
                          replicates=4, **overrides)
        restores = []
        real = ProcessorSnapshot.restore_into

        def counting(snapshot, processor):
            restores.append(snapshot.dispatched_groups)
            return real(snapshot, processor)
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", counting)
        lines = record_lines(spec)
        assert restores
        assert len(twin_runs) == 1
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
    """Pure logic of the twin's rung selection."""

    @staticmethod
    def ladder(*boundaries):
        twin = FaultFreeTwin()
        twin.rungs = [types.SimpleNamespace(dispatched_groups=boundary)
                      for boundary in boundaries]
        return twin

    def test_best_before_picks_latest_safe_boundary(self):
        rung = self.ladder(50, 100, 150).rung_before(120)
        assert rung.dispatched_groups == 100

    def test_best_before_exact_boundary_is_safe(self):
        # A rung at D is taken before group D's draws — a first
        # strike inside group D may still restore from it.
        rung = self.ladder(50, 100).rung_before(100)
        assert rung.dispatched_groups == 100

    def test_best_before_none_when_strike_precedes_all(self):
        assert self.ladder(50, 100).rung_before(49) is None


class TestRungs:
    """The twin keeps a compact rung at each digest mark, and every
    struck trial starts from the last one before its strike."""

    def test_struck_trials_restore_within_one_mark_of_their_strike(
            self, monkeypatch, twin_runs):
        restored = []
        real = ProcessorSnapshot.restore_into

        def spying(rung, processor):
            restored.append(rung)
            return real(rung, processor)
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", spying)
        spec = site_sweep_spec(models=("SS-2",), instructions=1_500)
        struck = 0
        for trial in spec.trials():
            restored.clear()
            outcome.run_trial(trial)
            twin = outcome._FAULTFREE_CACHE.get(
                outcome._baseline_key(trial))
            assert len(twin.rungs) == len(twin.marks)
            strike = trial.injection_policy().look_ahead(twin.groups)
            if strike >= twin.groups:
                assert restored == []
                continue
            struck += 1
            (rung,) = restored
            assert rung.dispatched_groups <= strike
            following = twin.rungs[twin.rungs.index(rung) + 1:]
            assert not following \
                or following[0].dispatched_groups > strike
            # The next rung sits at the next digest mark.
            mark = rung.instructions // DIGEST_INTERVAL * DIGEST_INTERVAL
            assert not following or following[0].instructions \
                // DIGEST_INTERVAL * DIGEST_INTERVAL \
                == mark + DIGEST_INTERVAL
        assert struck >= 6
        assert len(twin_runs) == 1

    @pytest.mark.parametrize("workload,model", [("gcc", "SS-2"),
                                                ("fpppp", "SS-3")])
    def test_rungs_are_small(self, workload, model):
        program = cached_workload(workload)
        machine = get_model(model)
        twin = FaultFreeTwin()
        run_checkpointed(Processor(program, config=machine.config,
                                   ft=machine.ft), twin, math.inf, 1_500)
        assert len(twin.rungs) == 14
        assert max(len(rung.blob) for rung in twin.rungs) <= 16 * 1024

    def test_a_long_cell_thins_its_rungs(self):
        program = cached_workload("gcc")
        machine = get_model("SS-1")
        twin = FaultFreeTwin()
        straight = Processor(program, config=machine.config,
                             ft=machine.ft)
        straight.run(max_instructions=20_000,
                     max_cycles=cycle_budget(20_000))
        stats = run_checkpointed(Processor(program, config=machine.config,
                                           ft=machine.ft),
                                 twin, math.inf, 20_000)[0]
        assert stats.as_dict() == straight.stats.as_dict()
        assert len(twin.marks) == 199
        assert RUNGS_PER_CELL // 2 < len(twin.rungs) <= RUNGS_PER_CELL


class TestOneTwinPerCell:
    """Every cell runs its fault-free twin exactly once per process, and
    that run fills the ladder: no other run exists only for either."""

    def test_one_site_trial_runs_one_twin(self, twin_runs):
        spec = bench_spec(
            rates_per_million=(0.0,), replicates=1,
            fault_sites={"late": {"policy": "site_list",
                                  "sites": [{"structure": "fu_result",
                                             "index": 250, "bit": 3}]}})
        (trial,) = spec.trials()
        record = CampaignSession(spec).run().records[0]
        assert twin_runs == [outcome._baseline_key(trial)]
        assert json.dumps(record, sort_keys=True) \
            == json.dumps(straight_record(trial), sort_keys=True)
        # The twin kept a rung at each of its marks, 100 and 200.
        twin = outcome._FAULTFREE_CACHE.get(outcome._baseline_key(trial))
        assert [rung.instructions // 100 for rung in twin.rungs] == [1, 2]

    def test_high_rate_campaign_runs_one_twin_per_cell(self, twin_runs):
        spec = bench_spec(models=("SS-2", "SS-3"),
                          rates_per_million=(30_000.0,))
        records = CampaignSession(spec).run().records
        assert sorted(twin_runs) == sorted(
            {outcome._baseline_key(trial) for trial in spec.trials()})
        assert len(twin_runs) == 2
        assert [json.dumps(record, sort_keys=True)
                for record in records] == straight_lines(spec)

    def test_ladder_eviction_keeps_the_exit(self, twin_runs, splices):
        # The exit reads the twin's marks, never a rung: with every
        # rung dropped, struck trials simulate from cycle 0 and still
        # stop early, and still match their straight runs.
        spec = site_sweep_spec()
        for trial in spec.trials():
            outcome.run_trial(trial)
        twin_runs.clear()
        splices.clear()
        for twin in outcome._FAULTFREE_CACHE.values():
            twin.rungs = []
        lines = [json.dumps(outcome.run_trial(trial).to_record(),
                            sort_keys=True) for trial in spec.trials()]
        assert twin_runs == [] and splices
        assert lines == straight_lines(spec)

    def test_evicted_twin_runs_again(self, monkeypatch, twin_runs,
                                     splices):
        # With room for one twin, alternating between two cells evicts
        # each cell's twin before its next trial, which runs it again,
        # refills its rungs, restores from them and still stops early
        # against it.
        monkeypatch.setattr(outcome._FAULTFREE_CACHE, "limit", 1)
        twins = []
        run_twin = outcome._run_twin

        def keeping(trial, *args):
            twins.append(run_twin(trial, *args))
            return twins[-1]
        monkeypatch.setattr(outcome, "_run_twin", keeping)
        restores = []
        real = ProcessorSnapshot.restore_into

        def counting(rung, processor):
            restores.append(rung)
            return real(rung, processor)
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", counting)
        spec = site_sweep_spec(replicates=1)
        trials = sorted(spec.trials(), key=lambda trial: trial.key)
        by_cell = {}
        for trial in trials:
            by_cell.setdefault(trial.model, []).append(trial)
        order = [trial for pair in zip(*by_cell.values())
                 for trial in pair]
        assert len(by_cell) == 2 and len(order) == len(trials)
        lines = [json.dumps(outcome.run_trial(trial).to_record(),
                            sort_keys=True) for trial in order]
        assert len(twin_runs) == len(order)
        assert outcome.cache_stats()["fault_free"]["evictions"] \
            == len(order) - 1
        assert all(len(twin.rungs) == len(twin.marks) >= 5
                   for twin in twins)
        assert {id(rung) for rung in restores} \
            <= {id(rung) for twin in twins for rung in twin.rungs}
        assert restores and splices
        assert lines == [json.dumps(straight_record(trial),
                                    sort_keys=True) for trial in order]


@pytest.fixture
def splices(monkeypatch):
    """The digest mark of every early exit, in order."""
    marks = []
    real = checkpoint.FaultFreeTwin.splice

    def counting(twin, mark, processor):
        marks.append(mark)
        return real(twin, mark, processor)
    monkeypatch.setattr(checkpoint.FaultFreeTwin, "splice", counting)
    return marks


@pytest.fixture
def twin_runs(monkeypatch):
    """The cell keys of every fault-free twin run, in order."""
    clear_result_caches()
    clear_trace_cache()
    calls = []
    real = outcome._run_twin

    def counting(trial, *args):
        calls.append(outcome._baseline_key(trial))
        return real(trial, *args)
    monkeypatch.setattr(outcome, "_run_twin", counting)
    yield calls
    clear_result_caches()


def site_sweep_spec(**overrides):
    """One strike per trial in each structure, on two redundant models."""
    kwargs = dict(
        name="exit-sweep", workloads=("gcc",), models=("SS-2", "SS-3"),
        rates_per_million=(0.0,), replicates=2, instructions=600,
        fault_sites={structure: {"policy": "structure_sweep",
                                 "structure": structure, "strikes": 1}
                     for structure in ("fu_result", "rob_entry",
                                       "branch_outcome", "pc")})
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestEarlyExit:
    """Struck trials that re-converge with their twin stop early, and
    their records stay the straight runs' records byte for byte."""

    @pytest.mark.parametrize("overrides", [{}, {"warmup": 250}],
                             ids=["plain", "warmup"])
    def test_site_sweep_records(self, splices, overrides):
        spec = site_sweep_spec(**overrides)
        lines = record_lines(spec)
        assert len(splices) >= len(lines) // 2
        assert lines == straight_lines(spec)

    @pytest.mark.parametrize("max_cycles", [1_050, 1_051])
    def test_tight_cycle_budget(self, splices, max_cycles):
        # The SS-3 twin ends at cycle 1051: at 1051 its struck runs
        # that re-converge with no shift still splice, those shifted
        # later simulate on to their exact timeout; at 1050 the twin
        # times out itself and lends no verdict.
        spec = site_sweep_spec(max_cycles=max_cycles)
        lines = record_lines(spec)
        assert any('"timeout"' in line for line in lines)
        assert splices
        assert lines == straight_lines(spec)

    def test_warmup_crossed_with_another_overshoot(self, splices):
        # The strike lands two groups before the warmup boundary.  The
        # struck run crosses it at 251 committed instructions, the twin
        # at 252, and by the digest mark at 300 the two are in the same
        # state again.  Their windows still end at different committed
        # counts (753 and 754), in different cycles, so the struck run
        # must simulate on rather than take the twin's end.
        spec = bench_spec(
            rates_per_million=(0.0,), replicates=1, warmup=250,
            instructions=502,
            fault_sites={"pre-warmup": {
                "policy": "site_list",
                "sites": [{"structure": "fu_result", "index": 251,
                           "bit": 3}]}})
        (trial,) = spec.trials()
        lines = record_lines(spec)
        assert splices == []
        assert lines == straight_lines(spec)

        twin = outcome._FAULTFREE_CACHE.get(outcome._baseline_key(trial))
        model = trial.resolve_model()
        struck = Processor(cached_workload(trial.workload,
                                           trial.workload_seed),
                           config=model.config, ft=model.ft,
                           policy=trial.injection_policy())
        struck.run(max_instructions=trial.warmup, max_cycles=100_000)
        assert (struck.stats.instructions, twin.warm_instructions) \
            == (251, 252)
        struck.run(max_instructions=300 - struck.stats.instructions,
                   max_cycles=100_000)
        assert struck.stats.faults_injected == 1
        assert struck.stats.instructions == twin.marks[300].instructions
        assert state_digest(struck) == twin.marks[300].digest

    def test_rate_ladder_records(self, splices):
        spec = bench_spec(rates_per_million=(0.0, 300.0, 3_000.0),
                          replicates=3, instructions=900)
        assert record_lines(spec) == straight_lines(spec)
        assert splices

    def test_unclean_twin_never_splices(self, splices):
        # A twin that times out has no clean verdict to lend.
        spec = site_sweep_spec(max_cycles=300)
        lines = record_lines(spec)
        assert all('"timeout"' in line for line in lines)
        assert splices == []
        assert lines == straight_lines(spec)
