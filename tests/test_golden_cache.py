"""Golden-cache correctness: campaign outcomes with memoized golden
traces, store-footprint comparison, and fault-free result reuse must be
byte-identical to the unoptimized path (the frozen reference engine, a
fresh golden run per trial, no reuse) — serially, under --workers N,
and across resume."""

import os

import pytest

from repro.campaign import (CampaignSession, CampaignSpec,
                            ExecutionOptions, JSONLStore, run_trial)
from repro.campaign.golden import (GoldenTrace, cached_trace,
                                   clear_trace_cache,
                                   compare_with_golden)
from repro.campaign.outcome import clear_result_caches
from repro.errors import ConfigError
from repro.functional.checker import compare_states
from repro.functional.simulator import FunctionalSimulator
from repro.harness.bench import run_unoptimized
from repro.workloads.generator import build_workload


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_caches()
    clear_trace_cache()
    yield
    clear_result_caches()
    clear_trace_cache()


SPEC = CampaignSpec(
    name="golden-cache-suite",
    workloads=("gcc",),
    models=("SS-1", "SS-2"),
    # Includes a rate low enough that some trials draw no fault (the
    # silent-injector reuse path) and one high enough to exercise SDC
    # and detection outcomes.
    rates_per_million=(0.0, 30.0, 20_000.0),
    replicates=3,
    instructions=400)


def _records(**options):
    clear_result_caches()
    clear_trace_cache()
    return CampaignSession(
        SPEC, options=ExecutionOptions(**options)).run().records


class TestCampaignEquivalence:
    def test_all_paths_byte_identical(self):
        unoptimized = run_unoptimized(SPEC)
        assert _records() == unoptimized
        # The grid really exercises both shortcuts it pins: silent
        # low-rate trials (reused fault-free runs) and struck 20k-rate
        # trials that end in silent data corruption.
        silent = [r for r in unoptimized
                  if r["trial"]["rate_per_million"] == 30.0
                  and r["faults_injected"] == 0]
        sdc = [r for r in unoptimized
               if r["trial"]["rate_per_million"] == 20_000.0
               and r["outcome"] == "sdc"]
        assert silent and sdc

    def test_workers_identical(self):
        serial = _records()
        parallel = _records(workers=2)
        assert parallel == serial

    def test_resume_identical(self, tmp_path):
        full = _records()
        path = os.path.join(str(tmp_path), "partial.jsonl")
        store = JSONLStore(path)
        for record in full[: len(full) // 2]:
            store.append(record)
        clear_result_caches()
        clear_trace_cache()
        resumed = CampaignSession(SPEC, store=JSONLStore(path)).resume()
        assert resumed.records == full
        assert resumed.skipped == len(full) // 2

    def test_unknown_simulator_rejected(self):
        # The simulator selector is gone: asking for one is an unknown
        # execution option, refused with a ConfigError.
        with pytest.raises(ConfigError, match="simulator"):
            ExecutionOptions.from_dict({"simulator": "warp"})


class TestFaultFreeReuse:
    def test_replicates_share_one_execution(self, monkeypatch):
        import repro.campaign.outcome as outcome_module
        calls = []
        original = outcome_module.finish_trial

        def counting(trial, *args, **kwargs):
            calls.append(trial.key)
            return original(trial, *args, **kwargs)

        monkeypatch.setattr(outcome_module, "finish_trial", counting)
        trials = [t for t in SPEC.trials()
                  if t.rate_per_million == 0.0 and t.model == "SS-2"]
        assert len(trials) == 3
        results = [run_trial(t) for t in trials]
        assert len(calls) == 1          # one simulation, three records
        outcomes = {r.outcome for r in results}
        assert len(outcomes) == 1
        keys = {r.key for r in results}
        assert len(keys) == 3           # but each keeps its own trial


class TestGoldenTrace:
    def _fresh_state(self, program, count):
        sim = FunctionalSimulator(program, mem_size=1 << 16)
        for _ in range(count):
            if not sim.step():
                break
        return sim.state

    def test_seek_matches_fresh_runs_in_any_order(self):
        program = build_workload("gcc")
        trace = GoldenTrace(program, mem_size=1 << 16)
        for count in (250, 40, 400, 0, 399, 41):
            state = trace.seek(count)
            fresh = self._fresh_state(program, count)
            assert compare_states(state, fresh).clean
            assert state.pc == fresh.pc
            assert state.halted == fresh.halted

    def test_seek_past_halt(self):
        program = build_workload("gcc", iterations=2)
        golden = FunctionalSimulator(program, mem_size=1 << 16)
        steps = 0
        while golden.step():
            steps += 1
        steps += 1                      # the halt instruction itself
        trace = GoldenTrace(program, mem_size=1 << 16)
        state = trace.seek(steps + 1_000)
        assert state.halted
        assert trace.position == steps
        # ... and rewinding back out of the halt works.
        back = trace.seek(steps - 3)
        fresh = self._fresh_state(program, steps - 3)
        assert not back.halted
        assert compare_states(back, fresh).clean

    def test_cached_trace_identity_guard(self):
        program_a = build_workload("gcc")
        program_b = build_workload("go")
        key = ("shared", 0)
        trace_a = cached_trace(key, program_a, mem_size=1 << 16)
        assert cached_trace(key, program_a, mem_size=1 << 16) is trace_a
        trace_b = cached_trace(key, program_b, mem_size=1 << 16)
        assert trace_b is not trace_a
        assert trace_b.program is program_b


class TestCompareWithGolden:
    def test_matches_compare_states_on_divergence(self):
        program = build_workload("gcc")
        left_sim = FunctionalSimulator(program, mem_size=1 << 16)
        right_sim = FunctionalSimulator(program, mem_size=1 << 16)
        for _ in range(300):
            left_sim.step()
            right_sim.step()
        # Diverge the left state: registers and a store footprint.
        left = left_sim.state
        left.write_reg(7, left.read_reg(7) + 99)
        left.memory.store(12_345, 0xDEAD)
        left.memory.store(3, -1.5)
        full = compare_states(left, right_sim.state)
        fast = compare_with_golden(left, right_sim.state)
        assert fast.reg_mismatches == full.reg_mismatches
        assert fast.mem_mismatches == full.mem_mismatches
        assert fast.summary() == full.summary()

    def test_clean_states_compare_clean(self):
        program = build_workload("go")
        a = FunctionalSimulator(program, mem_size=1 << 16)
        b = FunctionalSimulator(program, mem_size=1 << 16)
        for _ in range(200):
            a.step()
            b.step()
        assert compare_with_golden(a.state, b.state).clean

    def test_size_mismatch_rejected(self):
        program = build_workload("go")
        a = FunctionalSimulator(program, mem_size=1 << 16)
        b = FunctionalSimulator(program, mem_size=1 << 15)
        with pytest.raises(ValueError):
            compare_with_golden(a.state, b.state)
