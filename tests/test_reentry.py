"""Re-entry: a struck run skips the clean stretch between its strikes.

At a digest mark where a struck run's state matches its cell's
fault-free twin but a strike is still ahead,
:func:`~repro.campaign.checkpoint.run_checkpointed` restores the
twin's latest rung before that strike, shifted by the run's cycle and
group offsets, and adds the twin's ``PipelineStats`` deltas between the
two marks.  The record must stay the straight run's, byte for byte.
"""

import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.campaign import outcome
from repro.campaign.checkpoint import (DIGEST_INTERVAL, FaultFreeTwin,
                                       run_checkpointed)
from repro.campaign.golden import clear_trace_cache
from repro.campaign.outcome import clear_result_caches, finish_trial
from repro.campaign.spec import CampaignSpec
from repro.faults.policy import SiteListPolicy
from repro.faults.sites import FaultSite
from repro.models.presets import get_model
from repro.program.cache import cached_workload
from repro.uarch.processor import Processor
from repro.uarch.snapshot import STATS_SUMS, state_digest


def test_rate_trials_that_reenter_match_straight_runs(monkeypatch):
    reentries = []
    real = FaultFreeTwin.reenter

    def counting(twin, mark, processor, rung):
        reentries.append(mark)
        return real(twin, mark, processor, rung)
    monkeypatch.setattr(FaultFreeTwin, "reenter", counting)
    reentered = []

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(workload=st.sampled_from(("fpppp", "gcc")),
           model=st.sampled_from(("SS-2", "SS-3")),
           warmup=st.sampled_from((0, 250)),
           rate=st.sampled_from((1_000.0, 3_000.0)),
           instructions=st.integers(min_value=500, max_value=900),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def check(workload, model, warmup, rate, instructions, seed):
        spec = CampaignSpec(workloads=(workload,), models=(model,),
                            rates_per_million=(rate,), replicates=1,
                            instructions=instructions, warmup=warmup,
                            base_seed=seed)
        (trial,) = spec.trials()
        machine = trial.resolve_model()
        straight_processor = Processor(
            cached_workload(trial.workload, trial.workload_seed),
            config=machine.config, ft=machine.ft,
            policy=trial.injection_policy())
        straight = finish_trial(trial, straight_processor, runner=None)[0]
        assume(straight.faults_injected >= 2)
        before = len(reentries)
        fast = outcome.run_trial(trial)
        assert json.dumps(fast.to_record(), sort_keys=True) \
            == json.dumps(straight.to_record(), sort_keys=True)
        reentered.append(len(reentries) > before)

    clear_result_caches()
    clear_trace_cache()
    try:
        check()
    finally:
        clear_result_caches()
    # Not vacuous: some drawn trials skipped a stretch between strikes.
    assert any(reentered), len(reentered)


def test_shifted_restore_keeps_the_runs_totals():
    program = cached_workload("fpppp")
    machine = get_model("SS-2")
    twin = FaultFreeTwin()
    run_checkpointed(Processor(program, config=machine.config,
                               ft=machine.ft), twin, math.inf, 1_500)
    site = FaultSite(structure="fu_result", index=30, bit=3)

    def struck():
        return Processor(program, config=machine.config, ft=machine.ft,
                         policy=SiteListPolicy([site]))

    # The strike is detected and rewound, and by the first mark the
    # run is in the twin's state again, some cycles apart.
    run = struck()
    mark = DIGEST_INTERVAL
    run.run(max_instructions=mark, max_cycles=100_000)
    at = twin.marks[mark]
    assert run.stats.instructions == at.instructions
    assert state_digest(run) == at.digest
    assert run.stats.rewinds == 1
    assert run.cycle != at.cycle

    rung = twin.rungs[len(twin.rungs) // 2]
    (rung_mark,) = [number for number, kept in twin.marks.items()
                    if kept is rung]
    assert rung_mark > mark
    totals = (run.checker.checks, run.recovery.rewinds,
              run.hierarchy.dl1.hits, run.fetch_unit.predictor.lookups,
              run.arch.memory.writes, dict(run.stats.extras))
    shift = run.cycle - at.cycle
    assert twin.reenter(mark, run, rung) == shift

    # The run keeps its own running totals, not the fault-free rung's.
    assert (run.checker.checks, run.recovery.rewinds,
            run.hierarchy.dl1.hits, run.fetch_unit.predictor.lookups,
            run.arch.memory.writes, dict(run.stats.extras)) == totals
    assert run.recovery.rewinds == 1
    assert run.stats.extras == {"site_strikes": {"fu_result": 1}}
    # Its sums, state and clock are the straight run's at the rung's
    # mark.
    straight = struck()
    straight.run(max_instructions=rung_mark, max_cycles=100_000)
    assert straight.stats.instructions == rung.instructions
    assert [getattr(run.stats, name) for name in STATS_SUMS] \
        == [getattr(straight.stats, name) for name in STATS_SUMS]
    assert run.stats.as_dict() == straight.stats.as_dict()
    assert run.cycle == straight.cycle == rung.cycle + shift
    assert state_digest(run) == state_digest(straight) == rung.digest
    # And it runs on exactly like the straight run.
    run.run(max_instructions=1_500 - run.stats.instructions,
            max_cycles=100_000)
    straight.run(max_instructions=1_500 - straight.stats.instructions,
                 max_cycles=100_000)
    assert run.stats.as_dict() == straight.stats.as_dict()
    assert run.cycle == straight.cycle
