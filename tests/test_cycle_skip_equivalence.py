"""Equivalence suite: the optimized engine, whose run loop skips
provably idle cycles, must produce PipelineStats byte-identical to the
frozen pre-overhaul ReferenceProcessor — across redundancy 1/2/3, fault
and no-fault runs, crashes, and deadlocks (which must fire at the same
cycle)."""

import pytest

from repro.core.faults import FaultConfig
from repro.errors import SimulationError
from repro.faults.policy import RatePolicy
from repro.models.presets import get_model
from repro.uarch.processor import Processor
from repro.uarch.reference import ReferenceProcessor
from repro.workloads.generator import build_workload

INSTRUCTIONS = 800
MAX_CYCLES = 120_000


def _stats(processor_class, program, model, rate, seed):
    fault_config = None
    if rate:
        fault_config = FaultConfig(rate_per_million=rate, seed=seed)
    if processor_class is ReferenceProcessor:
        processor = ReferenceProcessor(program, config=model.config,
                                       ft=model.ft,
                                       fault_config=fault_config)
    else:
        processor = Processor(program, config=model.config, ft=model.ft,
                              policy=RatePolicy(fault_config)
                              if fault_config is not None else None)
    processor.run(max_instructions=INSTRUCTIONS, max_cycles=MAX_CYCLES)
    return processor.stats.as_dict()


@pytest.mark.parametrize("workload", ["gcc", "fpppp"])
@pytest.mark.parametrize("model_name", ["SS-1", "SS-2", "SS-3"])
@pytest.mark.parametrize("rate", [0.0, 3_000.0, 30_000.0])
def test_stats_byte_identical(workload, model_name, rate):
    program = build_workload(workload)
    model = get_model(model_name)
    reference = _stats(ReferenceProcessor, program, model, rate, 42)
    optimized = _stats(Processor, program, model, rate, 42)
    assert optimized == reference


def test_skipping_is_exercised():
    """The fast path must actually skip cycles on a stall-heavy run."""
    program = build_workload("fpppp")
    model = get_model("SS-2")
    processor = Processor(program, config=model.config, ft=model.ft)
    stepped = 0
    original_step = processor.step

    def counting_step():
        nonlocal stepped
        stepped += 1
        original_step()

    processor.step = counting_step
    processor.run(max_instructions=INSTRUCTIONS, max_cycles=MAX_CYCLES)
    assert stepped < processor.cycle, \
        "cycle skipping never engaged (stepped every cycle)"


@pytest.mark.parametrize("skipping", [True, False])
def test_deadlock_fires_at_reference_cycle(skipping):
    """MSHR starvation deadlocks; the optimized engine aborts at the
    reference's cycle whether driven by run() (which skips idle
    cycles) or by a manual step() loop (which never does)."""
    program = build_workload("gcc")
    model = get_model("SS-2")
    config = model.config.derive(mshr_count=0, deadlock_cycles=400)

    def deadlock_cycle(processor_class, skipping):
        processor = processor_class(program, config=config, ft=model.ft)
        with pytest.raises(SimulationError, match="deadlock"):
            if skipping:
                processor.run(max_instructions=INSTRUCTIONS,
                              max_cycles=MAX_CYCLES)
            else:
                while processor.cycle < MAX_CYCLES:
                    processor.step()
        return processor.cycle, processor.stats.as_dict()

    ref_cycle, ref_stats = deadlock_cycle(ReferenceProcessor, True)
    opt_cycle, opt_stats = deadlock_cycle(Processor, skipping)
    assert opt_cycle == ref_cycle
    ref_stats.pop("cycles")
    opt_stats.pop("cycles")   # set by run(); the raise bypasses it
    assert opt_stats == ref_stats


def test_max_cycles_cutoff_identical():
    """A cycle-budget exit lands on the same cycle as the reference."""
    program = build_workload("fpppp")
    model = get_model("SS-2")
    for budget in (137, 500, 1_234):
        runs = []
        for processor_class in (ReferenceProcessor, Processor):
            p = processor_class(program, config=model.config, ft=model.ft)
            p.run(max_cycles=budget)
            runs.append((p.cycle, p.stats.as_dict()))
        assert runs[0] == runs[1]


def test_step_api_unaffected_by_skip_flag():
    """Manual step() never skips: only run() jumps idle cycles."""
    program = build_workload("gcc")
    model = get_model("SS-1")
    processor = Processor(program, config=model.config, ft=model.ft)
    for expected in range(1, 21):
        processor.step()
        assert processor.cycle == expected
