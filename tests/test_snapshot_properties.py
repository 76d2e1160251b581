"""Property-based tests: a snapshot restored at any instruction boundary
continues the run exactly, for any program, machine shape and
redundancy.

The rungs of :mod:`repro.campaign.checkpoint` rest on these facts,
checked here over generated programs (the strategies of
``test_property_equivalence.py``):

* a processor restored from a rung digests equal to its source, and
  running on equals a straight run — pipeline statistics, registers,
  the committed next-PC and every written memory cell;
* a prefix that dispatched no more groups than a site's index is clean:
  a snapshot of it, taken with the site armed or not, restores into a
  site-armed processor and runs on to the straight armed run's state;
* the same holds for a rate policy's first strike, with no RNG
  re-seat: the policy's walk is keyed by dispatched-group index, so
  the restored run replays the straight run's draw stream.

A rung's memory image is the written cells only, so its size is also
pinned.
"""

import struct
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (DUAL_REDUNDANT, TRIPLE_MAJORITY,
                               TRIPLE_REWIND, UNPROTECTED)
from repro.core.faults import FaultConfig
from repro.errors import SimulationError
from repro.faults.policy import RatePolicy, SiteListPolicy
from repro.faults.sites import (OPERAND_STRUCTURES, STRUCTURES,
                                FaultSite, structure_width)
from repro.uarch.processor import Processor
from repro.uarch.snapshot import ProcessorSnapshot, state_digest
from test_property_equivalence import machine_shapes, programs

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MAX_CYCLES = 600_000


@st.composite
def redundant_machines(draw):
    """A machine shape and a fault-tolerance mode with R in {1, 2, 3}.

    A group's R copies dispatch and commit together, so both widths
    are raised to at least R, and the ROB is cut to a multiple of R.
    """
    config = draw(machine_shapes())
    ft = draw(st.sampled_from([UNPROTECTED, DUAL_REDUNDANT,
                               TRIPLE_REWIND, TRIPLE_MAJORITY]))
    redundancy = ft.redundancy
    return replace(
        config,
        dispatch_width=max(redundancy, config.dispatch_width),
        commit_width=max(redundancy, config.commit_width),
        rob_size=max(redundancy,
                     config.rob_size // redundancy * redundancy)), ft


def bits(value):
    """``value`` with bit-exact equality: a float becomes its 64-bit
    pattern, so ``-0.0`` differs from ``0.0`` and a NaN equals a NaN
    with the same payload."""
    if type(value) is float:
        return struct.pack("<d", value)
    return value


def final_state(processor, max_cycles):
    """Everything a restored run must reproduce, after running on.

    Registers and memory cells compare bit for bit (:func:`bits`): a
    generated ``fdiv`` of 0.0 by 0.0 leaves a NaN, and two NaN objects
    never compare ``==``.
    """
    try:
        processor.run(max_cycles=max_cycles)
        error = None
    except SimulationError as exc:
        error = str(exc)
    memory = processor.arch.memory
    written = sorted(memory.written)
    return (error, processor.stats.as_dict(),
            [bits(value) for value in processor.arch.regs],
            processor.committed_next_pc, processor.halted, written,
            [bits(memory.peek(index)) for index in written])


def restored(snapshot, program, config, ft, policy=None):
    processor = Processor(program, config=config, ft=ft, policy=policy)
    snapshot.restore_into(processor)
    assert state_digest(processor) == snapshot.digest
    return processor


@_SETTINGS
@given(programs(), redundant_machines(), st.data())
def test_restore_at_any_boundary_matches_straight_run(program, machine,
                                                      data):
    config, ft = machine
    straight = Processor(program, config=config, ft=ft)
    expected = final_state(straight, _MAX_CYCLES)
    assert straight.halted
    boundary = data.draw(st.integers(
        min_value=1, max_value=straight.stats.instructions))
    source = Processor(program, config=config, ft=ft)
    source.run(max_instructions=boundary, max_cycles=_MAX_CYCLES)
    snapshot = ProcessorSnapshot(source)
    assert snapshot.digest == state_digest(source)
    assert len(snapshot.decode()["mem_cells"]) \
        == len(source.arch.memory.written)
    assert final_state(restored(snapshot, program, config, ft),
                       _MAX_CYCLES) == expected


@_SETTINGS
@given(programs(), redundant_machines(), st.data())
def test_clean_prefix_restores_under_an_armed_site(program, machine,
                                                   data):
    config, ft = machine
    probe = Processor(program, config=config, ft=ft)
    probe.run(max_cycles=_MAX_CYCLES)
    assert probe.halted
    total = probe.stats.instructions
    boundary = data.draw(st.integers(min_value=1, max_value=total))
    clean = Processor(program, config=config, ft=ft)
    clean.run(max_instructions=boundary, max_cycles=_MAX_CYCLES)
    dispatched = clean.stats.dispatched_groups
    structure = data.draw(st.sampled_from(STRUCTURES))
    site = FaultSite(
        structure=structure,
        index=data.draw(st.integers(min_value=dispatched,
                                    max_value=dispatched + 40)),
        copy=data.draw(st.integers(min_value=0,
                                   max_value=ft.redundancy - 1)),
        bit=data.draw(st.integers(
            min_value=0, max_value=structure_width(structure) - 1)),
        operand=data.draw(st.integers(min_value=0, max_value=1))
        if structure in OPERAND_STRUCTURES else 0)
    # A struck run may loop or wedge; bound it well past the clean run.
    max_cycles = 3 * probe.cycle + 500

    def armed():
        return SiteListPolicy([site])

    expected = final_state(
        Processor(program, config=config, ft=ft, policy=armed()),
        max_cycles)
    armed_prefix = Processor(program, config=config, ft=ft,
                             policy=armed())
    armed_prefix.run(max_instructions=boundary, max_cycles=max_cycles)
    assert armed_prefix.stats.dispatched_groups == dispatched
    for snapshot in (ProcessorSnapshot(clean),
                     ProcessorSnapshot(armed_prefix)):
        processor = restored(snapshot, program, config, ft, armed())
        assert final_state(processor, max_cycles) == expected


@_SETTINGS
@given(programs(), redundant_machines(), st.data())
def test_clean_prefix_restores_under_a_rate_policy(program, machine,
                                                   data):
    config, ft = machine
    probe = Processor(program, config=config, ft=ft)
    probe.run(max_cycles=_MAX_CYCLES)
    assert probe.halted
    boundary = data.draw(st.integers(min_value=1,
                                     max_value=probe.stats.instructions))
    clean = Processor(program, config=config, ft=ft)
    clean.run(max_instructions=boundary, max_cycles=_MAX_CYCLES)
    dispatched = clean.stats.dispatched_groups
    # A per-copy rate giving a few hits over the whole run, capped so
    # a short run still leaves seeds whose first hit is past the prefix.
    hits = data.draw(st.floats(min_value=0.5, max_value=3.0))
    rate = min(5e4, 1e6 * hits / (probe.stats.dispatched_groups
                                  * (ft.redundancy + 1)))

    def armed(seed):
        policy = RatePolicy(FaultConfig(rate_per_million=rate,
                                        seed=seed))
        policy.bind(ft.redundancy)
        return policy

    # The first seed from the drawn one that strikes nothing in the
    # prefix, i.e. whose first next_group is at or past it.
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
    for seed in range(seed, seed + 2_000):
        if armed(seed).look_ahead(dispatched) >= dispatched:
            break
    else:
        raise AssertionError("no seed leaves the prefix unstruck")
    max_cycles = 3 * probe.cycle + 500
    expected = final_state(
        Processor(program, config=config, ft=ft, policy=armed(seed)),
        max_cycles)
    armed_prefix = Processor(program, config=config, ft=ft,
                             policy=armed(seed))
    armed_prefix.run(max_instructions=boundary, max_cycles=max_cycles)
    assert armed_prefix.stats.dispatched_groups == dispatched
    for snapshot in (ProcessorSnapshot(clean),
                     ProcessorSnapshot(armed_prefix)):
        processor = restored(snapshot, program, config, ft, armed(seed))
        assert final_state(processor, max_cycles) == expected
