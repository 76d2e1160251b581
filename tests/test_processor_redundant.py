"""Redundant-mode (R >= 2) engine tests: correctness and invariants."""

import gc

import pytest

from repro.core.config import (DUAL_REDUNDANT, TRIPLE_MAJORITY,
                               TRIPLE_REWIND, FTConfig)
from repro.functional.checker import compare_states
from repro.core.rob import Group
from repro.functional.simulator import run_functional
from repro.models.presets import get_model
from repro.program.cache import cached_workload
from repro.uarch.config import MachineConfig
from repro.uarch.processor import Processor, simulate
from repro.workloads.microbench import (branch_pattern, dot_product,
                                        fibonacci, pointer_chase,
                                        vector_sum)

MICROBENCHES = [vector_sum(length=48), fibonacci(n=24),
                dot_product(length=24), pointer_chase(length=64),
                branch_pattern(iterations=150, period=3)]

R3_CONFIG = MachineConfig(rob_size=126)


@pytest.mark.parametrize("program", MICROBENCHES, ids=lambda p: p.name)
def test_r2_matches_golden_model(program):
    golden = run_functional(program)
    processor = simulate(program, ft=DUAL_REDUNDANT, lockstep=True)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean


@pytest.mark.parametrize("program", MICROBENCHES, ids=lambda p: p.name)
def test_r3_matches_golden_model(program):
    golden = run_functional(program)
    processor = simulate(program, config=R3_CONFIG, ft=TRIPLE_REWIND,
                         lockstep=True)
    assert compare_states(processor.arch, golden.state).clean


class TestRedundancyCosts:
    def test_r2_never_faster_than_baseline(self):
        for program in MICROBENCHES:
            base = simulate(program)
            redundant = simulate(program, ft=DUAL_REDUNDANT)
            assert redundant.stats.cycles >= base.stats.cycles, \
                program.name

    def test_r3_slower_than_r2_on_saturating_code(self):
        program = vector_sum(length=256)
        r2 = simulate(program, ft=DUAL_REDUNDANT)
        r3 = simulate(program, config=R3_CONFIG, ft=TRIPLE_REWIND)
        assert r3.stats.cycles > r2.stats.cycles

    def test_entries_are_r_times_instructions(self):
        program = fibonacci(n=32)
        processor = simulate(program, ft=DUAL_REDUNDANT)
        stats = processor.stats
        assert stats.entries_committed == 2 * stats.instructions

    def test_fault_free_run_has_no_rewinds(self):
        processor = simulate(vector_sum(length=64), ft=DUAL_REDUNDANT)
        assert processor.stats.rewinds == 0
        assert processor.stats.faults_detected == 0

    def test_checks_performed_per_commit(self):
        processor = simulate(fibonacci(n=16), ft=DUAL_REDUNDANT)
        assert processor.checker.checks >= processor.stats.instructions


class TestReplicationInvariants:
    def _capture_groups(self, ft, config=None):
        """Run a short program and harvest dispatched groups."""
        program = dot_product(length=16)
        processor = Processor(program, config=config, ft=ft)
        captured = []
        original = processor.replicator.build_group

        def spy(record, cycle):
            group = original(record, cycle)
            captured.append(group)
            return group

        processor.replicator.build_group = spy
        processor.run()
        return captured

    def test_group_has_r_copies(self):
        for group in self._capture_groups(DUAL_REDUNDANT):
            assert len(group.copies) == 2

    def test_copies_are_vidx_aligned(self):
        """The paper's invariant: copy k sits at aligned index + k."""
        for group in self._capture_groups(DUAL_REDUNDANT):
            base = group.copies[0].vidx
            assert base % 2 == 0
            for k, entry in enumerate(group.copies):
                assert entry.vidx == base + k
                assert entry.copy == k

    def test_operand_tags_differ_by_copy_offset(self):
        """Copy k's producer tag = copy 0's tag + k (Section 3.2)."""
        for group in self._capture_groups(DUAL_REDUNDANT):
            head = group.copies[0]
            for slot in range(2):
                if head.src_tags[slot] is None:
                    continue
                for k, entry in enumerate(group.copies):
                    assert entry.src_tags[slot] == \
                        head.src_tags[slot] + k

    def test_r3_alignment(self):
        groups = self._capture_groups(TRIPLE_REWIND, config=R3_CONFIG)
        for group in groups:
            assert len(group.copies) == 3
            assert group.copies[0].vidx % 3 == 0


class TestPhysicalRegisterPoolVariant:
    def test_shared_pool_is_slightly_slower(self):
        """Section 3.2: corroboration costs R extra reads per retire."""
        program = vector_sum(length=256)
        split = simulate(program, ft=DUAL_REDUNDANT)
        shared = simulate(
            program, config=MachineConfig(shared_physical_regfile=True),
            ft=DUAL_REDUNDANT)
        assert shared.stats.cycles >= split.stats.cycles
        golden = run_functional(program)
        assert compare_states(shared.arch, golden.state).clean


class TestRewindExtraPenalty:
    def test_extra_penalty_costs_cycles_under_faults(self):
        from repro.core.faults import FaultConfig
        program = vector_sum(length=256)
        from repro.faults.policy import RatePolicy
        fault_config = FaultConfig(rate_per_million=5000, seed=5)
        fast = simulate(program, ft=DUAL_REDUNDANT,
                        policy=RatePolicy(fault_config))
        slow_ft = FTConfig(redundancy=2, rewind_extra_penalty=50)
        slow = simulate(program, ft=slow_ft,
                        policy=RatePolicy(fault_config))
        assert slow.stats.rewinds > 0
        assert slow.stats.cycles > fast.stats.cycles


class TestRetiredGroupsAreFreed:
    """Retiring or squashing a group breaks its group <-> copy reference
    cycle, so refcounting frees it and the cyclic collector never has
    to."""

    @staticmethod
    def run_without_collector(model, policy=None):
        """Run 2,000 gcc instructions with the collector off; return the
        processor and every Group the run left alive."""
        machine = get_model(model)
        gc.collect()
        gc.disable()
        try:
            # Held, so no group made by the run reuses one's id.
            older = [obj for obj in gc.get_objects() if type(obj) is Group]
            known = {id(group) for group in older}
            processor = Processor(cached_workload("gcc"),
                                  config=machine.config, ft=machine.ft,
                                  policy=policy)
            processor.run(max_instructions=2_000, max_cycles=100_000)
            live = [obj for obj in gc.get_objects()
                    if type(obj) is Group and id(obj) not in known]
        finally:
            gc.enable()
        return processor, live

    @pytest.mark.parametrize("model", ["SS-1", "SS-2", "SS-3"])
    def test_no_retired_group_waits_for_the_collector(self, model):
        processor, live = self.run_without_collector(model)
        stats = processor.stats
        assert stats.instructions >= 2_000
        # Fetched groups wait in the IFQ until dispatch numbers them.
        in_flight = {id(group) for group in processor.groups} \
            | {id(group) for group in processor.ifq}
        retired = [group for group in live
                   if id(group) not in in_flight and not group.squashed]
        # A load's blocked-on memo may still name a store that retired
        # since; no other retired group outlives its retirement.
        memos = {id(group.block_on) for group in live}
        assert all(id(group) in memos for group in retired)
        assert len(live) <= stats.dispatched_groups - stats.instructions \
            + len(retired) + len(processor.ifq)

    @pytest.mark.parametrize("model", ["SS-2", "SS-3"])
    def test_no_squashed_group_outlives_its_stale_event(self, model):
        from repro.core.faults import FaultConfig
        from repro.faults.policy import RatePolicy
        policy = RatePolicy(FaultConfig(rate_per_million=30_000, seed=3))
        processor, live = self.run_without_collector(model, policy)
        stats = processor.stats
        assert stats.rewinds > 0 and stats.branch_mispredicts > 0
        squashed = [group for group in live if group.squashed]
        # A load fill still scheduled holds its squashed group (it frees
        # an MSHR when it fires); a stale execution event holds only the
        # squashed copy, whose group reference the squash dropped.
        stale = {id(payload[0]) for bucket in processor.events.values()
                 for kind, payload in bucket if kind == 1}
        assert all(id(group) in stale for group in squashed)
