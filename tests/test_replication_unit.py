"""Unit tests for the Replicator (instruction injection) in isolation."""

import pytest

from repro.core.faults import FaultConfig
from repro.core.replication import Replicator
from repro.core.rob import DONE, READY, WAITING, Group
from repro.faults.policy import RatePolicy
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.uarch.rename import MapTableRenamer
from repro.uarch.stats import PipelineStats


def _record(inst, pc=0):
    """A fetched, not yet dispatched group."""
    return Group(None, pc, inst, pc + 1, fetch_cycle=1)


def _replicator(redundancy=2, committed=None, policy=None):
    renamer = MapTableRenamer()
    committed = committed or {}
    if policy is not None:
        policy.bind(redundancy)
    return Replicator(redundancy, renamer,
                      lambda areg: committed.get(areg, 0),
                      policy=policy, stats=PipelineStats()), renamer


class TestGroupConstruction:
    def test_r_copies_created(self):
        replicator, _ = _replicator(redundancy=3)
        group = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=5)), cycle=1)
        assert len(group.copies) == 3
        assert [entry.copy for entry in group.copies] == [0, 1, 2]

    def test_vidx_block_alignment(self):
        replicator, _ = _replicator(redundancy=2)
        first = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=5)), cycle=1)
        second = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=2, rs1=1, imm=1)), cycle=1)
        assert [e.vidx for e in first.copies] == [0, 1]
        assert [e.vidx for e in second.copies] == [2, 3]

    def test_gseq_monotonic(self):
        replicator, _ = _replicator()
        groups = [replicator.build_group(
            _record(Instruction(Op.NOP)), cycle=1) for _ in range(3)]
        assert [g.gseq for g in groups] == [0, 1, 2]

    def test_nop_and_halt_complete_at_dispatch(self):
        replicator, _ = _replicator()
        nop = replicator.build_group(_record(Instruction(Op.NOP)), 1)
        halt = replicator.build_group(_record(Instruction(Op.HALT),
                                              pc=5), 1)
        assert nop.complete and halt.complete
        assert all(entry.state == DONE for entry in nop.copies)
        assert halt.copies[0].next_pc == 5  # halt spins on itself


class TestOperandWiring:
    def test_committed_value_captured_immediately(self):
        replicator, _ = _replicator(committed={3: 42})
        group = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=3, imm=0)), 1)
        for entry in group.copies:
            assert entry.state == READY
            assert entry.src_vals[0] == 42

    def test_r0_reads_zero_without_renaming(self):
        replicator, renamer = _replicator()
        renamer.set_dest(0, "bogus")  # must be ignored
        group = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=0)), 1)
        assert group.copies[0].src_vals[0] == 0
        assert group.copies[0].src_tags[0] is None

    def test_in_flight_producer_links_same_copy(self):
        replicator, _ = _replicator(redundancy=2)
        producer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=7)), 1)
        consumer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=2, rs1=1, imm=0)), 1)
        for k, entry in enumerate(consumer.copies):
            assert entry.state == WAITING
            assert entry.pending == 1
            # Registered on the same-copy producer's dependent list.
            assert (entry, 0) in producer.copies[k].dependents
            assert entry.src_tags[0] == producer.copies[k].vidx

    def test_completed_producer_value_forwarded(self):
        replicator, _ = _replicator(redundancy=2)
        producer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=7)), 1)
        for entry in producer.copies:
            entry.value = 7
            entry.state = DONE
        consumer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=2, rs1=1, imm=0)), 1)
        assert all(entry.state == READY for entry in consumer.copies)
        assert consumer.copies[1].src_vals[0] == 7

    def test_youngest_producer_wins(self):
        replicator, _ = _replicator()
        replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=1)), 1)
        newer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=2)), 1)
        consumer = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=2, rs1=1, imm=0)), 1)
        assert consumer.copies[0].src_tags[0] == newer.copies[0].vidx

    def test_two_source_operands(self):
        replicator, _ = _replicator(committed={2: 5, 3: 6})
        group = replicator.build_group(
            _record(Instruction(Op.ADD, rd=1, rs1=2, rs2=3)), 1)
        assert group.copies[0].src_vals == [5, 6]


class TestFaultPlanning:
    def test_plans_attached_to_copies(self):
        policy = RatePolicy(FaultConfig(rate_per_million=1_000_000,
                                        seed=1,
                                        kind_weights={"value": 1.0}))
        replicator, _ = _replicator(policy=policy)
        group = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=5)), 1)
        assert all(entry.fault_kind == "value"
                   for entry in group.copies)

    def test_no_injector_no_plans(self):
        replicator, _ = _replicator()
        group = replicator.build_group(
            _record(Instruction(Op.ADDI, rd=1, rs1=0, imm=5)), 1)
        assert all(entry.fault_kind is None for entry in group.copies)
