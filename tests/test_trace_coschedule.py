"""Pipeline tracer and Section-3.5 co-scheduling tests."""

import pytest

from repro.core.config import DUAL_REDUNDANT
from repro.core.faults import FaultConfig
from repro.faults.policy import RatePolicy
from repro.functional.checker import compare_states
from repro.uarch.config import MachineConfig
from repro.uarch.processor import Processor, simulate
from repro.uarch.trace import PipelineTracer
from repro.workloads.microbench import fibonacci, vector_sum


def _traced_run(program, ft=None, config=None, policy=None):
    processor = Processor(program, config=config, ft=ft, policy=policy)
    tracer = PipelineTracer()
    processor.attach_tracer(tracer)
    processor.run()
    return processor, tracer


class TestTracer:
    def test_records_every_commit(self):
        processor, tracer = _traced_run(fibonacci(n=16))
        assert len(tracer.records) == processor.stats.instructions

    def test_lifecycle_monotonicity(self):
        _, tracer = _traced_run(fibonacci(n=16))
        for record in tracer.records:
            assert record.fetch_cycle <= record.dispatch_cycle
            for issue, done in zip(record.issue_cycles,
                                   record.done_cycles):
                if issue is not None:
                    assert record.dispatch_cycle < issue
                    assert issue < done
                if done is not None:  # nop/halt complete at dispatch
                    assert done <= record.commit_cycle
            assert record.latency >= 2

    def test_commit_order_is_program_order(self):
        _, tracer = _traced_run(vector_sum(length=32))
        gseqs = [record.gseq for record in tracer.records]
        assert gseqs == sorted(gseqs)

    def test_r2_records_two_copies(self):
        _, tracer = _traced_run(fibonacci(n=16), ft=DUAL_REDUNDANT)
        for record in tracer.records:
            assert len(record.issue_cycles) == 2
            assert len(record.done_cycles) == 2

    def test_rewinds_recorded(self):
        _, tracer = _traced_run(
            vector_sum(length=256), ft=DUAL_REDUNDANT,
            policy=RatePolicy(FaultConfig(rate_per_million=3000, seed=4)))
        assert tracer.rewinds
        assert all(r.restart_pc >= 0 for r in tracer.rewinds)

    def test_limit_caps_records(self):
        processor = Processor(fibonacci(n=64))
        tracer = PipelineTracer(limit=10)
        processor.attach_tracer(tracer)
        processor.run()
        assert len(tracer.records) == 10

    def test_format_table(self):
        _, tracer = _traced_run(fibonacci(n=12))
        table = tracer.format_table(last=5)
        assert "instruction" in table
        assert "fib" not in table  # renders instructions, not names
        assert len(table.splitlines()) >= 6

    def test_empty_table(self):
        assert "(no trace records)" in PipelineTracer().format_table()

    def test_average_commit_latency(self):
        _, tracer = _traced_run(fibonacci(n=16))
        assert tracer.average_commit_latency() > 0


class TestCoScheduling:
    def _unit_pairs(self, co_schedule):
        """FU unit indices used by the two copies of each mult group."""
        from repro.isa.builder import ProgramBuilder
        from repro.isa.opcodes import Op
        builder = ProgramBuilder("mults")
        builder.emit(Op.ADDI, rd=1, rs1=0, imm=3)
        builder.emit(Op.ADDI, rd=9, rs1=0, imm=200)
        builder.label("loop")
        for chain in (2, 3):
            builder.emit(Op.MUL, rd=chain, rs1=1, rs2=1)
        builder.emit(Op.ADDI, rd=9, rs1=9, imm=-1)
        builder.branch(Op.BNE, rs1=9, rs2=0, target="loop")
        builder.halt()
        program = builder.build()
        config = MachineConfig(co_schedule_copies=co_schedule)
        processor = Processor(program, config=config, ft=DUAL_REDUNDANT)
        tracer = PipelineTracer()
        processor.attach_tracer(tracer)
        processor.run()
        return [record.fu_units for record in tracer.records
                if "mul" in record.text]

    def test_copies_prefer_distinct_units(self):
        pairs = self._unit_pairs(co_schedule=True)
        distinct = sum(1 for a, b in pairs
                       if a is not None and b is not None and a != b)
        assert distinct >= 0.8 * len(pairs)

    def test_steering_never_reduces_distinct_pairs(self):
        # Same-cycle sibling issues split units naturally (each unit
        # accepts one op per cycle); steering can only help further.
        steered = self._unit_pairs(co_schedule=True)
        unsteered = self._unit_pairs(co_schedule=False)
        distinct_on = sum(1 for a, b in steered if a != b)
        distinct_off = sum(1 for a, b in unsteered if a != b)
        assert distinct_on >= distinct_off

    def test_co_scheduling_preserves_correctness(self):
        program = vector_sum(length=64)
        on = simulate(program, ft=DUAL_REDUNDANT,
                      config=MachineConfig(co_schedule_copies=True))
        off = simulate(program, ft=DUAL_REDUNDANT,
                       config=MachineConfig(co_schedule_copies=False))
        assert compare_states(on.arch, off.arch).clean

    def test_co_scheduling_is_nearly_free(self):
        program = vector_sum(length=256)
        on = simulate(program, ft=DUAL_REDUNDANT,
                      config=MachineConfig(co_schedule_copies=True))
        off = simulate(program, ft=DUAL_REDUNDANT,
                       config=MachineConfig(co_schedule_copies=False))
        assert on.stats.cycles == pytest.approx(off.stats.cycles,
                                                rel=0.05)
