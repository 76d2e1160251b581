"""The normalized machine-state digest of :mod:`repro.uarch.snapshot`.

The early exit of :mod:`repro.campaign.checkpoint` stops a struck run
when its digest equals its fault-free twin's, so the digest must see
every field that can change what the machine does next, and must not
see what cannot: running totals (spliced, not compared), stale release
times, and the absolute cycle and age bases.
"""

import struct

import pytest

from repro.core.rob import Group, RobEntry
from repro.models.presets import get_model
from repro.program.cache import cached_workload
from repro.uarch import snapshot
from repro.uarch.fetch import FetchRecord
from repro.uarch.processor import Processor
from repro.uarch.snapshot import ProcessorSnapshot, state_digest


def mid_run(model="SS-2", instructions=700):
    program = cached_workload("gcc")
    machine = get_model(model)
    processor = Processor(program, config=machine.config, ft=machine.ft)
    processor.run(max_instructions=instructions, max_cycles=100_000)
    return processor


@pytest.fixture(scope="module")
def machine():
    processor = mid_run()
    assert len(processor.groups) >= 4 and processor.events
    return processor


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def changed(value, other_inst):
    """A value of the same kind as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 1.5 if value != 1.5 else 2.5
    if value is None:
        return 7
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, tuple):
        return value + (0,)
    return other_inst(value)


def other_inst(machine):
    """Swap an Instruction/DecodedInst for one with other operands."""
    decoded = machine.decoded

    def swap(value):
        meta = value if hasattr(value, "inst") else None
        inst = value.inst if meta is not None else value
        for candidate in decoded:
            if (candidate.inst.op, candidate.inst.imm, candidate.inst.rd) \
                    != (inst.op, inst.imm, inst.rd):
                return candidate if meta is not None else candidate.inst
        raise AssertionError("no distinct instruction in the program")
    return swap


def assert_digest_changes(machine, obj, name):
    before = state_digest(machine)
    original = getattr(obj, name)
    setattr(obj, name, changed(original, other_inst(machine)))
    try:
        assert state_digest(machine) != before, name
    finally:
        setattr(obj, name, original)
    assert state_digest(machine) == before


class TestCoverage:
    """A field added to a snapshot table cannot escape the digest."""

    def test_every_restored_field_is_encoded(self, machine):
        parts = snapshot._DIGEST_PARTS + (snapshot._totals_part,)
        names = [name for part in parts
                 for name, _ in part(machine, machine.cycle)]
        assert len(names) == len(set(names))
        fields = ProcessorSnapshot(machine).decode()
        assert set(fields) == set(names)
        read = set()

        class Recording(dict):
            def __getitem__(self, name):
                read.add(name)
                return dict.__getitem__(self, name)
        target = Processor(machine.program, config=machine.config,
                           ft=machine.ft)
        snapshot._restore(target, Recording(fields))
        assert read == set(fields)
        assert state_digest(target) == state_digest(machine)

    def test_field_tables_cover_the_window_objects(self):
        assert set(Group.__slots__) \
            == set(snapshot._GROUP_SCALARS) | {"copies", "block_on"}
        assert set(RobEntry.__slots__) == set(snapshot._ENTRY_SCALARS) \
            | {"group", "src_vals", "src_tags", "dependents"}


class TestSensitivity:
    """Changing any one piece of behaviour-relevant state changes it."""

    @pytest.mark.parametrize("name", snapshot._GROUP_SCALARS)
    def test_group_field(self, machine, name):
        assert_digest_changes(machine, machine.groups[1], name)

    @pytest.mark.parametrize("name", snapshot._ENTRY_SCALARS)
    def test_entry_field(self, machine, name):
        assert_digest_changes(machine, machine.groups[1].copies[1], name)

    @pytest.mark.parametrize("name", FetchRecord.__slots__)
    def test_fetch_record_field(self, name):
        processor = mid_run(instructions=650)
        assert processor.ifq
        assert_digest_changes(processor, processor.ifq[0], name)

    @pytest.mark.parametrize("name", ["src_vals", "src_tags"])
    def test_operand_values_and_tags(self, machine, name):
        entry = machine.groups[2].copies[0]
        before = state_digest(machine)
        original = getattr(entry, name)
        first = original[0]
        setattr(entry, name, [7 if first is None else first + 1,
                              original[1]])
        try:
            assert state_digest(machine) != before
        finally:
            setattr(entry, name, original)
        assert state_digest(machine) == before

    def test_register_and_memory_cell(self):
        processor = mid_run()
        before = state_digest(processor)
        processor.arch.regs[5] += 1
        assert state_digest(processor) != before
        processor.arch.regs[5] -= 1
        assert state_digest(processor) == before
        memory = processor.arch.memory
        cell = sorted(memory.written)[0]
        memory._cells[cell] = changed(memory._cells[cell], None)
        assert state_digest(processor) != before

    def test_predictor_counter(self):
        processor = mid_run()
        before = state_digest(processor)
        table = processor.fetch_unit.predictor.bimodal._table
        table[3] = (table[3] + 1) % 4
        assert state_digest(processor) != before

    def test_cache_set_lru_order(self):
        processor = mid_run()
        sets = processor.hierarchy.l2._sets
        index, ways = next(iter(sets.items()))
        # A second (older) block in the set: gcc's footprint fills one
        # way per set at most.
        (tag, dirty), = ways.items()
        sets[index] = {tag + 1: False, tag: dirty}
        before = state_digest(processor)
        sets[index] = {tag: dirty, tag + 1: False}
        assert state_digest(processor) != before

    def test_future_fu_busy_time(self):
        processor = mid_run()
        before = state_digest(processor)
        pool = next(iter(processor.fus.pools.values()))
        pool._busy_until[0] = processor.cycle + 3
        assert state_digest(processor) != before

    def test_block_on_and_dependents(self, machine):
        group = machine.groups[3]
        before = state_digest(machine)
        original = group.block_on
        group.block_on = machine.groups[0]
        try:
            assert state_digest(machine) != before
        finally:
            group.block_on = original
        entry = machine.groups[0].copies[0]
        original = entry.dependents
        entry.dependents = [(machine.groups[3].copies[0], 1)]
        try:
            assert state_digest(machine) != before
        finally:
            entry.dependents = original
        assert state_digest(machine) == before

    def test_scheduled_event(self, machine):
        before = state_digest(machine)
        when = max(machine.events)
        bucket = machine.events[when]
        machine.events[when + 1] = bucket
        del machine.events[when]
        try:
            assert state_digest(machine) != before
        finally:
            machine.events[when] = bucket
            del machine.events[when + 1]
        assert state_digest(machine) == before


class TestInsensitivity:
    """Running totals and stale release times are not compared."""

    def test_counters_are_left_out(self):
        processor = mid_run()
        before = state_digest(processor)
        processor.stats.issued += 5
        processor.stats.cycles += 9
        processor.hierarchy.dl1.hits += 1
        processor.fetch_unit.predictor.lookups += 1
        processor.fetch_unit.predictor.bimodal.lookups += 1
        processor.fetch_unit.btb.hits += 1
        processor.fetch_unit.ras.pushes += 1
        processor.checker.checks += 1
        processor.arch.memory.reads += 1
        for pool in processor.fus.pools.values():
            pool.issued_ops += 1
            pool.busy_cycles += 1
        assert state_digest(processor) == before

    def test_stale_busy_time(self):
        processor = mid_run()
        pool = next(iter(processor.fus.pools.values()))
        pool._busy_until[0] = 0
        before = state_digest(processor)
        pool._busy_until[0] = processor.cycle
        assert state_digest(processor) == before
        pool._busy_until[0] = processor.cycle - 40
        assert state_digest(processor) == before


class TestFloatEncoding:
    def test_register_signed_zero_and_nan_change_the_digest(self):
        processor = mid_run()
        fp_reg = next(index for index, value
                      in enumerate(processor.arch.regs)
                      if isinstance(value, float))
        digests = []
        for value in (0.0, -0.0, float_from_bits(0x7FF8000000000000),
                      float_from_bits(0x7FF8000000000001)):
            processor.arch.regs[fp_reg] = value
            digests.append(state_digest(processor))
        assert len(set(digests)) == 4


class TestIdentity:
    def test_restored_processor_digests_equal_to_its_source(self):
        for model in ("SS-1", "SS-2", "SS-3"):
            source = mid_run(model)
            restored = Processor(source.program, config=source.config,
                                 ft=source.ft)
            ProcessorSnapshot(source).restore_into(restored)
            assert state_digest(restored) == state_digest(source)

    def test_separate_runs_digest_equal(self):
        assert state_digest(mid_run()) == state_digest(mid_run())

    def test_different_points_digest_differently(self):
        assert state_digest(mid_run(instructions=600)) \
            != state_digest(mid_run(instructions=700))
