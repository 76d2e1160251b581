"""Memoized golden-reference execution for campaign classification.

Every trial of a campaign is classified against the paper's golden
reference (Section 5.1.1): an in-order functional execution of the same
program advanced by exactly as many instructions as the out-of-order
machine committed.  All trials of one (workload, model, budget) cell
share the same fault-free golden behaviour, so re-running the reference
from scratch per trial — and re-scanning every one of the 64Ki memory
words per comparison — is pure waste at campaign scale.

Two mechanisms remove that waste while keeping classification
byte-identical to the naive path (the golden-cache equivalence suite
asserts this):

* :class:`GoldenTrace` — one functional simulator per cell, made
  *seekable*: an undo log (each in-order instruction touches at most
  one register or one memory word) lets the trace rewind to any earlier
  committed count, so per-trial positioning costs only the delta from
  the previous trial instead of a fresh run.
* :func:`compare_with_golden` — a :class:`~repro.functional.checker.
  StateDiff`-compatible comparison that scans registers plus the
  *union of store footprints* of the two memories.  Both memories are
  initialised from the same program image, so cells never stored to by
  either side are equal by construction; the result is identical to
  :func:`repro.functional.checker.compare_states` including mismatch
  ordering.
"""

from __future__ import annotations

from ..functional.checker import StateDiff
from ..functional.numeric import u64, values_equal
from ..functional.simulator import FunctionalSimulator
from ..isa.opcodes import Kind
from ..isa.registers import NUM_LOGICAL_REGS
from ..program.cache import LRUCache

#: Cached traces per worker process (small: each trace owns a full
#: simulated memory).
_TRACE_CACHE = LRUCache(limit=8)

# Undo-record slot kinds.
_UNDO_NONE = 0
_UNDO_REG = 1
_UNDO_MEM = 2


class GoldenTrace:
    """A fault-free in-order execution, seekable by committed count."""

    def __init__(self, program, mem_size=None):
        self.program = program
        self.sim = FunctionalSimulator(program, mem_size=mem_size)
        #: One record per executed instruction: (pc before the step,
        #: slot kind, register index or memory cell index, old value).
        self._undo = []

    @property
    def position(self):
        """Committed instructions currently reflected by the state."""
        return self.sim.instret

    def seek(self, count):
        """Architectural state after exactly ``count`` golden commits.

        Stops early (like the naive per-trial loop) if the program
        halts before ``count`` instructions.  Returns the simulator's
        live :class:`~repro.functional.state.ArchState`; callers must
        not mutate it.
        """
        sim = self.sim
        state = sim.state
        undo = self._undo
        while sim.instret > count:
            pc, slot_kind, index, old = undo.pop()
            state.pc = pc
            state.halted = False      # recorded steps start un-halted
            if slot_kind == _UNDO_REG:
                state.regs[index] = old
            elif slot_kind == _UNDO_MEM:
                state.memory.poke(index, old)
            sim.instret -= 1
        fetch = self.program.fetch
        while sim.instret < count and not state.halted:
            pc = state.pc
            inst = fetch(pc)
            if inst is None:
                sim.step()            # raises the naive path's error
                return state
            info = inst.info
            if info.writes_reg:
                undo.append((pc, _UNDO_REG, inst.rd, state.regs[inst.rd]))
            elif info.kind == Kind.STORE:
                address = u64(state.read_reg(inst.rs1) + inst.imm)
                undo.append((pc, _UNDO_MEM, address,
                             state.memory.peek(address)))
            else:
                undo.append((pc, _UNDO_NONE, 0, None))
            sim.step()
        return state


def cached_trace(key, program, mem_size=None):
    """The (per-process) memoized :class:`GoldenTrace` for one cell.

    ``key`` must capture the program's semantic identity (e.g.
    workload name + seed + model memory size); the program object is
    additionally identity-checked to defeat stale entries, and a stale
    entry counts as a miss.
    """
    trace = _TRACE_CACHE.get(key, fresh=lambda trace:
                             trace.program is program)
    if trace is None:
        trace = GoldenTrace(program, mem_size=mem_size)
        _TRACE_CACHE.put(key, trace)
    return trace


def trace_cache_stats():
    """Size, limit and hit/miss/eviction counters of the trace cache."""
    return _TRACE_CACHE.stats()


def clear_trace_cache():
    """Drop all memoized traces and reset counters (for tests)."""
    _TRACE_CACHE.clear()


def compare_with_golden(arch, golden_state):
    """Diff two states that share a program image, via store footprints.

    Byte-identical to :func:`repro.functional.checker.compare_states`
    for states whose memories were initialised from the same image and
    have the same size: any cell outside the union of the two written
    sets still holds the shared image value on both sides.
    """
    diff = StateDiff()
    left_regs = arch.regs
    right_regs = golden_state.regs
    for index in range(NUM_LOGICAL_REGS):
        a = left_regs[index]
        b = right_regs[index]
        if not values_equal(a, b):
            diff.reg_mismatches.append((index, a, b))
    left_memory = arch.memory
    right_memory = golden_state.memory
    if len(left_memory) != len(right_memory):
        raise ValueError("cannot compare memories of different sizes")
    left_cells = left_memory._cells
    right_cells = right_memory._cells
    for address in sorted(left_memory.written | right_memory.written):
        a = left_cells[address]
        b = right_cells[address]
        if not values_equal(a, b):
            diff.mem_mismatches.append((address, a, b))
    return diff
