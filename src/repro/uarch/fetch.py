"""Instruction fetch unit.

Fetches up to ``fetch_width`` instructions per cycle from the I-cache,
subject to the Table-1 front-end rules:

* fetch never crosses an I-cache line boundary in one cycle;
* one branch prediction per cycle: fetch stops *after* a predicted-taken
  control instruction and *before* a second control instruction;
* an I-cache miss stalls fetch until the fill returns;
* fetch freezes after a ``halt`` enters the stream (the paper's machine
  would simply run out of useful work).

Wrong-path fetch is modelled faithfully: after a corrupted or
mispredicted redirect, the unit happily fetches garbage until the
pipeline squashes and redirects it.  Running off the text segment simply
produces no instructions (the stream starves until recovery).
"""

from __future__ import annotations

from ..branch.bimodal import BimodalPredictor
from ..branch.btb import BranchTargetBuffer
from ..branch.combined import CombinedPredictor
from ..branch.ras import ReturnAddressStack
from ..branch.twolevel import TwoLevelPredictor
from ..core.rob import Group
from ..isa.opcodes import OP_INFO, Kind, Op
from ..isa.registers import RA
from ..program.cache import decode_program

# Opcodes as module constants and sets, for the per-control-instruction
# paths: an enum class attribute lookup or ``Instruction.is_branch``
# costs several times a global read.
_OP_J = Op.J
_OP_JAL = Op.JAL
_OP_JR = Op.JR
_BRANCH_OPS = frozenset(op for op, info in OP_INFO.items()
                        if info.kind == Kind.BRANCH)
_INDIRECT_OPS = frozenset((Op.JR, Op.JALR))


def build_predictor(params):
    """Construct the combined predictor described by the config."""
    bimodal = BimodalPredictor(params.bimodal_size)
    twolevel = TwoLevelPredictor(params.l1_size, params.l2_size,
                                 params.history_bits, params.use_xor)
    return CombinedPredictor(bimodal, twolevel, params.meta_size)


class FetchUnit:
    """Front end: PC management, prediction, I-cache timing."""

    def __init__(self, program, config, hierarchy):
        self.program = program
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = build_predictor(config.branch)
        self.btb = BranchTargetBuffer(config.branch.btb_sets,
                                      config.branch.btb_assoc)
        self.ras = ReturnAddressStack(config.branch.ras_depth)
        self.pc = program.entry
        self.stall_until = 0
        self.halted = False
        # Shared static-metadata table: fetched groups carry their
        # DecodedInst so dispatch never re-resolves opcode info.
        self._decoded = decode_program(program, config)
        # I-cache line index of a PC is pc >> line_shift (8-byte
        # instructions); precomputed so the fetch loop's line-boundary
        # test needs no hierarchy call.
        words_per_line = max(1, config.hierarchy.il1.block_bytes // 8)
        self._line_shift = words_per_line.bit_length() - 1

    def redirect(self, target, cycle, penalty=0):
        """Restart fetching at ``target`` after a squash or rewind."""
        self.pc = target
        self.stall_until = cycle + 1 + penalty
        self.halted = False

    def restore_ras(self, snapshot):
        if snapshot is not None:
            self.ras.restore(snapshot)

    def fetch_cycle(self, cycle, budget):
        """Fetch up to ``budget`` instructions; returns one unnumbered
        :class:`~repro.core.rob.Group` per instruction, which dispatch
        numbers and fills with its copies."""
        if self.halted or cycle < self.stall_until or budget <= 0:
            return []
        latency = self.hierarchy.fetch_latency(self.pc)
        hit_latency = self.hierarchy.params.il1.hit_latency
        if latency > hit_latency:
            self.stall_until = cycle + latency
            return []
        fetched = []
        decoded = self._decoded
        text_size = len(decoded)
        line_shift = self._line_shift
        line = self.pc >> line_shift
        control_seen = 0
        while budget > 0:
            pc = self.pc
            if not 0 <= pc < text_size:
                break  # off the text segment (wrong path): starve
            if pc >> line_shift != line:
                break  # next cache line: wait for next cycle
            meta = decoded[pc]
            is_control = meta.is_control
            if is_control and control_seen >= 1:
                break  # one prediction per cycle (Table 1)
            pred_taken = False
            snapshot = None
            if meta.is_halt:
                fetched.append(Group(None, pc, meta.inst, pc, False, None,
                                     cycle, meta))
                self.halted = True
                break
            if is_control:
                snapshot = self.ras.snapshot()
                pred_npc, pred_taken = self._predict_control(meta)
                control_seen += 1
            else:
                pred_npc = pc + 1
            fetched.append(Group(None, pc, meta.inst, pred_npc, pred_taken,
                                 snapshot, cycle, meta))
            self.pc = pred_npc
            budget -= 1
            if is_control and pred_taken:
                break  # stop after a predicted-taken control instruction
        return fetched

    def _predict_control(self, meta):
        """Predict next PC for the control instruction ``meta`` (its
        :class:`~repro.program.cache.DecodedInst`) at ``self.pc``."""
        pc = self.pc
        op = meta.op
        if meta.is_branch:
            taken = self.predictor.predict(pc)
            target = pc + 1 + meta.imm if taken else pc + 1
            return target, taken
        if op == _OP_J:
            return meta.imm, True
        if op == _OP_JAL:
            self.ras.push(pc + 1)
            return meta.imm, True
        if op == _OP_JR:
            if meta.rs1 == RA:
                predicted = self.ras.pop()
            else:
                predicted = self.btb.lookup(pc)
            return (predicted if predicted is not None else pc + 1), True
        # JALR: push the return address, predict through the BTB.
        self.ras.push(pc + 1)
        predicted = self.btb.lookup(pc)
        return (predicted if predicted is not None else pc + 1), True

    def train_commit(self, group, actual_next_pc, taken):
        """Non-speculative predictor/BTB training at commit."""
        op = group.inst.op
        if op in _BRANCH_OPS:
            self.predictor.update(group.pc, taken)
        elif op in _INDIRECT_OPS:
            self.btb.update(group.pc, actual_next_pc)
