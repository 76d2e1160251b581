"""Instruction injection: dynamic replication at dispatch.

This is step (1) of the paper's mechanism: "The instruction injection
logic in the decode stage temporarily creates multiple redundant threads
from a single instruction stream" (Section 3.2).  Each fetched
instruction becomes a :class:`~repro.uarch.rob.Group` of R consecutive
ROB entries; only copy 0 is renamed through the map table and copy *k*'s
operand is deduced as copy *k* of the same producer group — the
object-reference form of the paper's "+k tag offset" rule.

The replicator owns the data-independence invariant: copy *k* of a
consumer only ever reads values produced by copy *k* of a producer, or
the (ECC-protected, shared) committed register file.

It is also where strikes enter a run.  Each group costs one compare
against the :class:`~repro.faults.policy.InjectionPolicy`'s
``next_group``; a group at or past it goes to the policy's ``strike``,
and the arms that call returns are set on the copies' ROB entries.
"""

from __future__ import annotations

from ..isa.opcodes import Kind
from ..isa.registers import ZERO
from .rob import DONE, READY, WAITING, Group, RobEntry

# Enum members as module constants: every dispatched group compares
# its kind, and an enum class attribute lookup costs several times a
# global read.
_K_NOP = Kind.NOP
_K_HALT = Kind.HALT


class Replicator:
    """Builds R-redundant groups from fetched instructions."""

    def __init__(self, redundancy, renamer, committed_read, policy=None,
                 stats=None):
        """``committed_read(areg)`` reads the committed register file.

        ``policy`` is the run's
        :class:`~repro.faults.policy.InjectionPolicy` (``None``: no
        faults); ``stats`` counts the strikes it applies at dispatch.
        """
        self.redundancy = redundancy
        self.renamer = renamer
        self.committed_read = committed_read
        self.policy = policy
        self.stats = stats
        self._gseq = 0
        self._seq = 0

    def build_group(self, record, cycle):
        """Replicate one fetched instruction into an R-copy group."""
        inst = record.inst
        meta = record.meta
        gseq = self._gseq
        group = Group(gseq, record.pc, inst, record.pred_npc,
                      record.pred_taken, record.ras_snap,
                      record.fetch_cycle, meta)
        self._gseq = gseq + 1
        arms = None
        policy = self.policy
        if policy is not None and gseq >= policy.next_group:
            # Before the copies exist: a pc strike rewrites group.pc,
            # which inert copies read below.
            arms = policy.strike(group, cycle, self.stats)

        info = meta.info if meta is not None else inst.info
        kind = info.kind
        inert = kind == _K_NOP or kind == _K_HALT
        reads_rs1 = info.reads_rs1
        reads_rs2 = info.reads_rs2
        rs1 = inst.rs1
        rs2 = inst.rs2
        # Producer lookup is per-group work: all copies of a consumer
        # read from the same producer *group* (copy k reads copy k).
        producer1 = producer2 = None
        committed1 = committed2 = 0
        if not inert:
            renamer = self.renamer
            committed_read = self.committed_read
            if reads_rs1:
                if rs1 == ZERO:
                    committed1 = 0
                else:
                    producer1 = renamer.lookup(rs1)
                    if producer1 is None:
                        committed1 = committed_read(rs1)
            if reads_rs2:
                if rs2 == ZERO:
                    committed2 = 0
                else:
                    producer2 = renamer.lookup(rs2)
                    if producer2 is None:
                        committed2 = committed_read(rs2)
        seq = self._seq
        vidx = gseq * self.redundancy
        copies = group.copies
        for copy in range(self.redundancy):
            entry = RobEntry(seq, vidx + copy, group, copy)
            seq += 1
            copies.append(entry)
            if inert:
                # Nothing to execute: completes at dispatch.
                entry.state = DONE
                entry.next_pc = group.pc + (0 if kind == _K_HALT else 1)
                group.done_count += 1
                continue
            if reads_rs1:
                if producer1 is None:
                    entry.src_vals[0] = committed1
                else:
                    producer = producer1.copies[copy]
                    entry.src_tags = [producer.vidx, None]
                    if producer.state == DONE:
                        entry.src_vals[0] = producer.value
                    else:
                        entry.pending += 1
                        waiters = producer.dependents
                        if waiters is None:
                            producer.dependents = [(entry, 0)]
                        else:
                            waiters.append((entry, 0))
            if reads_rs2:
                if producer2 is None:
                    entry.src_vals[1] = committed2
                else:
                    producer = producer2.copies[copy]
                    tags = entry.src_tags
                    if type(tags) is list:
                        tags[1] = producer.vidx
                    else:
                        entry.src_tags = [None, producer.vidx]
                    if producer.state == DONE:
                        entry.src_vals[1] = producer.value
                    else:
                        entry.pending += 1
                        waiters = producer.dependents
                        if waiters is None:
                            producer.dependents = [(entry, 1)]
                        else:
                            waiters.append((entry, 1))
            entry.state = READY if entry.pending == 0 else WAITING
        self._seq = seq
        if arms:
            for copy, kind, bit, op_fault, site in arms:
                entry = copies[copy]
                entry.fault_kind = kind
                entry.fault_bit = bit
                entry.op_fault = op_fault
                entry.site = site
        # Register the destination mapping once per group (copy 0's tag;
        # the offset rule recovers the other copies).
        if info.writes_reg and inst.rd != ZERO:
            self.renamer.set_dest(inst.rd, group)
        return group
