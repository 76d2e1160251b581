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
from .rob import DONE, NO_TAGS, READY, WAITING, RobEntry

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

    def build_group(self, group, cycle):
        """Replicate one fetched group into its R copies.

        Numbers ``group`` and builds each copy, with its state and
        captured operands, in one constructor call.
        """
        gseq = self._gseq
        group.gseq = gseq
        group.dispatch_cycle = cycle
        self._gseq = gseq + 1
        arms = None
        policy = self.policy
        if policy is not None and gseq >= policy.next_group:
            # Before the copies exist: a pc strike rewrites group.pc,
            # which inert copies read below.
            arms = policy.strike(group, cycle, self.stats)

        inst = group.inst
        meta = group.meta
        info = meta.info if meta is not None else inst.info
        kind = info.kind
        redundancy = self.redundancy
        seq = self._seq
        self._seq = seq + redundancy
        vidx = gseq * redundancy
        copies = group.copies
        append = copies.append
        if kind == _K_NOP or kind == _K_HALT:
            # Nothing to execute: completes at dispatch.
            next_pc = group.pc + (0 if kind == _K_HALT else 1)
            for copy in range(redundancy):
                entry = RobEntry(seq + copy, vidx + copy, group, copy, DONE)
                entry.next_pc = next_pc
                append(entry)
            group.done_count = redundancy
        else:
            # Producer lookup is per-group work: all copies of a
            # consumer read from the same producer *group* (copy k reads
            # copy k).
            producer1 = producer2 = None
            committed1 = committed2 = 0
            renamer = self.renamer
            if info.reads_rs1:
                rs1 = inst.rs1
                if rs1 != ZERO:
                    producer1 = renamer.lookup(rs1)
                    if producer1 is None:
                        committed1 = self.committed_read(rs1)
            if info.reads_rs2:
                rs2 = inst.rs2
                if rs2 != ZERO:
                    producer2 = renamer.lookup(rs2)
                    if producer2 is None:
                        committed2 = self.committed_read(rs2)
            if producer1 is None and producer2 is None:
                for copy in range(redundancy):
                    append(RobEntry(seq + copy, vidx + copy, group, copy,
                                    READY, committed1, committed2))
            else:
                for copy in range(redundancy):
                    a = committed1
                    b = committed2
                    pending = 0
                    tags = NO_TAGS
                    if producer1 is not None:
                        first = producer1.copies[copy]
                        tags = [first.vidx, None]
                        if first.state == DONE:
                            a = first.value
                        else:
                            pending = 1
                    if producer2 is not None:
                        second = producer2.copies[copy]
                        if tags is NO_TAGS:
                            tags = [None, second.vidx]
                        else:
                            tags[1] = second.vidx
                        if second.state == DONE:
                            b = second.value
                        else:
                            pending += 1
                    entry = RobEntry(seq + copy, vidx + copy, group, copy,
                                     WAITING if pending else READY, a, b,
                                     pending, tags)
                    append(entry)
                    if not pending:
                        continue
                    # Copy k waits on copy k, operand 0 registered first.
                    if producer1 is not None and first.state != DONE:
                        waiters = first.dependents
                        if waiters is None:
                            first.dependents = [(entry, 0)]
                        else:
                            waiters.append((entry, 0))
                    if producer2 is not None and second.state != DONE:
                        waiters = second.dependents
                        if waiters is None:
                            second.dependents = [(entry, 1)]
                        else:
                            waiters.append((entry, 1))
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
