"""Reorder-buffer entries and redundant instruction groups.

Terminology (Section 3.2 of the paper):

* A **group** is one architectural instruction, dynamically replicated
  into ``R`` redundant copies.  The copies live in *consecutive, aligned*
  ROB entries; the paper derives copy *k*'s rename tag by adding offset
  *k* to copy 0's tag.  This implementation expresses the same invariant
  with object references: the rename map stores the producing *group*
  and copy *k* of a consumer always reads from copy *k* of the producer,
  keeping the R dynamic threads data-independent.
* An **entry** is one ROB slot: a single redundant copy flowing through
  rename → issue → execute → writeback, with its private result fields
  that are cross-checked at commit.
"""

from __future__ import annotations

from ..isa.opcodes import Kind

# Entry states (ints for speed in the hot loop).
WAITING = 0   # some source operand outstanding
READY = 1     # all operands captured, not yet issued
ISSUED = 2    # executing in a functional unit
DONE = 3      # result fields valid

#: Shared immutable placeholder for "no producer tags captured":
#: entries allocate a private list copy-on-write, so the common
#: committed-operand case costs no allocation.
NO_TAGS = (None, None)


class RobEntry:
    """One ROB slot: a single redundant copy of an instruction."""

    __slots__ = (
        "seq",          # global age (monotonic across the whole run)
        "vidx",         # virtual ROB index (gseq * R + copy): the paper's
                        # aligned-block index, kept for invariant checking
        "group",        # owning Group (None once retired or squashed)
        "copy",         # 0..R-1
        "state",        # WAITING / READY / ISSUED / DONE
        "pending",      # outstanding source operands
        "src_vals",     # [a, b] operand values (captured)
        "src_tags",     # [producer vidx or None] * 2, for invariants
        "dependents",   # entries waiting on this copy's value
        "value",        # result value (None if no destination)
        "addr",         # effective address (memory ops)
        "store_val",    # store data (stores)
        "next_pc",      # this copy's computed next PC
        "issue_cycle",
        "done_cycle",
        "fu_unit",      # physical unit index this copy executed on
        "agen_done",    # memory ops: address generation finished
        "fault_kind",   # None, one of core.faults.FAULT_KINDS, or
                        # "rob_value" (post-wakeup ROB-entry strike)
        "fault_bit",    # bit position the injected fault flips
        "fault_applied",  # the planned fault actually corrupted a field
        "op_fault",     # None or (operand slot, bit): source-operand
                        # strike applied at issue (rename_tag/iq_entry)
        "site",         # addressable structure name of a planned site
                        # strike (None for rate strikes)
        "squashed",
    )

    def __init__(self, seq, vidx, group, copy, state=WAITING, a=0, b=0,
                 pending=0, src_tags=NO_TAGS):
        """Dispatch builds each copy in this one call: its ``state``,
        captured operand values ``a`` and ``b``, the count of operands
        still ``pending`` and, when a producer was in flight, its own
        ``src_tags`` list."""
        self.seq = seq
        self.vidx = vidx
        self.group = group
        self.copy = copy
        self.state = state
        self.pending = pending
        self.src_vals = [a, b]
        self.src_tags = src_tags      # copy-on-write (see NO_TAGS)
        self.dependents = None        # created on first waiter
        self.value = None
        self.addr = None
        self.store_val = None
        self.next_pc = None
        self.issue_cycle = None
        self.done_cycle = None
        self.fu_unit = None
        self.agen_done = False
        self.fault_kind = None
        self.fault_bit = 0
        self.fault_applied = False
        self.op_fault = None
        self.site = None
        self.squashed = False

    def __repr__(self):
        group = self.group
        return ("<RobEntry seq=%d copy=%d %s state=%d>"
                % (self.seq, self.copy,
                   ("squashed" if self.squashed else "retired")
                   if group is None else group.inst, self.state))


class Group:
    """One architectural instruction and its R redundant copies.

    Fetch builds the group; dispatch numbers it and adds its copies.
    """

    __slots__ = (
        "gseq",           # group age (program order); None until dispatch
        "pc",             # fetch PC (shared across copies)
        "inst",
        "meta",           # DecodedInst static metadata (may be None)
        "copies",         # list of R RobEntry
        "pred_npc",       # next PC predicted at fetch
        "pred_taken",     # direction prediction (conditional branches)
        "ras_snap",       # RAS snapshot for misprediction repair
        "resolved",       # a copy has resolved control flow
        "resolved_npc",   # the first resolver's next PC (drives fetch)
        "done_count",     # completed copies
        "load_value",     # shared single memory access result
        "value_ready",    # load value arrived
        "value_cycle",
        "mem_issued",     # the single cache access has been sent
        "fetch_cycle",
        "dispatch_cycle",
        "squashed",
        # Kind flags, resolved once at construction: the commit, issue
        # and LSQ paths read them for every in-flight group every cycle.
        "is_load",
        "is_store",
        "is_mem",
        "is_control",
        # Disambiguation memo (loads): the store group this load is
        # provably blocked on, and why (see LoadStoreQueue.load_block).
        "block_on",
        "block_mode",
    )

    def __init__(self, gseq, pc, inst, pred_npc, pred_taken=False,
                 ras_snap=None, fetch_cycle=0, meta=None):
        self.gseq = gseq
        self.pc = pc
        self.inst = inst
        self.meta = meta
        self.copies = []
        self.pred_npc = pred_npc
        self.pred_taken = pred_taken
        self.ras_snap = ras_snap
        self.resolved = False
        self.resolved_npc = None
        self.done_count = 0
        self.load_value = None
        self.value_ready = False
        self.value_cycle = None
        self.mem_issued = False
        self.fetch_cycle = fetch_cycle
        self.dispatch_cycle = None
        self.squashed = False
        self.block_on = None
        self.block_mode = 0
        if meta is not None:
            self.is_load = meta.is_load
            self.is_store = meta.is_store
            self.is_mem = meta.is_mem
            self.is_control = meta.is_control
        else:
            kind = inst.info.kind
            self.is_load = kind == Kind.LOAD
            self.is_store = kind == Kind.STORE
            self.is_mem = self.is_load or self.is_store
            self.is_control = kind == Kind.BRANCH or kind == Kind.JUMP

    @property
    def redundancy(self):
        return len(self.copies)

    @property
    def complete(self):
        return self.done_count >= len(self.copies)

    def mark_squashed(self):
        """Invalidate the group and all copies (stale events check this).

        Also breaks the group <-> copy cycle, so refcounting frees the
        group once its last stale event has fired: nothing reads a
        squashed copy's group, only its ``squashed`` flag.
        """
        self.squashed = True
        for entry in self.copies:
            entry.squashed = True
            entry.dependents = None
            entry.group = None

    def __repr__(self):
        return ("<Group gseq=%d pc=%d %s done=%d/%d>"
                % (self.gseq, self.pc, self.inst, self.done_count,
                   len(self.copies)))
