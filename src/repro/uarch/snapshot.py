"""Whole-machine snapshots ("rungs") and the normalized state digest.

:func:`digest_parts` encodes every piece of mutable state a
:class:`~repro.uarch.processor.Processor` owns, in three parts:
committed state and machine scalars, the in-flight window, then
caches, predictor, BTB and RAS.  The encoding is normalized so that
two machines on the same trajectory at different times encode equal:
cycle numbers are taken relative to ``processor.cycle``, group and
entry ages relative to the next ones the replicator hands out, a
release time that has passed reads as 0, heaps are sorted and static
instructions go by opcode and operands.  Running totals (statistics,
cache/predictor/BTB/RAS counters, FU and memory counts) are left out,
because the early exit of :mod:`repro.campaign.checkpoint` splices
them instead of comparing them.  Each part is marshalled and hashed.

A :class:`ProcessorSnapshot`, a rung of a cell's checkpoint ladder,
keeps those three encoded parts plus a fourth that the digest leaves
out (the running totals and the cycle, ``gseq`` and ``seq`` bases) as
one zlib-compressed bytes blob.  Its digest is the hash of the parts
it keeps, so one description of machine state, the field tables
below, serves both comparing and restoring.

:meth:`ProcessorSnapshot.restore_into` decodes fresh objects on every
call.  Normalized fields are shifted back by the snapshot's bases, and
a passed FU busy time or fetch stall comes back as the snapshot's
cycle: both are only ever tested ``release <= now``.  Restoring with a
shift offsets those bases and keeps the target's running totals, which
is how a struck run re-enters its cell's fault-free run.  Static
instructions come from the target processor's own decode table, so
the target needs an equal program, not the identical object.
Restoring into a freshly built processor and running on is
cycle-for-cycle, stat-for-stat identical to never having stopped (the
snapshot property suite pins this).

Main memory is kept as the written cells only: ``MainMemory.written``
is the one set of cells that can differ from the program's data image
(the same fact golden-state comparison relies on), and a restore
applies them over the fresh processor's image.
"""

from __future__ import annotations

import hashlib
import marshal
import zlib
from collections import deque
from operator import attrgetter

from ..core.rob import NO_TAGS, Group, RobEntry

_GROUP_SCALARS = (
    "gseq", "pc", "inst", "meta", "pred_npc", "pred_taken", "ras_snap",
    "resolved", "resolved_npc", "done_count", "load_value",
    "value_ready", "value_cycle", "mem_issued", "fetch_cycle",
    "dispatch_cycle", "squashed", "is_load", "is_store", "is_mem",
    "is_control", "block_mode")

_ENTRY_SCALARS = (
    "seq", "vidx", "copy", "state", "pending", "value", "addr",
    "store_val", "next_pc", "issue_cycle", "done_cycle", "fu_unit",
    "agen_done", "fault_kind", "fault_bit", "fault_applied", "op_fault",
    "site", "squashed")

_STATS_FIELDS = (
    "cycles", "instructions", "entries_committed", "fetched",
    "dispatched_groups", "dispatched_entries", "issued",
    "loads_executed", "stores_committed", "store_forwards",
    "branches_committed", "branch_mispredicts", "jumps_committed",
    "indirect_mispredicts", "faults_injected", "faults_detected",
    "rewinds", "majority_commits", "pc_continuity_violations",
    "silent_commits", "crashed", "recovery_cycles", "rob_occupancy_sum",
    "ifq_occupancy_sum")

#: The running sums among the PipelineStats fields: all but the crash
#: flag.
STATS_SUMS = tuple(name for name in _STATS_FIELDS if name != "crashed")

# How the encoding normalizes the fields of the tables above; any other
# field is kept as it is.
#: Fields taken relative to a base, by the base's position in
#: ``(cycle, gseq, seq, vidx)``: cycle numbers to ``processor.cycle``;
#: group ages, entry ages and virtual ROB indices (``gseq * R + copy``)
#: to the next ones the replicator hands out.
_RELATIVE_FIELDS = {
    "value_cycle": 0, "fetch_cycle": 0, "dispatch_cycle": 0,
    "issue_cycle": 0, "done_cycle": 0, "gseq": 1, "seq": 2, "vidx": 3}
#: Static instructions (``Instruction`` or ``DecodedInst``), by their
#: opcode and operands.
_INST_FIELDS = frozenset(("inst", "meta"))


def _collect_groups(processor):
    """Every dispatched, unsquashed Group reachable from the machine's
    mutable structures.

    Live groups sit in the ROB deque, and a load's blocked-on memo can
    still name a store that retired since, so the closure is computed
    with a worklist over group references.  A squashed leftover is left
    out: all it still does is fire its stale event, which the events
    part encodes (see :func:`_window_part`).
    """
    seen = set()
    ordered = []
    stack = []

    def push(group):
        marker = id(group)     # repro-lint: disable=determinism
        if marker not in seen:
            seen.add(marker)
            ordered.append(group)
            stack.append(group)

    for group in processor.groups:
        push(group)
    for group in processor.lsq:
        push(group)
    for group in processor.pending_loads:
        push(group)
    for queue in processor.ready_queues:
        for _seq, entry in queue:
            push(entry.group)
    for bucket in processor.events.values():
        for kind, payload in bucket:
            if kind == 0:                 # _EVENT_EXEC: payload = entry
                if not payload.squashed:
                    push(payload.group)
            else:                         # load value: (group, value, miss)
                group = payload[0]
                if not group.squashed:
                    push(group)
    while stack:
        group = stack.pop()
        if group.block_on is not None:
            push(group.block_on)
        for entry in group.copies:
            dependents = entry.dependents
            if dependents:
                for dependent, _slot in dependents:
                    if not dependent.squashed:
                        push(dependent.group)
    return ordered


def _inst_key(inst):
    return (int(inst.op), inst.rd, inst.rs1, inst.rs2, inst.imm)


def _compile(name, params, lines):
    namespace = {}
    exec("def %s(%s):\n    %s" % (name, params, "\n    ".join(lines)),
         namespace)
    return namespace[name]


class _FieldPlan:
    """The normalized fields of one field table.

    ``row(obj, bases)`` reads ``obj``'s fields, normalized against
    ``bases``, into a list; ``fill(obj, row, bases, decode)`` sets them
    back.  Both are generated as straight-line code, the way dataclasses
    generate ``__init__``: a digest reads and a restore sets every field
    of every in-flight object, and a loop over the fields costs several
    times as much.
    """

    def __init__(self, fields):
        reads = []
        cells = []
        sets = []
        for index, name in enumerate(fields):
            cell = "row[%d]" % index
            if name in _RELATIVE_FIELDS:
                base = _RELATIVE_FIELDS[name]
                reads.append("v%d = obj.%s" % (index, name))
                cells.append("None if v%d is None else v%d - bases[%d]"
                             % (index, index, base))
                cell = "None if %s is None else %s + bases[%d]" % (
                    cell, cell, base)
            elif name in _INST_FIELDS:
                # The key of _inst_key, inline.
                reads.append("v%d = obj.%s" % (index, name))
                cells.append("None if v%d is None else (int(v%d.op), "
                             "v%d.rd, v%d.rs1, v%d.rs2, v%d.imm)"
                             % ((index,) * 6))
                cell = "None if %s is None else decode(%s, row[%d], %r)" % (
                    cell, cell, fields.index("pc"), name)
            else:
                cells.append("obj.%s" % name)
            sets.append("obj.%s = %s" % (name, cell))
        self.row = _compile("row", "obj, bases",
                            reads + ["return [%s]" % ", ".join(cells)])
        self.fill = _compile("fill", "obj, row, bases, decode", sets)


_GROUP_PLAN = _FieldPlan(_GROUP_SCALARS)
_ENTRY_PLAN = _FieldPlan(_ENTRY_SCALARS)
_GSEQ = attrgetter("gseq")


class _Decoder:
    """Static instructions by key, from a processor's own decode table:
    the entry at the recorded pc when it matches (every fetched
    instruction), else any entry that does (a group whose pc a strike
    rewrote)."""

    def __init__(self, decoded):
        self.decoded = decoded
        self.by_key = None

    def __call__(self, key, pc, name):
        decoded = self.decoded
        if 0 <= pc < len(decoded) and _inst_key(decoded[pc]) == key:
            meta = decoded[pc]
        else:
            if self.by_key is None:
                self.by_key = {_inst_key(entry): entry for entry in decoded}
            meta = self.by_key.get(key)
            if meta is None:
                raise ValueError("snapshot instruction %r is not in the "
                                 "target's program" % (key,))
        return meta if name == "meta" else meta.inst


def _stale(release, cycle):
    """A release cycle relative to ``cycle``, or 0 once it has passed.
    Functional units and fetch only test ``release <= now``, so past
    releases cannot be told apart."""
    return release - cycle if release > cycle else 0


def _arch_part(processor, cycle):
    """Committed state plus the machine's scalar registers."""
    arch = processor.arch
    memory = arch.memory
    cells = memory._cells
    fetch = processor.fetch_unit
    open_rewind = processor.recovery._open_rewind_cycle
    return (
        ("regs", arch.regs),
        ("arch_pc", arch.pc),
        ("arch_halted", arch.halted),
        ("mem_cells", [(index, cells[index])
                       for index in sorted(memory.written)]),
        ("committed_next_pc", processor.committed_next_pc),
        ("halted", processor.halted),
        ("fetch_pc", fetch.pc),
        ("fetch_stall_until", _stale(fetch.stall_until, cycle)),
        ("fetch_halted", fetch.halted),
        ("outstanding_misses", processor._outstanding_misses),
        ("rob_entries", processor.rob_entries),
        ("ports_used", processor._ports_used),
        ("last_commit_cycle", processor._last_commit_cycle - cycle),
        ("recovery_open_cycle",
         None if open_rewind is None else open_rewind - cycle))


def _window_part(processor, cycle):
    """The in-flight window: every reachable group and entry, the
    structures that order them, scheduled events, the fetched groups
    in the IFQ and FU busy times.

    A squashed leftover shows only as what it still does: its stale
    event's wake-up time, and whether a stale load fill frees an MSHR.
    """
    replicator = processor.replicator
    gseq = replicator._gseq
    seq = replicator._seq
    vidx = gseq * processor.redundancy
    bases = (cycle, gseq, seq, vidx)
    groups = _collect_groups(processor)
    groups.sort(key=_GSEQ)
    graph = []
    for group in groups:
        row = _GROUP_PLAN.row(group, bases)
        block_on = group.block_on
        row.append(None if block_on is None else block_on.gseq - gseq)
        for entry in group.copies:
            cells = _ENTRY_PLAN.row(entry, bases)
            cells.append(entry.src_vals)
            cells.append([None if tag is None else tag - vidx
                          for tag in entry.src_tags])
            dependents = entry.dependents
            cells.append(None if dependents is None else [
                (dependent.seq - seq, slot)
                for dependent, slot in dependents if not dependent.squashed])
            row.append(cells)
        graph.append(row)
    events = processor.events
    timeline = []
    for when in sorted(events):
        bucket = []
        for kind, payload in events[when]:
            if kind == 0:                 # _EVENT_EXEC: payload = entry
                bucket.append(None if payload.squashed
                              else payload.seq - seq)
            else:                         # load value: (group, value, miss)
                group, value, was_miss = payload
                bucket.append((None, None, was_miss) if group.squashed
                              else (group.gseq - gseq, value, was_miss))
        timeline.append((when - cycle, bucket))
    return (
        ("groups", (graph, [group.gseq - gseq
                            for group in processor.groups])),
        ("lsq", [group.gseq - gseq for group in processor.lsq]),
        ("pending_loads", [group.gseq - gseq
                           for group in processor.pending_loads]),
        # Heap layout depends on push order, but pops only on the
        # (unique) seqs a queue holds.
        ("ready_queues", [sorted(item[0] - seq for item in queue)
                          for queue in processor.ready_queues]),
        ("events", timeline),
        ("ifq", [_GROUP_PLAN.row(group, bases)
                 for group in processor.ifq]),
        ("fu_state", [[_stale(busy, cycle) for busy in pool._busy_until]
                      for pool in processor.fus.pools.values()]))


def _sets(sets):
    """Cache or BTB sets by index, each in its own LRU order."""
    return sorted((index, list(ways.items()))
                  for index, ways in sets.items() if ways)


def _table_part(processor, cycle):
    """Caches, branch predictor, BTB and RAS contents."""
    hierarchy = processor.hierarchy
    fetch = processor.fetch_unit
    predictor = fetch.predictor
    ras = fetch.ras
    return (
        ("cache_state", [_sets(cache._sets) for cache in
                         (hierarchy.il1, hierarchy.dl1, hierarchy.l2)]),
        ("bimodal_table", predictor.bimodal._table),
        ("twolevel_histories", predictor.twolevel._histories),
        ("twolevel_counters", predictor.twolevel._counters),
        ("meta_table", predictor._meta),
        ("btb_sets", _sets(fetch.btb._sets)),
        ("ras_stack", ras._stack),
        ("ras_top", ras._top),
        ("ras_occupancy", ras._occupancy))


def _totals_part(processor, cycle):
    """What the digest leaves out: the bases its cycles and ages are
    relative to, and every running total."""
    replicator = processor.replicator
    memory = processor.arch.memory
    hierarchy = processor.hierarchy
    fetch = processor.fetch_unit
    predictor = fetch.predictor
    stats = processor.stats
    checker = processor.checker
    recovery = processor.recovery
    return (
        ("cycle", cycle),
        ("gseq", replicator._gseq),
        ("seq", replicator._seq),
        ("memory_counts", (memory.reads, memory.writes,
                           hierarchy.memory_timing.accesses)),
        ("cache_counts", [(cache.hits, cache.misses, cache.evictions,
                           cache.writebacks) for cache in
                          (hierarchy.il1, hierarchy.dl1, hierarchy.l2)]),
        ("branch_counts", (predictor.bimodal.lookups,
                           predictor.twolevel.lookups, predictor.lookups,
                           fetch.btb.lookups, fetch.btb.hits,
                           fetch.ras.pushes, fetch.ras.pops)),
        ("fu_counts", [(pool.issued_ops, pool.busy_cycles)
                       for pool in processor.fus.pools.values()]),
        ("stats", [getattr(stats, name) for name in _STATS_FIELDS]),
        ("stats_extras", stats.extras),
        ("commit_counts", (checker.checks, checker.mismatches,
                           recovery.rewinds, recovery.majority_commits,
                           recovery.recovery_cycles)))


#: The digest's parts, cheapest first: for a redundant machine the
#: committed state of a recovered run already matches, so the window
#: is what usually tells two runs apart.
_DIGEST_PARTS = (_arch_part, _window_part, _table_part)


def _encoded(processor, parts):
    """Each of ``parts`` of ``processor``, marshalled, one at a time."""
    cycle = processor.cycle
    for part in parts:
        # Format 2 writes no back-references, so the bytes depend on
        # the values alone, not on which objects they share; it writes
        # a float as its 8 IEEE bytes, so -0.0 differs from 0.0 and a
        # NaN keeps its payload; it keeps tuples apart from lists; and
        # it raises on objects such as enum members or instructions,
        # so a field the encoders missed cannot slip in by identity.
        yield marshal.dumps(part(processor, cycle), 2)


def _hash(encoded):
    return hashlib.blake2b(encoded, digest_size=16).digest()


def digest_parts(processor):
    """Yield the normalized state digest of ``processor``, part by part.

    Lazy, so a comparison can stop at the first part that differs.
    Two processors of the same program and machine digest equal when
    their states are equal up to a shift in cycles and ages and up to
    their running totals; such a pair continues identically, shifted.
    """
    for encoded in _encoded(processor, _DIGEST_PARTS):
        yield _hash(encoded)


def state_digest(processor):
    """The full normalized state digest (see :func:`digest_parts`)."""
    return tuple(digest_parts(processor))


class ProcessorSnapshot:
    """A rung: one processor's state as a compressed bytes blob,
    restorable any number of times."""

    __slots__ = ("program", "instructions", "dispatched_groups", "cycle",
                 "sums", "digest", "blob")

    def __init__(self, processor):
        parts = list(_encoded(processor, _DIGEST_PARTS + (_totals_part,)))
        stats = processor.stats
        self.program = processor.program
        self.instructions = stats.instructions
        self.dispatched_groups = stats.dispatched_groups
        self.cycle = processor.cycle
        #: The source's :data:`STATS_SUMS`, in order.
        self.sums = [getattr(stats, name) for name in STATS_SUMS]
        #: :func:`state_digest` of the source: the hash of each part
        #: the blob keeps, bar the totals.
        self.digest = tuple(_hash(encoded) for encoded in parts[:-1])
        self.blob = zlib.compress(marshal.dumps(parts, 2), 1)

    def decode(self):
        """The fields of every part, by name, as fresh objects."""
        fields = {}
        for encoded in marshal.loads(zlib.decompress(self.blob)):
            fields.update(marshal.loads(encoded))
        return fields

    def restore_into(self, processor, shift=None):
        """Overwrite ``processor``'s mutable state with this snapshot.

        ``processor`` must be freshly constructed from an equal program
        and an equivalent machine configuration; its policy (absent
        from the snapshot) is kept as built.

        With ``shift=(cycles, groups)``, ``processor`` is instead a run
        whose state digested equal to the source's at an earlier point
        of the source's run, offset from it by ``cycles`` cycles and
        ``groups`` dispatched groups.  The state lands with the same
        offset, and the run keeps its own running totals: statistics,
        extras and the memory, cache, predictor, FU, checker and
        recovery counters.  The equal digest makes the run's written
        memory cells a subset of the snapshot's, so they are
        overwritten like a fresh image.
        """
        program = processor.program
        if program is not self.program and program != self.program:
            raise ValueError(
                "snapshot restore requires an equal program (snapshot "
                "of %r, processor of %r)" % (self.program.name,
                                             program.name))
        if shift is None and (processor.cycle != 0
                              or processor.arch.memory.written):
            # The memory diff is applied over the target's own image,
            # so cells a stepped processor stored would silently stay.
            raise ValueError(
                "snapshot restore requires a freshly constructed "
                "processor (this one is at cycle %d with %d written "
                "memory cells)" % (processor.cycle,
                                   len(processor.arch.memory.written)))
        _restore(processor, self.decode(), shift)
        return processor


def _restore(processor, fields, shift=None):
    """Set every piece of ``processor``'s mutable state from the
    decoded ``fields`` of a snapshot: its running totals too, unless
    ``shift`` (see :meth:`ProcessorSnapshot.restore_into`) offsets the
    state and the processor keeps its own."""
    cycle = fields["cycle"]
    gseq = fields["gseq"]
    seq = fields["seq"]
    if shift is not None:
        cycles, groups = shift
        cycle += cycles
        gseq += groups
        seq += groups * processor.redundancy
    vidx = gseq * processor.redundancy
    bases = (cycle, gseq, seq, vidx)
    decode = _Decoder(processor.decoded)

    # The window: groups and entries first, then the references
    # between them, which may point either way in age.
    scalars = len(_GROUP_SCALARS)
    operands = len(_ENTRY_SCALARS)
    by_gseq = {}
    by_seq = {}
    blockers = []
    waiters = []
    graph, rob = fields["groups"]
    for row in graph:
        group = Group.__new__(Group)
        _GROUP_PLAN.fill(group, row, bases, decode)
        by_gseq[group.gseq] = group
        blockers.append((group, row[scalars]))
        copies = []
        for cells in row[scalars + 1:]:
            entry = RobEntry.__new__(RobEntry)
            _ENTRY_PLAN.fill(entry, cells, bases, decode)
            entry.group = group
            entry.src_vals = cells[operands]
            tags = cells[operands + 1]
            # Only a captured producer gives an entry its own tag list.
            entry.src_tags = NO_TAGS if tags == [None, None] else [
                None if tag is None else tag + vidx for tag in tags]
            waiters.append((entry, cells[operands + 2]))
            by_seq[entry.seq] = entry
            copies.append(entry)
        group.copies = copies
    for group, block_on in blockers:
        group.block_on = None if block_on is None \
            else by_gseq[block_on + gseq]
    for entry, dependents in waiters:
        entry.dependents = None if dependents is None else [
            (by_seq[dependent + seq], slot) for dependent, slot in dependents]

    # The groups deque is refilled in place: the renamer aliases it.
    processor.groups.clear()
    processor.groups.extend(by_gseq[age + gseq] for age in rob)
    processor.renamer.rebuild(processor.groups)
    processor.lsq._queue = deque(by_gseq[age + gseq]
                                 for age in fields["lsq"])
    processor.pending_loads = [by_gseq[age + gseq]
                               for age in fields["pending_loads"]]
    # Each queue was encoded sorted, and a sorted list is a heap.
    processor.ready_queues = [
        [(age + seq, by_seq[age + seq]) for age in queue]
        for queue in fields["ready_queues"]]
    # A stale event fires on a squashed leftover, of which it reads only
    # the squashed flag.
    leftover = Group.__new__(Group)
    leftover.squashed = True
    events = {}
    for when, bucket in fields["events"]:
        restored = []
        for item in bucket:
            if type(item) is int:
                restored.append((0, by_seq[item + seq]))
            elif item is None:
                restored.append((0, leftover))
            elif item[0] is None:
                restored.append((1, (leftover, None, item[2])))
            else:
                restored.append((1, (by_gseq[item[0] + gseq], item[1],
                                     item[2])))
        events[when + cycle] = restored
    processor.events = events
    ifq = deque()
    for row in fields["ifq"]:
        group = Group.__new__(Group)
        _GROUP_PLAN.fill(group, row, bases, decode)
        group.copies = []
        group.block_on = None
        ifq.append(group)
    processor.ifq = ifq
    pools = processor.fus.pools.values()
    for pool, busy in zip(pools, fields["fu_state"]):
        pool._busy_until = [release + cycle for release in busy]

    arch = processor.arch
    arch.regs = fields["regs"]
    arch.pc = fields["arch_pc"]
    arch.halted = fields["arch_halted"]
    memory = arch.memory
    cells = memory._cells
    written = set()
    for index, value in fields["mem_cells"]:
        cells[index] = value
        written.add(index)
    memory.written = written
    hierarchy = processor.hierarchy
    caches = (hierarchy.il1, hierarchy.dl1, hierarchy.l2)
    for cache, sets in zip(caches, fields["cache_state"]):
        cache._sets = {index: dict(ways) for index, ways in sets}

    fetch = processor.fetch_unit
    fetch.pc = fields["fetch_pc"]
    fetch.stall_until = fields["fetch_stall_until"] + cycle
    fetch.halted = fields["fetch_halted"]
    predictor = fetch.predictor
    predictor.bimodal._table = fields["bimodal_table"]
    predictor.twolevel._histories = fields["twolevel_histories"]
    predictor.twolevel._counters = fields["twolevel_counters"]
    predictor._meta = fields["meta_table"]
    btb = fetch.btb
    btb._sets = {index: dict(ways) for index, ways in fields["btb_sets"]}
    ras = fetch.ras
    ras._stack = fields["ras_stack"]
    ras._top = fields["ras_top"]
    ras._occupancy = fields["ras_occupancy"]

    processor.replicator._gseq = gseq
    processor.replicator._seq = seq
    recovery = processor.recovery
    open_rewind = fields["recovery_open_cycle"]
    recovery._open_rewind_cycle = None if open_rewind is None \
        else open_rewind + cycle
    processor.committed_next_pc = fields["committed_next_pc"]
    processor._outstanding_misses = fields["outstanding_misses"]
    processor.cycle = cycle
    processor.halted = fields["halted"]
    processor.rob_entries = fields["rob_entries"]
    processor._ports_used = fields["ports_used"]
    processor._last_commit_cycle = fields["last_commit_cycle"] + cycle
    if shift is not None:
        return

    # The running totals.
    for pool, (issued, busy_cycles) in zip(pools, fields["fu_counts"]):
        pool.issued_ops = issued
        pool.busy_cycles = busy_cycles
    memory.reads, memory.writes, hierarchy.memory_timing.accesses = \
        fields["memory_counts"]
    for cache, counts in zip(caches, fields["cache_counts"]):
        cache.hits, cache.misses, cache.evictions, cache.writebacks = \
            counts
    (predictor.bimodal.lookups, predictor.twolevel.lookups,
     predictor.lookups, btb.lookups, btb.hits, ras.pushes,
     ras.pops) = fields["branch_counts"]
    stats = processor.stats
    for name, value in zip(_STATS_FIELDS, fields["stats"]):
        setattr(stats, name, value)
    stats.extras = fields["stats_extras"]
    checker = processor.checker
    (checker.checks, checker.mismatches, recovery.rewinds,
     recovery.majority_commits, recovery.recovery_cycles) = \
        fields["commit_counts"]
