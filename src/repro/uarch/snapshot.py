"""Whole-machine snapshot/restore for checkpointed fast-forward.

A :class:`ProcessorSnapshot` captures every piece of mutable state a
:class:`~repro.uarch.processor.Processor` owns — architectural state,
cache/predictor/BTB/RAS contents, the in-flight ROB group graph, LSQ,
ready queues, scheduled writeback events, statistics and sequence
counters — deeply enough that restoring it into a freshly constructed
processor and continuing the run is cycle-for-cycle, stat-for-stat
identical to never having stopped (the checkpoint-equivalence suite
pins this).

The group/entry graph is cloned with an explicit two-pass worklist
(collect every reachable ``Group``/``RobEntry``, then allocate shells
and fill fields through an identity memo) instead of ``copy.deepcopy``:
the graph is cyclic (entries point at their group, producers at their
dependents), dependency chains can exceed the recursion limit, and
deepcopy's per-object dispatch is an order of magnitude slower.

Shared immutable objects are *not* copied: decoded-instruction
metadata, :class:`~repro.uarch.fetch.FetchRecord` instances (never
mutated after fetch) and RAS snapshot tuples are reference-shared
between the live machine and the snapshot.  A snapshot therefore only
restores correctly in the same process, onto a processor built from
the *same* :class:`~repro.program.image.Program` object — exactly the
per-worker cache regime of :mod:`repro.campaign.checkpoint`.

Main memory is stored as a diff: only the cells in
``MainMemory.written``, the one set of cells that can differ from the
program's data image (the same fact golden-state comparison relies
on).  Restoring applies that diff over the fresh processor's image, so
a snapshot costs a few dozen words of memory instead of the full
64Ki-word array.
"""

from __future__ import annotations

from collections import deque

from ..core.rob import Group, RobEntry

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


def _collect_groups(processor):
    """Every Group reachable from the machine's mutable structures.

    Live groups sit in the ROB deque, but scheduled events and
    dependents lists can still reference groups squashed out of it, so
    the closure is computed with a worklist over group references.
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
                push(payload.group)
            else:                         # load value: (group, value, miss)
                push(payload[0])
    while stack:
        group = stack.pop()
        if group.block_on is not None:
            push(group.block_on)
        for entry in group.copies:
            dependents = entry.dependents
            if dependents:
                for dependent, _slot in dependents:
                    push(dependent.group)
    return ordered


def _clone_graph(groups):
    """Clone a closed set of groups; returns (clones, identity memo).

    The memo maps ``id()`` of every source Group/RobEntry to its clone
    so cross-references (copies, dependents, LSQ membership, event
    payloads) land on the cloned objects.  The memo is only ever used
    for lookup, never iterated, so identity keys cannot leak ordering.
    """
    memo = {}
    clones = []
    for group in groups:
        clone = Group.__new__(Group)
        memo[id(group)] = clone           # repro-lint: disable=determinism
        clones.append(clone)
        for entry in group.copies:
            memo[id(entry)] = RobEntry.__new__(RobEntry)  # repro-lint: disable=determinism
    for group, clone in zip(groups, clones):
        for name in _GROUP_SCALARS:
            setattr(clone, name, getattr(group, name))
        block_on = group.block_on
        if block_on is None:
            clone.block_on = None
        else:
            clone.block_on = memo[id(block_on)]  # repro-lint: disable=determinism
        copies = []
        for entry in group.copies:
            twin = memo[id(entry)]        # repro-lint: disable=determinism
            for name in _ENTRY_SCALARS:
                setattr(twin, name, getattr(entry, name))
            twin.group = clone
            twin.src_vals = list(entry.src_vals)
            tags = entry.src_tags
            # NO_TAGS is a shared immutable tuple; private lists copy.
            twin.src_tags = list(tags) if type(tags) is list else tags
            dependents = entry.dependents
            if dependents:
                twin.dependents = [
                    (memo[id(dependent)], slot)  # repro-lint: disable=determinism
                    for dependent, slot in dependents]
            else:
                twin.dependents = dependents
            copies.append(twin)
        clone.copies = copies
    return memo


def _map_events(events, memo):
    mapped = {}
    for cycle, bucket in events.items():
        out = []
        for kind, payload in bucket:
            if kind == 0:
                out.append((kind, memo[id(payload)]))  # repro-lint: disable=determinism
            else:
                group, value, was_miss = payload
                out.append((kind, (memo[id(group)], value, was_miss)))  # repro-lint: disable=determinism
        mapped[cycle] = out
    return mapped


class _MachineState:
    """One deep-cloned image of a processor's mutable state."""

    __slots__ = (
        "groups", "lsq", "pending_loads", "ready_queues", "events",
        "ifq", "regs", "arch_pc", "arch_halted", "mem_cells",
        "mem_reads", "mem_writes", "cache_state",
        "memory_accesses", "fetch_pc", "fetch_stall_until",
        "fetch_halted", "bimodal_table", "bimodal_lookups",
        "twolevel_histories", "twolevel_counters", "twolevel_lookups",
        "meta_table", "combined_lookups", "btb_sets", "btb_lookups",
        "btb_hits", "ras_stack", "ras_top", "ras_occupancy",
        "ras_pushes", "ras_pops", "fu_state", "stats", "stats_extras",
        "gseq", "seq", "checker_checks", "checker_mismatches",
        "recovery_rewinds", "recovery_majority", "recovery_open_cycle",
        "recovery_cycles", "committed_next_pc", "outstanding_misses",
        "cycle", "halted", "rob_entries", "ports_used",
        "last_commit_cycle")


def _capture_state(processor):
    """Deep-clone ``processor``'s mutable state into a _MachineState."""
    groups = _collect_groups(processor)
    memo = _clone_graph(groups)
    state = _MachineState()
    state.groups = [memo[id(group)] for group in processor.groups]  # repro-lint: disable=determinism
    state.lsq = [memo[id(group)] for group in processor.lsq]  # repro-lint: disable=determinism
    state.pending_loads = [memo[id(group)]  # repro-lint: disable=determinism
                           for group in processor.pending_loads]
    state.ready_queues = [
        [(seq, memo[id(entry)]) for seq, entry in queue]  # repro-lint: disable=determinism
        for queue in processor.ready_queues]
    state.events = _map_events(processor.events, memo)
    state.ifq = list(processor.ifq)       # FetchRecords are immutable

    arch = processor.arch
    state.regs = list(arch.regs)
    state.arch_pc = arch.pc
    state.arch_halted = arch.halted
    memory = arch.memory
    # The written cells only: every other cell still holds the data
    # image a fresh processor of the same program starts from.
    cells = memory._cells
    state.mem_cells = {index: cells[index]
                       for index in sorted(memory.written)}
    state.mem_reads = memory.reads
    state.mem_writes = memory.writes

    hierarchy = processor.hierarchy
    state.cache_state = [
        ({index: dict(ways) for index, ways in cache._sets.items()},
         cache.hits, cache.misses, cache.evictions, cache.writebacks)
        for cache in (hierarchy.il1, hierarchy.dl1, hierarchy.l2)]
    state.memory_accesses = hierarchy.memory_timing.accesses

    fetch = processor.fetch_unit
    state.fetch_pc = fetch.pc
    state.fetch_stall_until = fetch.stall_until
    state.fetch_halted = fetch.halted
    predictor = fetch.predictor
    bimodal = predictor.bimodal
    twolevel = predictor.twolevel
    state.bimodal_table = list(bimodal._table)
    state.bimodal_lookups = bimodal.lookups
    state.twolevel_histories = list(twolevel._histories)
    state.twolevel_counters = list(twolevel._counters)
    state.twolevel_lookups = twolevel.lookups
    state.meta_table = list(predictor._meta)
    state.combined_lookups = predictor.lookups
    btb = fetch.btb
    state.btb_sets = {index: dict(ways)
                      for index, ways in btb._sets.items()}
    state.btb_lookups = btb.lookups
    state.btb_hits = btb.hits
    ras = fetch.ras
    state.ras_stack = list(ras._stack)
    state.ras_top = ras._top
    state.ras_occupancy = ras._occupancy
    state.ras_pushes = ras.pushes
    state.ras_pops = ras.pops

    state.fu_state = [
        (list(pool._busy_until), pool.issued_ops, pool.busy_cycles)
        for pool in processor.fus.pools.values()]

    stats = processor.stats
    state.stats = [getattr(stats, name) for name in _STATS_FIELDS]
    state.stats_extras = {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in stats.extras.items()}

    replicator = processor.replicator
    state.gseq = replicator._gseq
    state.seq = replicator._seq
    checker = processor.checker
    state.checker_checks = checker.checks
    state.checker_mismatches = checker.mismatches
    recovery = processor.recovery
    state.recovery_rewinds = recovery.rewinds
    state.recovery_majority = recovery.majority_commits
    state.recovery_open_cycle = recovery._open_rewind_cycle
    state.recovery_cycles = recovery.recovery_cycles

    state.committed_next_pc = processor.committed_next_pc
    state.outstanding_misses = processor._outstanding_misses
    state.cycle = processor.cycle
    state.halted = processor.halted
    state.rob_entries = processor.rob_entries
    state.ports_used = processor._ports_used
    state.last_commit_cycle = processor._last_commit_cycle
    return state


class _StateView:
    """Duck-typed processor facade so a _MachineState can be re-cloned.

    ``_capture_state`` reads a processor through a fixed attribute
    surface; this view exposes a stored state through the same surface,
    letting every restore stamp out a fresh mutable copy of the frozen
    snapshot with the exact same cloning code.
    """

    class _Wrap:
        def __init__(self, **attrs):
            self.__dict__.update(attrs)

    def __init__(self, state):
        wrap = self._Wrap
        self.groups = state.groups
        self.lsq = state.lsq
        self.pending_loads = state.pending_loads
        self.ready_queues = state.ready_queues
        self.events = state.events
        self.ifq = state.ifq
        memory = wrap(_cells=state.mem_cells, written=state.mem_cells,
                      reads=state.mem_reads, writes=state.mem_writes)
        self.arch = wrap(regs=state.regs, pc=state.arch_pc,
                         halted=state.arch_halted, memory=memory)
        caches = [wrap(_sets=sets, hits=hits, misses=misses,
                       evictions=evictions, writebacks=writebacks)
                  for sets, hits, misses, evictions, writebacks
                  in state.cache_state]
        self.hierarchy = wrap(
            il1=caches[0], dl1=caches[1], l2=caches[2],
            memory_timing=wrap(accesses=state.memory_accesses))
        predictor = wrap(
            bimodal=wrap(_table=state.bimodal_table,
                         lookups=state.bimodal_lookups),
            twolevel=wrap(_histories=state.twolevel_histories,
                          _counters=state.twolevel_counters,
                          lookups=state.twolevel_lookups),
            _meta=state.meta_table, lookups=state.combined_lookups)
        self.fetch_unit = wrap(
            pc=state.fetch_pc, stall_until=state.fetch_stall_until,
            halted=state.fetch_halted, predictor=predictor,
            btb=wrap(_sets=state.btb_sets, lookups=state.btb_lookups,
                     hits=state.btb_hits),
            ras=wrap(_stack=state.ras_stack, _top=state.ras_top,
                     _occupancy=state.ras_occupancy,
                     pushes=state.ras_pushes, pops=state.ras_pops))
        self.fus = wrap(pools={
            index: wrap(_busy_until=busy, issued_ops=issued,
                        busy_cycles=busy_cycles)
            for index, (busy, issued, busy_cycles)
            in enumerate(state.fu_state)})
        stats_view = wrap(extras=state.stats_extras)
        for name, value in zip(_STATS_FIELDS, state.stats):
            setattr(stats_view, name, value)
        self.stats = stats_view
        self.replicator = wrap(_gseq=state.gseq, _seq=state.seq)
        self.checker = wrap(checks=state.checker_checks,
                            mismatches=state.checker_mismatches)
        self.recovery = wrap(rewinds=state.recovery_rewinds,
                             majority_commits=state.recovery_majority,
                             _open_rewind_cycle=state.recovery_open_cycle,
                             recovery_cycles=state.recovery_cycles)
        self.committed_next_pc = state.committed_next_pc
        self._outstanding_misses = state.outstanding_misses
        self.cycle = state.cycle
        self.halted = state.halted
        self.rob_entries = state.rob_entries
        self._ports_used = state.ports_used
        self._last_commit_cycle = state.last_commit_cycle


class ProcessorSnapshot:
    """A frozen image of one processor, restorable many times over."""

    __slots__ = ("program", "instructions", "dispatched_groups", "cycle",
                 "_state")

    def __init__(self, processor):
        self.program = processor.program
        self._state = _capture_state(processor)
        self.instructions = processor.stats.instructions
        self.dispatched_groups = processor.stats.dispatched_groups
        self.cycle = processor.cycle

    def restore_into(self, processor):
        """Overwrite ``processor``'s mutable state with this snapshot.

        ``processor`` must be freshly constructed from the same program
        object and an equivalent machine configuration; its policy
        (absent from the snapshot) is kept as built.
        Every call re-clones the frozen state, so one snapshot serves
        any number of restores.
        """
        if processor.program is not self.program:
            raise ValueError(
                "snapshot restore requires the identical Program object "
                "(decoded metadata is reference-shared)")
        if processor.cycle != 0 or processor.arch.memory.written:
            # The memory diff is applied over the target's own image,
            # so cells a stepped processor stored would silently stay.
            raise ValueError(
                "snapshot restore requires a freshly constructed "
                "processor (this one is at cycle %d with %d written "
                "memory cells)" % (processor.cycle,
                                   len(processor.arch.memory.written)))
        state = _capture_state(_StateView(self._state))

        # The in-flight window: the groups deque is mutated in place
        # because AssociativeRenamer aliases the same deque object.
        processor.groups.clear()
        processor.groups.extend(state.groups)
        processor.renamer.rebuild(processor.groups)
        processor.lsq._queue = deque(state.lsq)
        processor.pending_loads = state.pending_loads
        processor.ready_queues = state.ready_queues
        processor.events = state.events
        processor.ifq = deque(state.ifq)

        arch = processor.arch
        arch.regs = state.regs
        arch.pc = state.arch_pc
        arch.halted = state.arch_halted
        memory = arch.memory
        cells = memory._cells
        for index, value in state.mem_cells.items():
            cells[index] = value
        memory.written = set(state.mem_cells)
        memory.reads = state.mem_reads
        memory.writes = state.mem_writes

        hierarchy = processor.hierarchy
        for cache, (sets, hits, misses, evictions, writebacks) in zip(
                (hierarchy.il1, hierarchy.dl1, hierarchy.l2),
                state.cache_state):
            cache._sets = sets
            cache.hits = hits
            cache.misses = misses
            cache.evictions = evictions
            cache.writebacks = writebacks
        hierarchy.memory_timing.accesses = state.memory_accesses

        fetch = processor.fetch_unit
        fetch.pc = state.fetch_pc
        fetch.stall_until = state.fetch_stall_until
        fetch.halted = state.fetch_halted
        predictor = fetch.predictor
        predictor.bimodal._table = state.bimodal_table
        predictor.bimodal.lookups = state.bimodal_lookups
        predictor.twolevel._histories = state.twolevel_histories
        predictor.twolevel._counters = state.twolevel_counters
        predictor.twolevel.lookups = state.twolevel_lookups
        predictor._meta = state.meta_table
        predictor.lookups = state.combined_lookups
        btb = fetch.btb
        btb._sets = state.btb_sets
        btb.lookups = state.btb_lookups
        btb.hits = state.btb_hits
        ras = fetch.ras
        ras._stack = state.ras_stack
        ras._top = state.ras_top
        ras._occupancy = state.ras_occupancy
        ras.pushes = state.ras_pushes
        ras.pops = state.ras_pops

        for pool, (busy, issued, busy_cycles) in zip(
                processor.fus.pools.values(), state.fu_state):
            pool._busy_until = busy
            pool.issued_ops = issued
            pool.busy_cycles = busy_cycles

        stats = processor.stats
        for name, value in zip(_STATS_FIELDS, state.stats):
            setattr(stats, name, value)
        stats.extras = state.stats_extras

        processor.replicator._gseq = state.gseq
        processor.replicator._seq = state.seq
        processor.checker.checks = state.checker_checks
        processor.checker.mismatches = state.checker_mismatches
        recovery = processor.recovery
        recovery.rewinds = state.recovery_rewinds
        recovery.majority_commits = state.recovery_majority
        recovery._open_rewind_cycle = state.recovery_open_cycle
        recovery.recovery_cycles = state.recovery_cycles

        processor.committed_next_pc = state.committed_next_pc
        processor._outstanding_misses = state.outstanding_misses
        processor.cycle = state.cycle
        processor.halted = state.halted
        processor.rob_entries = state.rob_entries
        processor._ports_used = state.ports_used
        processor._last_commit_cycle = state.last_commit_cycle
        return processor
