"""The cycle-level out-of-order superscalar engine (hot path).

One engine serves every machine in the paper: with ``FTConfig(redundancy
=1)`` it is the stock SS-1 superscalar; with R >= 2 the dual-use
extensions of :mod:`repro.core` (replication, commit cross-checking,
rewind/majority recovery, fault injection) activate on the same
datapath.

Stage ordering within one simulated cycle (a conventional conservative
model — results written back in cycle T are visible to commit in T+1):

1. **commit** — retire whole redundant groups in program order, running
   the commit-stage cross-check and PC-continuity check;
2. **writeback** — completions scheduled for this cycle: finalize
   results, apply planned transient faults, resolve control flow, wake
   dependents, deliver the shared load value to all copies;
3. **issue** — send ready entries to functional units (age priority),
   and progress pending loads through disambiguation/forwarding/cache
   access within the D-cache port budget;
4. **dispatch** — number fetched groups and replicate each into R
   aligned ROB entries, renaming copy 0 through the map table and
   deriving the other copies' tags;
5. **fetch** — predict and fetch up to the fetch width from the
   I-cache, one :class:`~repro.core.rob.Group` per instruction.

This is the *optimized* implementation: campaign throughput is bounded
by ``step()``, so the hot structures are engineered for the Python
interpreter while staying cycle-for-cycle identical to the frozen
:class:`~repro.uarch.reference.ReferenceProcessor` (the equivalence
suite enforces byte-identical :class:`~repro.uarch.stats.
PipelineStats`).  The techniques:

* **per-class ready queues** — one age-ordered heap per functional-unit
  class instead of one global heap, so a saturated class stops costing
  pop/push churn for every one of its ready entries every cycle;
* **decoded-program metadata** — every group carries its
  :class:`~repro.program.cache.DecodedInst` (flags, latency, issue
  queue) resolved once per static instruction, not per dynamic access;
* **insertion-ordered pending loads** — the load list is kept in
  program order by construction (binary insertion) instead of being
  re-sorted every cycle;
* **event-driven cycle skipping** — when the machine is provably idle
  (nothing ready, no pending loads, head of ROB incomplete, dispatch
  structurally blocked, fetch stalled) the run loop jumps straight to
  the next interesting cycle, integrating occupancy sums over the
  skipped span.  Only :meth:`Processor.run` skips; a manual
  :meth:`Processor.step` always advances exactly one cycle.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

from ..core.config import FTConfig, UNPROTECTED
from ..core.detection import CommitChecker, _field_equal
from ..core.faults import check_mix_applicability
from ..core.recovery import ACTION_REWIND, RecoveryController
from ..core.replication import Replicator
from ..faults.policy import InjectionPolicy, RatePolicy
from ..faults.sites import count_strike
from ..errors import ConfigError, SimulationError
from ..functional.numeric import (as_float, as_int, flip_float_bit,
                                  flip_int_bit, u64, values_equal)
from ..functional.simulator import FunctionalSimulator
from ..functional.state import ArchState
from ..isa.opcodes import FuClass, Kind, Op
from ..memory.hierarchy import MemoryHierarchy
from ..memory.main_memory import MainMemory
from ..program.cache import decode_program
from .config import MachineConfig
from .fetch import FetchUnit
from .funits import FuBank
from .lsq import LoadStoreQueue
from .rename import make_renamer
from .rob import DONE, ISSUED, READY, WAITING
from .stats import PipelineStats

_EVENT_EXEC = 0
_EVENT_LOAD_VALUE = 1

# Local bindings of the hot Kind members (module-global lookup is
# cheaper than attribute access on the enum class).
_K_ALU = Kind.ALU
_K_LOAD = Kind.LOAD
_K_STORE = Kind.STORE
_K_BRANCH = Kind.BRANCH
_K_JUMP = Kind.JUMP

#: Issue-queue indices (``int(FuClass)``) the scheduler arbitrates over.
_ISSUE_CLASSES = (int(FuClass.INT_ALU), int(FuClass.INT_MULT),
                  int(FuClass.FP_ADD), int(FuClass.FP_MULT))


class Processor:
    """A simulated out-of-order superscalar processor.

    Fault injection is configured through ``policy``, any
    :class:`~repro.faults.policy.InjectionPolicy`; a Monte Carlo rate
    injector is ``policy=RatePolicy(FaultConfig(...))``.
    """

    def __init__(self, program, config=None, ft=None, policy=None):
        self.program = program
        self.config = config or MachineConfig()
        self.ft = ft or UNPROTECTED
        self.redundancy = self.ft.redundancy
        if self.config.rob_size % self.redundancy:
            raise ConfigError(
                "ROB size (%d) must be a multiple of the redundancy "
                "degree (%d)" % (self.config.rob_size, self.redundancy))

        memory = MainMemory(self.config.mem_size_words, image=program.data)
        self.arch = ArchState(memory=memory, pc=program.entry)
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.fetch_unit = FetchUnit(program, self.config, self.hierarchy)
        self.fus = FuBank(self.config)
        self.decoded = decode_program(program, self.config)

        self.groups = deque()             # in-flight groups, program order
        self.renamer = make_renamer(self.config.rename_scheme, self.groups)
        self.policy = policy
        if policy is not None:
            if not isinstance(policy, InjectionPolicy):
                raise ConfigError(
                    "policy must be an InjectionPolicy, got %r"
                    % (policy,))
            policy.bind(self.redundancy)
            policy.reset()
            if isinstance(policy, RatePolicy) \
                    and policy.config.rate_per_million > 0:
                check_mix_applicability(policy.config.kind_weights,
                                        program)
        self.stats = PipelineStats()
        self.replicator = Replicator(self.redundancy, self.renamer,
                                     self.arch.read_reg, policy,
                                     stats=self.stats)
        self.checker = CommitChecker(self.ft)
        self.recovery = RecoveryController(self.ft)
        self.lsq = LoadStoreQueue(self.config.lsq_size)
        self.ifq = deque()
        #: Age-ordered (seq, entry) heaps indexed by DecodedInst.qidx;
        #: slot 0 is unused (FuClass.NONE never issues).
        self.ready_queues = [[], [], [], [], []]
        self.events = {}                  # cycle -> [(kind, payload)]
        self.pending_loads = []           # load groups, program order
        #: Functional-unit pools indexed like ready_queues.
        self._pools = [None] + [self.fus.pools[FuClass(index)]
                                for index in _ISSUE_CLASSES]

        self.committed_next_pc = program.entry  # the ECC-protected register
        self._outstanding_misses = 0
        self.cycle = 0
        self.halted = False
        self.rob_entries = 0
        self._ports_used = 0
        self._last_commit_cycle = 0
        self._lockstep = None
        self._tracer = None

    # -- public API -------------------------------------------------------

    def enable_lockstep_check(self):
        """Verify every commit against the in-order golden model.

        The strongest correctness oracle: the committed instruction
        stream (including across fault rewinds) must match in-order
        execution exactly.
        """
        self._lockstep = FunctionalSimulator(
            self.program, mem_size=self.config.mem_size_words)

    def attach_tracer(self, tracer):
        """Record per-instruction lifecycle events into ``tracer``."""
        self._tracer = tracer

    def run(self, max_instructions=None, max_cycles=None):
        """Simulate until HALT commits or a budget is exhausted."""
        instruction_target = None
        if max_instructions is not None:
            instruction_target = self.stats.instructions + max_instructions
        stats = self.stats
        step = self.step
        skip = self._skip_idle_cycles
        while not self.halted:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            if (instruction_target is not None
                    and stats.instructions >= instruction_target):
                break
            queues = self.ready_queues
            if not (self.pending_loads or queues[1] or queues[2]
                    or queues[3] or queues[4]):
                # Only an idle issue stage can let a span be skipped.
                skip(max_cycles)
                if max_cycles is not None and self.cycle >= max_cycles:
                    break
            step()
        stats.cycles = self.cycle
        return stats

    def _skip_idle_cycles(self, max_cycles):
        """Jump over cycles where provably no pipeline state can change.

        Safe only when every stage is quiescent for the whole span:
        nothing ready to issue, no pending loads (both checked by the
        caller, :meth:`run`), the ROB head incomplete (commit blocked),
        dispatch structurally blocked (or the IFQ empty), and fetch
        stalled, halted or squeezed out by a full IFQ.  The wake-up
        cycle is the earliest of the next writeback event, the fetch
        stall release and the deadlock deadline; occupancy integrals
        are accumulated over the skipped span so :class:`PipelineStats`
        stay byte-identical to stepped execution.
        """
        groups = self.groups
        if groups:
            head = groups[0]
            if head.done_count >= len(head.copies):
                return                    # commit possible now
        config = self.config
        ifq = self.ifq
        if ifq:
            # Dispatch must stay blocked for the span: no ROB space for
            # one more group, or the head group needs a full LSQ.
            if (self.rob_entries + self.redundancy <= config.rob_size
                    and not (ifq[0].is_mem and self.lsq.full)):
                return
        fetch_unit = self.fetch_unit
        cycle = self.cycle
        wake = None
        if not fetch_unit.halted and len(ifq) < config.ifq_size:
            stall_until = fetch_unit.stall_until
            if stall_until <= cycle + 1:
                return                    # fetch is (or may be) active
            wake = stall_until
        events = self.events
        if events:
            next_event = min(events)
            if wake is None or next_event < wake:
                wake = next_event
        deadline = self._last_commit_cycle + config.deadlock_cycles + 1
        if wake is None or deadline < wake:
            wake = deadline
        target = wake - 1                 # last provably idle cycle
        if max_cycles is not None and target > max_cycles:
            target = max_cycles
        skipped = target - cycle
        if skipped <= 0:
            return
        stats = self.stats
        stats.rob_occupancy_sum += self.rob_entries * skipped
        stats.ifq_occupancy_sum += len(ifq) * skipped
        self.cycle = target

    def step(self):
        """Advance the machine by one cycle."""
        self.cycle += 1
        cycle = self.cycle
        self._ports_used = 0
        # No stage replaces either deque (a rewind clears them in place).
        groups = self.groups
        ifq = self.ifq
        if groups and groups[0].done_count >= self.redundancy:
            self._commit_stage(cycle)
            if self.halted:
                self.stats.cycles = cycle
                return
        if self.events:
            self._writeback_stage(cycle)
        queues = self.ready_queues
        if (self.pending_loads or queues[1] or queues[2] or queues[3]
                or queues[4]):
            self._issue_stage(cycle)
        if ifq:
            self._dispatch_stage(cycle)
        fetch_unit = self.fetch_unit
        if not fetch_unit.halted and cycle >= fetch_unit.stall_until:
            self._fetch_stage(cycle)
        stats = self.stats
        stats.rob_occupancy_sum += self.rob_entries
        stats.ifq_occupancy_sum += len(ifq)
        if (not groups and not ifq
                and not fetch_unit.halted
                and cycle >= fetch_unit.stall_until
                and self.program.fetch(fetch_unit.pc) is None):
            # The committed control flow has left the program: with
            # protection off, a corrupted branch can retire and strand
            # the machine on garbage addresses.  Real hardware would
            # fetch junk or trap; we record the crash and stop.
            stats.crashed = True
            self.halted = True
        if cycle - self._last_commit_cycle > self.config.deadlock_cycles:
            raise SimulationError(
                "deadlock: no commit for %d cycles (cycle=%d, rob=%d, "
                "ifq=%d, pending_loads=%d, head=%r)"
                % (self.config.deadlock_cycles, cycle, self.rob_entries,
                   len(self.ifq), len(self.pending_loads),
                   self.groups[0] if self.groups else None))

    # -- commit -----------------------------------------------------------

    def _commit_stage(self, cycle):
        groups = self.groups
        if not groups:
            return
        config = self.config
        budget = config.commit_width
        redundancy = self.redundancy
        # Commit bandwidth a group takes: one slot per copy, two with a
        # shared physical register file.
        cost = redundancy * (2 if config.shared_physical_regfile else 1)
        protected = redundancy >= 2
        check_pc = protected and self.ft.check_pc_continuity
        stats = self.stats
        while groups and budget >= cost:
            group = groups[0]
            if group.done_count < redundancy:
                break
            copies = group.copies
            if protected:
                if check_pc and group.pc != self.committed_next_pc:
                    stats.pc_continuity_violations += 1
                    stats.faults_detected += 1
                    self.recovery.rewinds += 1
                    self._begin_rewind(cycle)
                    return
                # Inline cross-check of the four fields: in the
                # fault-free common case all copies agree and no
                # CheckResult is needed.  A field agrees at once when
                # both copies hold the same object, or equal values of
                # one type that are ints or non-zero floats; anything
                # else (None, a signed zero, NaN, mixed types) takes
                # the full rule of _field_equal.
                first = copies[0]
                value = first.value
                next_pc = first.next_pc
                addr = first.addr
                store_val = first.store_val
                agree = True
                for other in copies[1:]:
                    a = other.value
                    if not (a is value or type(a) is type(value)
                            and a == value and (a or type(a) is int)) \
                            and not _field_equal(value, a):
                        agree = False
                        break
                    a = other.next_pc
                    if not (a is next_pc or type(a) is int
                            and type(next_pc) is int and a == next_pc) \
                            and not _field_equal(next_pc, a):
                        agree = False
                        break
                    a = other.addr
                    if not (a is addr or type(a) is int
                            and type(addr) is int and a == addr) \
                            and not _field_equal(addr, a):
                        agree = False
                        break
                    a = other.store_val
                    if not (a is store_val or type(a) is type(store_val)
                            and a == store_val
                            and (a or type(a) is int)) \
                            and not _field_equal(store_val, a):
                        agree = False
                        break
                if agree:
                    self.checker.checks += 1
                    representative = first
                else:
                    result = self.checker.check(group)
                    stats.faults_detected += 1
                    if self.recovery.decide(result) == ACTION_REWIND:
                        self._begin_rewind(cycle)
                        return
                    stats.majority_commits += 1
                    representative = copies[result.representative]
            else:
                representative = copies[0]
                for entry in copies:
                    if entry.fault_applied:
                        stats.silent_commits += 1
                        break
            if not self._retire_group(group, representative, cycle):
                break  # structural stall (store port); retry next cycle
            budget -= cost
            if self.halted:
                return

    def _retire_group(self, group, representative, cycle):
        """Commit one verified group; False on a store-port stall."""
        meta = group.meta
        stats = self.stats
        if group.is_store:
            if self._ports_used >= self.config.mem_ports:
                return False
            self._ports_used += 1
            self.hierarchy.store_access(representative.addr)
            self.arch.memory.store(representative.addr,
                                   representative.store_val)
            stats.stores_committed += 1
        if meta.writes_reg:
            self.arch.write_reg(meta.rd, representative.value)
            self.renamer.on_commit(meta.rd, group)
        kind = meta.kind
        if kind == _K_BRANCH:
            taken = representative.next_pc != group.pc + 1
            self.fetch_unit.train_commit(group, representative.next_pc,
                                         taken)
            stats.branches_committed += 1
            if representative.next_pc != group.pred_npc:
                stats.branch_mispredicts += 1
        elif kind == _K_JUMP:
            self.fetch_unit.train_commit(group, representative.next_pc,
                                         True)
            stats.jumps_committed += 1
            if representative.next_pc != group.pred_npc:
                stats.indirect_mispredicts += 1
        self.committed_next_pc = representative.next_pc
        self.groups.popleft()
        for entry in group.copies:
            # Break the group <-> copy cycle so refcounting frees a
            # retired group; nothing reads a retired copy's group (a
            # squash breaks it too: Group.mark_squashed).
            entry.group = None
        self.rob_entries -= self.redundancy
        if group.is_mem:
            self.lsq.remove_committed(group)
        stats.instructions += 1
        stats.entries_committed += self.redundancy
        recovery = self.recovery
        if recovery._open_rewind_cycle is not None:
            # The first commit since a rewind closes its outage.
            recovery.on_commit(cycle)
            stats.recovery_cycles = recovery.recovery_cycles
        self._last_commit_cycle = cycle
        if self._tracer is not None:
            self._tracer.on_commit(group, cycle)
        if self._lockstep is not None:
            self._lockstep_check(group, representative)
        if meta.is_halt:
            self.halted = True
        return True

    def _lockstep_check(self, group, representative):
        golden = self._lockstep
        golden.step()
        inst = group.inst
        if golden.state.pc != self.committed_next_pc and not inst.is_halt:
            raise SimulationError(
                "lockstep divergence at pc=%d: committed next-PC %d, "
                "golden %d" % (group.pc, self.committed_next_pc,
                               golden.state.pc))
        if inst.info.writes_reg:
            expected = golden.state.read_reg(inst.rd)
            actual = self.arch.read_reg(inst.rd)
            if not values_equal(expected, actual):
                raise SimulationError(
                    "lockstep divergence at pc=%d: r%d committed %r, "
                    "golden %r" % (group.pc, inst.rd, actual, expected))
        if group.is_store:
            address = representative.addr
            expected = golden.state.memory.peek(address)
            actual = self.arch.memory.peek(address)
            if not values_equal(expected, actual):
                raise SimulationError(
                    "lockstep divergence at pc=%d: mem[%d] committed %r, "
                    "golden %r" % (group.pc, address, actual, expected))

    # -- recovery ---------------------------------------------------------

    def _begin_rewind(self, cycle):
        """Discard all speculative state; refetch from committed next-PC."""
        self.stats.rewinds += 1
        self.recovery.on_rewind(cycle)
        for group in self.groups:
            group.mark_squashed()
        self.groups.clear()
        self.lsq.clear()
        self.ifq.clear()
        self.ready_queues = [[], [], [], [], []]
        self.pending_loads = []
        self.rob_entries = 0
        self.renamer.clear()
        self.fetch_unit.ras.clear()
        self.fetch_unit.redirect(self.committed_next_pc, cycle,
                                 penalty=self.ft.rewind_extra_penalty)
        if self._tracer is not None:
            self._tracer.on_rewind(cycle, self.committed_next_pc)

    # -- writeback --------------------------------------------------------

    def _schedule(self, cycle, kind, payload):
        bucket = self.events.get(cycle)
        if bucket is None:
            self.events[cycle] = [(kind, payload)]
        else:
            bucket.append((kind, payload))

    def _writeback_stage(self, cycle):
        bucket = self.events.pop(cycle, None)
        if not bucket:
            return
        queues = self.ready_queues
        for kind, payload in bucket:
            if kind == _EVENT_EXEC:
                entry = payload
                if entry.squashed:
                    continue
                group = entry.group
                if (group.is_mem or group.is_control
                        or entry.fault_kind is not None):
                    self._complete_execution(entry, cycle)
                    continue
                # An unarmed ALU result completes here: mark it done and
                # wake its dependents (_finalize_entry's rule, minus the
                # strike and control tails it cannot need).
                entry.state = DONE
                entry.done_cycle = cycle
                group.done_count += 1
                dependents = entry.dependents
                if dependents:
                    value = entry.value
                    for dependent, slot in dependents:
                        if dependent.squashed:
                            continue
                        dependent.src_vals[slot] = value
                        dependent.pending -= 1
                        if dependent.pending == 0 \
                                and dependent.state == WAITING:
                            dependent.state = READY
                            heappush(queues[dependent.group.meta.qidx],
                                     (dependent.seq, dependent))
                    entry.dependents = None
            else:
                group, value, was_miss = payload
                if was_miss:
                    # The fill returns and frees its MSHR even if the
                    # consuming load was squashed meanwhile.
                    self._outstanding_misses -= 1
                if not group.squashed:
                    self._deliver_load_value(group, value, cycle)

    def _count_fault(self, entry):
        """Record one applied fault (plus its site, when addressed)."""
        self.stats.faults_injected += 1
        if entry.site is not None:
            count_strike(self.stats, entry.site)

    def _complete_execution(self, entry, cycle):
        group = entry.group
        kind = group.meta.kind
        if kind == _K_LOAD or kind == _K_STORE:
            if entry.fault_kind == "address" and not entry.fault_applied:
                entry.addr = u64(entry.addr ^ (1 << (entry.fault_bit & 63)))
                entry.fault_applied = True
                self._count_fault(entry)
            entry.agen_done = True
            if kind == _K_STORE:
                entry.store_val = entry.src_vals[1]
                if entry.fault_kind == "value" and not entry.fault_applied:
                    entry.store_val = self._flip_value(entry.store_val,
                                                       entry.fault_bit)
                    entry.fault_applied = True
                    self._count_fault(entry)
                self._finalize_entry(entry, cycle)
            else:
                if entry.copy == 0 and not group.mem_issued:
                    self._append_pending_load(group)
                if group.value_ready:
                    self._finish_load_copy(entry, group.load_value, cycle)
            return
        if entry.fault_kind is not None and not entry.fault_applied:
            self._apply_datapath_fault(entry, group)
        self._finalize_entry(entry, cycle)

    def _apply_datapath_fault(self, entry, group):
        if entry.fault_kind is None or entry.fault_applied:
            return
        meta = group.meta
        if entry.fault_kind == "value" and meta.writes_reg:
            entry.value = self._flip_value(entry.value, entry.fault_bit)
            entry.fault_applied = True
            self._count_fault(entry)
        elif entry.fault_kind == "branch" and meta.is_control:
            entry.next_pc = self._corrupt_next_pc(entry, group)
            entry.fault_applied = True
            self._count_fault(entry)
        elif entry.fault_kind == "value" and meta.is_control:
            entry.next_pc = self._corrupt_next_pc(entry, group)
            entry.fault_applied = True
            self._count_fault(entry)

    def _corrupt_next_pc(self, entry, group):
        meta = group.meta
        if meta.is_branch:
            fallthrough = group.pc + 1
            target = group.pc + 1 + meta.imm
            return target if entry.next_pc == fallthrough else fallthrough
        return u64(entry.next_pc ^ (1 << (entry.fault_bit % 16)))

    @staticmethod
    def _flip_value(value, bit):
        if isinstance(value, float):
            return flip_float_bit(value, bit)
        return flip_int_bit(value if value is not None else 0, bit)

    def _finalize_entry(self, entry, cycle):
        entry.state = DONE
        entry.done_cycle = cycle
        group = entry.group
        group.done_count += 1
        dependents = entry.dependents
        if dependents:
            value = entry.value
            queues = self.ready_queues
            for dependent, slot in dependents:
                if dependent.squashed:
                    continue
                dependent.src_vals[slot] = value
                dependent.pending -= 1
                if dependent.pending == 0 and dependent.state == WAITING:
                    dependent.state = READY
                    heappush(queues[dependent.group.meta.qidx],
                             (dependent.seq, dependent))
            entry.dependents = None
        if entry.fault_kind == "rob_value" and not entry.fault_applied:
            # ROB-entry strike: the value corrupts *at rest*, after the
            # dependents captured the clean result — only commit (and
            # the cross-check) sees it.
            entry.value = self._flip_value(entry.value, entry.fault_bit)
            entry.fault_applied = True
            self._count_fault(entry)
        if group.is_control:
            self._resolve_control(entry, cycle)

    def _resolve_control(self, entry, cycle):
        group = entry.group
        if group.resolved:
            # A later copy disagreeing with the followed path is caught
            # by the commit-stage cross-check; nothing to do here.
            return
        group.resolved = True
        group.resolved_npc = entry.next_pc
        if entry.next_pc != group.pred_npc:
            self._squash_younger(group)
            self.fetch_unit.restore_ras(group.ras_snap)
            self.fetch_unit.redirect(entry.next_pc, cycle,
                                     penalty=self.config.redirect_penalty)

    def _squash_younger(self, group):
        """Branch-misprediction squash of everything younger than group."""
        groups = self.groups
        while groups and groups[-1].gseq > group.gseq:
            victim = groups.pop()
            victim.mark_squashed()
            self.rob_entries -= len(victim.copies)
        self.lsq.squash_younger(group.gseq)
        self.ifq.clear()
        if self.pending_loads:
            self.pending_loads = [g for g in self.pending_loads
                                  if not g.squashed]
        for queue in self.ready_queues:
            if queue:
                live = [item for item in queue if not item[1].squashed]
                if len(live) != len(queue):
                    queue[:] = live
                    heapify(queue)
        self.renamer.rebuild(groups)

    def _deliver_load_value(self, group, raw_value, cycle):
        """The single shared memory access returned: fan out to copies."""
        if group.meta.fp_dest:
            value = as_float(raw_value)
        else:
            value = as_int(raw_value)
        group.load_value = value
        group.value_ready = True
        group.value_cycle = cycle
        finish = self._finish_load_copy
        for entry in group.copies:
            if entry.agen_done and entry.state != DONE:
                finish(entry, value, cycle)

    def _finish_load_copy(self, entry, value, cycle):
        entry.value = value
        if entry.fault_kind == "value" and not entry.fault_applied:
            entry.value = self._flip_value(entry.value, entry.fault_bit)
            entry.fault_applied = True
            self._count_fault(entry)
        self._finalize_entry(entry, cycle)

    # -- issue ------------------------------------------------------------

    def _issue_stage(self, cycle):
        if self.pending_loads:
            self._progress_pending_loads(cycle)
        queues = self.ready_queues
        pools = self._pools
        # The classes with ready work, each as [head seq, queue, pool].
        # Each round issues the oldest head among them, which is exactly
        # the reference engine's global age priority; a class leaves
        # when it saturates or drains, so a saturated class's entries
        # are never re-popped.  Every queued entry is READY and live: a
        # squash filters the queues and issue pops what it issues.
        active = []
        for index in _ISSUE_CLASSES:
            queue = queues[index]
            if queue:
                active.append([queue[0][0], queue, pools[index]])
        budget = self.config.issue_width
        co_schedule = self.config.co_schedule_copies
        events = self.events
        issued = 0
        while active:
            best = active[0]
            for candidate in active:
                if candidate[0] < best[0]:
                    best = candidate
            queue = best[1]
            entry = queue[0][1]
            group = entry.group
            meta = group.meta
            avoid = None
            if co_schedule and entry.copy:
                # Section 3.5: prefer a different physical unit than the
                # sibling copy, so a slow-transient FU fault cannot
                # corrupt both redundant results identically.
                avoid = group.copies[0].fu_unit
            latency = meta.latency
            unit = best[2].try_issue(cycle, latency, meta.unpipelined,
                                     avoid)
            if unit is None:
                active.remove(best)       # class saturated this cycle
                continue
            heappop(queue)
            entry.fu_unit = unit
            # Execute: compute the copy's results now and schedule its
            # completion for writeback.
            if entry.op_fault is not None:
                # Source-operand strike (rename_tag / iq_entry): the
                # copy computes on a corrupted operand from here on.
                slot, bit = entry.op_fault
                entry.src_vals[slot] = self._flip_value(
                    entry.src_vals[slot], bit)
                entry.op_fault = None
                entry.fault_applied = True
                self._count_fault(entry)
            a, b = entry.src_vals
            kind = meta.kind
            pc = group.pc
            if kind == _K_ALU:
                entry.value = meta.value_fn(a, b, meta.imm, pc)
                entry.next_pc = pc + 1
            elif kind == _K_LOAD or kind == _K_STORE:
                entry.addr = u64(a + meta.imm)
                entry.next_pc = pc + 1
            elif kind == _K_BRANCH:
                entry.next_pc = pc + 1 + meta.imm \
                    if meta.branch_fn(a, b) else pc + 1
            else:                         # JUMP
                op = meta.op
                if op == Op.J or op == Op.JAL:
                    entry.next_pc = meta.imm
                else:
                    entry.next_pc = u64(as_int(a))
                if meta.writes_reg:
                    entry.value = pc + 1
            entry.state = ISSUED
            entry.issue_cycle = cycle
            when = cycle + latency
            bucket = events.get(when)
            if bucket is None:
                events[when] = [(_EVENT_EXEC, entry)]
            else:
                bucket.append((_EVENT_EXEC, entry))
            issued += 1
            if issued == budget:
                break
            if queue:
                best[0] = queue[0][0]
            else:
                active.remove(best)
        self.stats.issued += issued

    def _append_pending_load(self, group):
        """Insert an agen-complete load keeping program (gseq) order.

        Address generation completes out of order, so a younger load's
        event can fire before an older one's; binary insertion keeps
        the list sorted by construction, replacing the reference
        engine's per-cycle re-sort.
        """
        loads = self.pending_loads
        if loads and loads[-1].gseq > group.gseq:
            gseq = group.gseq
            lo = 0
            hi = len(loads)
            while lo < hi:
                mid = (lo + hi) >> 1
                if loads[mid].gseq < gseq:
                    lo = mid + 1
                else:
                    hi = mid
            loads.insert(lo, group)
        else:
            loads.append(group)

    def _progress_pending_loads(self, cycle):
        loads = self.pending_loads
        if not loads:
            return
        still_pending = []
        pending_append = still_pending.append
        lsq = self.lsq
        config = self.config
        mem_ports = config.mem_ports
        mshrs = config.mshr_count
        hierarchy = self.hierarchy
        dl1_probe = hierarchy.dl1.probe
        memory_load = self.arch.memory.load
        stats = self.stats
        schedule = self._schedule
        for group in loads:
            if group.squashed or group.mem_issued:
                continue
            status, match = lsq.load_status_memo(group)
            if status == "blocked":
                pending_append(group)
            elif status == "forward":
                group.mem_issued = True
                stats.store_forwards += 1
                stats.loads_executed += 1
                schedule(cycle + 1, _EVENT_LOAD_VALUE,
                         (group, match.copies[0].store_val, False))
            else:  # cache access
                if self._ports_used >= mem_ports:
                    pending_append(group)
                    continue
                address = group.copies[0].addr
                is_miss = not dl1_probe((address & ((1 << 48) - 1)) << 3)
                if (mshrs is not None and is_miss
                        and self._outstanding_misses >= mshrs):
                    pending_append(group)  # MSHRs exhausted
                    continue
                self._ports_used += 1
                latency = hierarchy.load_latency(address)
                value = memory_load(address)
                if is_miss:
                    self._outstanding_misses += 1
                group.mem_issued = True
                stats.loads_executed += 1
                schedule(cycle + latency, _EVENT_LOAD_VALUE,
                         (group, value, is_miss))
        self.pending_loads = still_pending

    # -- dispatch / fetch ---------------------------------------------------

    def _dispatch_stage(self, cycle):
        config = self.config
        redundancy = self.redundancy
        # Groups that fit both the dispatch width and the free ROB
        # entries.
        room = min(config.dispatch_width,
                   config.rob_size - self.rob_entries) // redundancy
        if room <= 0:
            return
        ifq = self.ifq
        lsq = self.lsq
        groups = self.groups
        queues = self.ready_queues
        build_group = self.replicator.build_group
        dispatched = 0
        while ifq and dispatched < room:
            group = ifq[0]
            if group.is_mem and lsq.full:
                break
            ifq.popleft()
            build_group(group, cycle)
            groups.append(group)
            if group.is_mem:
                lsq.insert(group)
            queue = queues[group.meta.qidx]
            for entry in group.copies:
                if entry.state == READY:
                    heappush(queue, (entry.seq, entry))
            dispatched += 1
        if dispatched:
            entries = dispatched * redundancy
            self.rob_entries += entries
            stats = self.stats
            stats.dispatched_groups += dispatched
            stats.dispatched_entries += entries

    def _fetch_stage(self, cycle):
        ifq = self.ifq
        space = self.config.ifq_size - len(ifq)
        budget = self.config.fetch_width
        if space < budget:
            budget = space
        if budget <= 0:
            return
        fetched = self.fetch_unit.fetch_cycle(cycle, budget)
        if fetched:
            ifq.extend(fetched)
            self.stats.fetched += len(fetched)


def simulate(program, config=None, ft=None, max_instructions=None,
             max_cycles=None, lockstep=False, policy=None):
    """One-call simulation helper; returns the finished Processor."""
    processor = Processor(program, config=config, ft=ft, policy=policy)
    if lockstep:
        processor.enable_lockstep_check()
    processor.run(max_instructions=max_instructions, max_cycles=max_cycles)
    return processor
