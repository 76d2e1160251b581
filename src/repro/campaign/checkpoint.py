"""Checkpointed fast-forward: skip a struck trial's fault-free prefix.

Every struck trial of a cell re-simulates the same fault-free prefix up
to its first strike — for low rates and directed site lists that prefix
is most of the run.  This module removes it without changing a single
record byte:

* :class:`CellCheckpoints` is one cell's ladder: a
  :class:`~repro.uarch.snapshot.ProcessorSnapshot` at each of the first
  ``CHECKPOINTS_PER_CELL - 1`` multiples of :func:`default_interval`
  committed instructions.
* :func:`run_checkpointed` is the one windowed runner.  It restores the
  latest snapshot at or before the run's first strike, then finishes
  the warmup-then-measure protocol of
  :func:`repro.harness.experiment.run_windowed` in chunks, capturing
  every mark the ladder lacks while the machine has dispatched no more
  than first-strike groups.  Chained ``Processor.run`` calls check
  their budgets before every step, so the segmented run is
  cycle-for-cycle identical to the straight one.  No run exists only
  to fill a ladder: marks are captured from the clean prefixes of runs
  a campaign makes anyway (the fault-free baseline, a site trial up to
  its first site index, a rate trial up to its first hit).
* :func:`_prewalk_injector` replays a rate trial's injector draw stream
  once: the same walk yields *both* the silent-trial verdict and, per
  ladder boundary, the RNG state a restored run must continue from.

Why the prefix is exactly equivalent: before its first hit the rate
injector only *draws* (one ``pc`` draw per group when the mix has
``pc`` weight, one draw per redundant copy — see
``Replicator.build_group``), and a miss leaves machine state untouched;
site policies strike only at dispatched-group index >= their
``site.index``.  So a snapshot taken at dispatched-group count ``D``
with ``D <= first_strike_group`` — by whichever run reached it — plus
the RNG state recorded at draw position ``D`` reproduces the struck
run's machine and draw stream exactly.

The store is per-process (snapshots share decoded-instruction objects
with the live program and cannot cross pickling boundaries) and
LRU-bounded so long multi-cell campaigns do not grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.faults import FaultInjector
from ..harness.experiment import cycle_budget
from ..uarch.snapshot import ProcessorSnapshot

#: Cells whose ladders are retained per process.
_STORE_LIMIT = 2

#: Ladder spacing divisor: marks at budget/4, 2/4 and 3/4.
CHECKPOINTS_PER_CELL = 4

#: Never checkpoint more often than this many committed instructions.
MIN_INTERVAL = 50


def default_interval(instructions, warmup=0):
    """The snapshot spacing (committed instructions) for one cell's
    budget."""
    return max(MIN_INTERVAL,
               (instructions + warmup) // CHECKPOINTS_PER_CELL)


def _prewalk_injector(fault_config, redundancy, boundaries, max_groups):
    """One replay of the injector's miss stream over the baseline run.

    Returns ``(first_hit, states)``: ``first_hit`` is the 0-based
    dispatched-group index whose draws contain the first hit (``None``
    if every draw over ``max_groups`` groups misses — the trial is
    provably silent), and ``states`` maps each requested boundary
    ``D <= first_hit`` to the RNG state after consuming exactly the
    draws of groups ``0..D-1`` — what a run restored at ``D`` must
    continue from.  Draw order mirrors ``Replicator.build_group``
    exactly: one group-level ``pc`` draw (when the mix gives ``pc``
    weight) plus one draw per redundant copy, per dispatched group.  A
    miss leaves machine state untouched, so a trial whose draws all
    miss is state-for-state the fault-free run — exact, not
    probabilistic.
    """
    probe = FaultInjector(fault_config)
    rng = probe._rng
    random = rng.random
    rate = probe._rate
    pc_rate = probe._pc_rate
    states = {}
    want = sorted(set(boundaries))
    wanted = len(want)
    position = 0
    for group in range(max_groups):
        while position < wanted and want[position] == group:
            states[group] = rng.getstate()
            position += 1
        if pc_rate > 0 and random() < pc_rate:
            return group, states
        for _ in range(redundancy):
            if random() < rate:
                return group, states
    while position < wanted and want[position] <= max_groups:
        states[want[position]] = rng.getstate()
        position += 1
    return None, states


class CellCheckpoints:
    """The snapshot ladder of one campaign cell, filled as runs pass
    its marks."""

    def __init__(self, program):
        self.program = program
        self._marks = {}            # instruction mark -> snapshot
        self.snapshots = []         # ordered by dispatched_groups
        self.boundaries = ()

    def __contains__(self, mark):
        return mark in self._marks

    def add(self, mark, snapshot):
        self._marks[mark] = snapshot
        self.snapshots = sorted(self._marks.values(),
                                key=lambda s: s.dispatched_groups)
        self.boundaries = tuple(s.dispatched_groups
                                for s in self.snapshots)

    def best_before(self, group_index):
        """The latest snapshot safe for a first strike at ``group_index``.

        Safe means ``snapshot.dispatched_groups <= group_index``: the
        restored machine has dispatched only groups that provably
        carried no strike.  ``None`` when even the earliest snapshot
        is past the strike.
        """
        best = None
        for snapshot in self.snapshots:
            if snapshot.dispatched_groups <= group_index:
                best = snapshot
            else:
                break
        return best


class CheckpointStore:
    """LRU cell-checkpoint store with hit/miss/eviction counters."""

    def __init__(self, limit=_STORE_LIMIT):
        self.limit = limit
        self._cells = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        cell = self._cells.get(key)
        if cell is None:
            self.misses += 1
            return None
        self._cells.move_to_end(key)
        self.hits += 1
        return cell

    def put(self, key, cell):
        self._cells[key] = cell
        self._cells.move_to_end(key)
        while len(self._cells) > self.limit:
            self._cells.popitem(last=False)
            self.evictions += 1

    def clear(self):
        self._cells.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._cells)

    def stats(self):
        return {"size": len(self._cells), "limit": self.limit,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


_STORE = CheckpointStore()


def get_store():
    """The per-process checkpoint store."""
    return _STORE


def clear_checkpoints():
    """Drop all cell checkpoints and reset counters (for tests)."""
    _STORE.clear()


def checkpoint_store_stats():
    """Counters of the per-process checkpoint store."""
    return _STORE.stats()


def run_checkpointed(processor, cell, first_strike, max_instructions,
                     warmup_instructions=0, max_cycles=None,
                     rng_states=None):
    """`run_windowed` over ``cell``'s ladder, for a run whose first
    strike lands in dispatched group ``first_strike`` (``math.inf``:
    never).

    ``processor`` must be freshly built with the run's injector or
    policy.  The latest snapshot at or before ``first_strike`` is
    restored first; ``rng_states`` (from :func:`_prewalk_injector`)
    re-seats a rate injector's RNG at that snapshot's draw position —
    ``None`` for site policies and fault-free runs, which draw nothing
    after construction.  The run then chains ``processor.run`` calls
    toward absolute instruction targets (each chunk recomputed from
    the actual committed count, so commit-width overshoot never drifts
    the protocol), stamping the warmup extras exactly where the
    straight protocol does, and captures each mark the ladder lacks
    once crossed — after any warmup stamping due at the same boundary,
    never at the final target, never once the machine halted or
    exhausted its cycle budget, and never after the machine dispatched
    more than ``first_strike`` groups.  Returns ``(stats, warm_cycles,
    warm_instructions)`` exactly like
    :func:`repro.harness.experiment.run_windowed`.
    """
    if max_cycles is None:
        max_cycles = cycle_budget(max_instructions, warmup_instructions)
    snapshot = cell.best_before(first_strike)
    if snapshot is not None:
        snapshot.restore_into(processor)
        if rng_states is not None:
            processor.injector._rng.setstate(
                rng_states[snapshot.dispatched_groups])
    stats = processor.stats
    # A snapshot past the warmup boundary carries the stamps its run
    # made at the crossing.
    warm_cycles = stats.extras.get("warmup_cycles", 0)
    warm_instructions = stats.extras.get("warmup_instructions", 0)
    warm_pending = bool(warmup_instructions) \
        and "warmup_instructions" not in stats.extras
    # The straight protocol's measurement run targets are *relative*
    # to the committed count after warmup, overshoot included — the
    # final absolute target is only known once warmup completes.
    final = None if warm_pending else warm_instructions + max_instructions
    interval = default_interval(max_instructions, warmup_instructions)
    todo = [mark for mark in (interval * k for k in
                              range(1, CHECKPOINTS_PER_CELL))
            if mark > stats.instructions and mark not in cell]
    while True:
        if stats.dispatched_groups > first_strike:
            todo = []
        current = stats.instructions
        target = warmup_instructions if warm_pending else final
        if todo:
            target = min(target, todo[0])
        if target > current:
            stats = processor.run(max_instructions=target - current,
                                  max_cycles=max_cycles)
        current = stats.instructions
        stalled = processor.halted or processor.cycle >= max_cycles
        if warm_pending and (current >= warmup_instructions or stalled):
            # The straight protocol stamps after run(warmup) returns,
            # whether or not the warmup budget was actually reached.
            warm_cycles = processor.cycle
            warm_instructions = current
            stats.extras["warmup_cycles"] = warm_cycles
            stats.extras["warmup_instructions"] = warm_instructions
            warm_pending = False
            final = warm_instructions + max_instructions
        if stalled or (final is not None and current >= final):
            break
        while todo and todo[0] <= current:
            mark = todo.pop(0)
            if stats.dispatched_groups <= first_strike:
                cell.add(mark, ProcessorSnapshot(processor))
    stats.cycles = processor.cycle
    return stats, warm_cycles, warm_instructions
