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
  a campaign makes anyway (the fault-free baseline, or a struck trial
  up to its first strike).

Why the prefix is exactly equivalent: the first strike is the run's
:class:`~repro.faults.policy.InjectionPolicy`'s ``next_group``, and no
policy changes machine state below it.  A rate policy's walk is keyed
by dispatched-group index, not by what has dispatched, so a restored
run replays the same draw stream.  A snapshot taken at
dispatched-group count ``D <= first_strike``, by whichever run reached
it, therefore continues into the struck run exactly.

The store is per-process (snapshots share decoded-instruction objects
with the live program and cannot cross pickling boundaries) and
LRU-bounded so long multi-cell campaigns do not grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict

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


class CellCheckpoints:
    """The snapshot ladder of one campaign cell, filled as runs pass
    its marks."""

    def __init__(self, program):
        self.program = program
        self._marks = {}            # instruction mark -> snapshot
        self.snapshots = []         # ordered by dispatched_groups

    def __contains__(self, mark):
        return mark in self._marks

    def add(self, mark, snapshot):
        self._marks[mark] = snapshot
        self.snapshots = sorted(self._marks.values(),
                                key=lambda s: s.dispatched_groups)

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
                     warmup_instructions=0, max_cycles=None):
    """`run_windowed` over ``cell``'s ladder, for a run that strikes
    no dispatched group below ``first_strike`` (``math.inf``: never).

    ``processor`` must be freshly built with the run's policy.  The
    latest snapshot at or before ``first_strike`` is restored first;
    the policy needs no re-seat, because its schedule is keyed by
    dispatched-group index.  The run then chains ``processor.run`` calls
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
