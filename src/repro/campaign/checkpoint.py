"""Checkpointed fast-forward and exact early exit for struck trials.

A struck trial differs from its cell's fault-free run only between its
first strike and the point where the fault has washed out; this
module simulates just that stretch, without changing a single record
byte.  Everything it needs comes from :class:`FaultFreeTwin`, the
cell's fault-free run as struck runs see it: every ``DIGEST_INTERVAL``
committed instructions (a digest mark), the run's normalized state
digest (:func:`~repro.uarch.snapshot.digest_parts`), its
``PipelineStats`` sums and its dispatched-group count.  At most
``RUNGS_PER_CELL`` marks also keep a rung, a compact
:class:`~repro.uarch.snapshot.ProcessorSnapshot` whose digest is the
mark's; a short run keeps one at every mark.

* A struck run restores the twin's latest rung at or before its first
  strike, skipping the clean prefix: with a rung at every mark, it
  starts within one mark of its strike.
* A struck run whose state re-converges with the twin's at a mark,
  once its policy has nothing left to strike, stops there: its final
  sums are its sums at the match plus the twin's remaining delta, and
  its verdict is the twin's.
* :func:`run_checkpointed` is the one windowed runner.  It finishes
  the warmup-then-measure protocol of
  :func:`repro.harness.experiment.run_windowed` in chunks toward the
  digest marks.  Chained ``Processor.run`` calls check their budgets
  before every step, so the segmented run is cycle-for-cycle identical
  to the straight one.  The fault-free run (which a campaign makes
  once per cell anyway) records the twin.

Why the prefix is exactly equivalent: the first strike is the run's
:class:`~repro.faults.policy.InjectionPolicy`'s ``next_group``, and no
policy changes machine state below it.  A rate policy's walk is keyed
by dispatched-group index, not by what has dispatched, so a restored
run replays the same draw stream.  A rung taken at dispatched-group
count ``D <= first_strike`` therefore continues into the struck run
exactly.

Why the suffix is: two machines whose digests match at the same
committed count are in the same state up to a shift in cycles and ages
and up to their running totals, so from there they run the same
trajectory, shifted.  Both runs stop at the same final committed
count (the warmup stamps are still ahead of both, or both crossed the
boundary with the same commit overshoot), the struck run's policy
strikes no group below ``D`` plus the twin's remaining groups, and the
twin's final cycle plus the shift stays within the cycle budget, so no
budget check or strike tells the two apart.  The twin's verdict was
clean and the two final states are equal, so it holds for the struck
run too; only masked versus detected_recovered depends on the spliced
counters.

Early exits depend on the marks alone, not on where a run restored,
so they come out the same whichever rung a run starts from.  Twins are
per-process and live with their memoized results in
:mod:`repro.campaign.outcome`, an LRU of cells; an evicted twin is
simply run again.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from ..harness.experiment import cycle_budget
from ..uarch.snapshot import (STATS_SUMS, ProcessorSnapshot, digest_parts,
                              state_digest)

#: Committed instructions between the fault-free twin's digest marks.
DIGEST_INTERVAL = 100

#: Most rungs one twin keeps.  A run with more digest marks keeps a
#: rung at every k-th mark only, for the smallest k that fits.
RUNGS_PER_CELL = 32


class _Mark:
    """A run's position, ``PipelineStats`` sums and (at a digest mark)
    normalized state digest."""

    __slots__ = ("instructions", "cycle", "dispatched_groups", "sums",
                 "digest")

    def __init__(self, processor, digest=None):
        stats = processor.stats
        self.instructions = stats.instructions
        self.cycle = processor.cycle
        self.dispatched_groups = stats.dispatched_groups
        self.sums = [getattr(stats, name) for name in STATS_SUMS]
        self.digest = digest


class FaultFreeTwin:
    """A cell's fault-free run, as its struck runs restore and compare
    against it.

    :func:`run_checkpointed` fills :attr:`marks` (digest mark ->
    :class:`_Mark`), :attr:`rungs`, :attr:`final` and the warmup stamps
    while running the fault-free trial; the caller then sets
    :attr:`result`, :attr:`groups` and :attr:`exits` from that trial's
    outcome.
    """

    def __init__(self):
        self.marks = {}
        #: Snapshots at digest marks, in run order, so by
        #: dispatched-group count.
        self.rungs = []
        self.final = None
        self.warm_cycles = 0
        self.warm_instructions = 0
        #: The fault-free trial's result and dispatched-group count.
        self.result = None
        self.groups = 0
        #: Whether struck runs may splice onto this run: its verdict
        #: was clean.
        self.exits = False

    def record(self, mark, processor, rung):
        """Record digest ``mark`` of the fault-free ``processor``,
        keeping a rung there when ``rung`` is true."""
        if rung:
            snapshot = ProcessorSnapshot(processor)
            self.rungs.append(snapshot)
            digest = snapshot.digest
        else:
            digest = state_digest(processor)
        self.marks[mark] = _Mark(processor, digest)

    def rung_before(self, group_index):
        """The latest rung safe for a first strike at ``group_index``.

        Safe means ``rung.dispatched_groups <= group_index``: the
        restored machine has dispatched only groups that provably
        carried no strike.  ``None`` when even the earliest rung is
        past the strike.
        """
        best = None
        for rung in self.rungs:
            if rung.dispatched_groups > group_index:
                break
            best = rung
        return best

    def converged(self, mark, processor, max_cycles, warm_instructions):
        """Has the struck run ``processor``, stopped at digest ``mark``,
        re-converged with this run for good?

        ``warm_instructions`` is the committed count at which the run
        crossed its warmup boundary, or ``None`` while it has not.
        Cheapest tests first: the same committed count, the same final
        target, a shifted end that fits ``max_cycles``, nothing left
        for the policy to strike in the groups the rest of the run
        dispatches, then the digest, part by part.
        """
        at = self.marks.get(mark)
        if at is None:
            return False
        stats = processor.stats
        if stats.instructions != at.instructions:
            return False
        if warm_instructions is not None \
                and warm_instructions != self.warm_instructions:
            # The run crossed the warmup boundary with another commit
            # overshoot than this run, so its measurement window ends
            # at another committed count, possibly in another cycle.
            return False
        if self.final.cycle + processor.cycle - at.cycle > max_cycles:
            # Processor.run tests the budget before every step and caps
            # idle skips at it, so a shifted end inside the budget never
            # meets it; past it the run must simulate on to its timeout.
            return False
        end = stats.dispatched_groups + self.final.dispatched_groups \
            - at.dispatched_groups
        if processor.policy.look_ahead(end) < end:
            return False
        return all(mine == theirs for mine, theirs
                   in zip(digest_parts(processor), at.digest))

    def splice(self, mark, processor):
        """Finish ``processor``'s totals by arithmetic from the match at
        ``mark``: each sum gains the twin's remaining delta."""
        at = self.marks[mark]
        stats = processor.stats
        for name, start, end in zip(STATS_SUMS, at.sums, self.final.sums):
            setattr(stats, name, getattr(stats, name) + end - start)
        return processor.cycle - at.cycle


class CheckpointStore:
    """LRU store of per-cell objects with hit/miss/eviction counters:
    the fault-free twins of :mod:`repro.campaign.outcome`."""

    def __init__(self, limit):
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

    def values(self):
        """The stored objects, least recently used first."""
        return list(self._cells.values())

    def __len__(self):
        return len(self._cells)

    def stats(self):
        return {"size": len(self._cells), "limit": self.limit,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


def run_checkpointed(processor, twin, first_strike, max_instructions,
                     warmup_instructions=0, max_cycles=None):
    """`run_windowed` from ``twin``'s rungs, for a run that strikes no
    dispatched group below ``first_strike`` (``math.inf``: never).

    ``processor`` must be freshly built with the run's policy, and
    ``twin`` is its cell's :class:`FaultFreeTwin`.  The twin's latest
    rung at or before ``first_strike`` is restored first; the policy
    needs no re-seat, because its schedule is keyed by dispatched-group
    index.  The run then chains ``processor.run`` calls toward absolute
    instruction targets (each chunk recomputed from the actual
    committed count, so commit-width overshoot never drifts the
    protocol), stamping the warmup extras exactly where the straight
    protocol does.

    A fault-free run records ``twin``: its digest marks, a rung at each
    kept mark (after any warmup stamping due at the same boundary) and
    its final totals.  A struck run stops at the first digest mark
    where it has re-converged with the twin
    (:meth:`FaultFreeTwin.converged`) and finishes its totals and
    warmup stamps by arithmetic, outside ``Processor.run``.

    Returns ``(stats, warm_cycles, warm_instructions, converged)`` like
    :func:`repro.harness.experiment.run_windowed`, plus the twin the
    run converged with (``None`` if it ran to its end).
    """
    if max_cycles is None:
        max_cycles = cycle_budget(max_instructions, warmup_instructions)
    rung = twin.rung_before(first_strike)
    if rung is not None:
        rung.restore_into(processor)
    stats = processor.stats
    # A rung past the warmup boundary carries the stamps its run made
    # at the crossing.
    warm_cycles = stats.extras.get("warmup_cycles", 0)
    warm_instructions = stats.extras.get("warmup_instructions", 0)
    warm_pending = bool(warmup_instructions) \
        and "warmup_instructions" not in stats.extras
    # The straight protocol's measurement run targets are *relative*
    # to the committed count after warmup, overshoot included — the
    # final absolute target is only known once warmup completes.
    final = None if warm_pending else warm_instructions + max_instructions
    recording = processor.policy is None
    # Commit overshoot stays below one interval, so the run has at most
    # ceil(budget / DIGEST_INTERVAL) marks.
    stride = max(1, -(-(max_instructions + warmup_instructions)
                      // (DIGEST_INTERVAL * RUNGS_PER_CELL)))
    digest_mark = math.inf
    if recording or twin.exits:
        digest_mark = _next_digest_mark(stats.instructions)
    while True:
        current = stats.instructions
        target = warmup_instructions if warm_pending else final
        target = min(target, digest_mark)
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
        if current >= digest_mark:
            if recording:
                twin.record(digest_mark, processor,
                            digest_mark // DIGEST_INTERVAL % stride == 0)
            elif twin.converged(digest_mark, processor, max_cycles,
                                None if warm_pending else warm_instructions):
                shift = twin.splice(digest_mark, processor)
                if warm_pending:
                    # The twin crossed the warmup boundary on the
                    # shared trajectory, ``shift`` cycles earlier.
                    warm_cycles = twin.warm_cycles + shift
                    warm_instructions = twin.warm_instructions
                    stats.extras["warmup_cycles"] = warm_cycles
                    stats.extras["warmup_instructions"] = \
                        warm_instructions
                return stats, warm_cycles, warm_instructions, twin
            digest_mark = _next_digest_mark(current)
    stats.cycles = processor.cycle
    if recording:
        twin.final = _Mark(processor)
        twin.warm_cycles = warm_cycles
        twin.warm_instructions = warm_instructions
    return stats, warm_cycles, warm_instructions, None


def _next_digest_mark(committed):
    return (committed // DIGEST_INTERVAL + 1) * DIGEST_INTERVAL
