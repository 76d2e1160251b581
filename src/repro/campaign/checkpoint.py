"""Checkpointed fast-forward, re-entry and exact early exit for struck
trials.

A struck trial differs from its cell's fault-free run only from each
strike to the point where its fault has washed out; this module
simulates just those stretches, without changing a single record
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
* A struck run that re-converges with a strike still ahead re-enters
  the twin instead: it restores the twin's latest rung before that
  strike, shifted by the run's cycle and group offsets and keeping the
  run's own running totals, and its sums gain the twin's delta between
  the two marks.  So it simulates only the stretches its faults touch.
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
trajectory, shifted, until a strike or a stop condition tells them
apart.  Both runs stop at the same final committed count (the warmup
stamps are still ahead of both, or both crossed the boundary with the
same commit overshoot), the struck run's policy strikes no group below
``D`` plus the twin's remaining groups, and the twin's final cycle plus
the shift stays within the cycle budget, so no budget check or strike
tells the two apart.  The twin's verdict was clean and the two final
states are equal, so it holds for the struck run too; only masked
versus detected_recovered depends on the spliced counters.

Why a re-entry is: the same argument over a stretch.  The rung lies
before the struck run's next strike, below its final committed count
and, shifted, inside its cycle budget, so the run would reach the
rung's state, shifted, with no strike or stop in between.  A warmup
crossing inside the stretch lands where the twin's did, shifted, as
at an early exit.  Running totals never steer a machine (the digest
leaves them out for that reason), so the run's own carry on.

Early exits depend on the marks alone, not on where a run restored,
so they come out the same whichever rung a run starts from.  Twins are
per-process and live with their memoized results in
:mod:`repro.campaign.outcome`, an LRU of cells; an evicted twin is
simply run again.
"""

from __future__ import annotations

import math

from ..harness.experiment import cycle_budget
from ..uarch.snapshot import (STATS_SUMS, ProcessorSnapshot, digest_parts,
                              state_digest)

#: Committed instructions between the fault-free twin's digest marks.
DIGEST_INTERVAL = 50

#: Most rungs one twin keeps.  A run with more digest marks keeps a
#: rung at every k-th mark only, for the smallest k that fits.
RUNGS_PER_CELL = 32


class _Mark:
    """A run's position, ``PipelineStats`` sums and (at a digest mark)
    normalized state digest.  A rung
    (:class:`~repro.uarch.snapshot.ProcessorSnapshot`) has the same
    fields and serves as its mark."""

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
    """A cell's fault-free run, as its struck runs restore, compare
    against and skip along it.

    :func:`run_checkpointed` fills :attr:`marks` (digest mark ->
    :class:`_Mark` or rung), :attr:`rungs`, :attr:`final` and the
    warmup stamps while running the fault-free trial; the caller then
    sets :attr:`result`, :attr:`groups` and :attr:`exits` from that
    trial's outcome.
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
            self.marks[mark] = snapshot
        else:
            self.marks[mark] = _Mark(processor, state_digest(processor))

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

    def rejoin(self, mark, processor, max_cycles, warm_instructions,
               final_count):
        """Where the struck run ``processor``, stopped at digest
        ``mark``, can skip to along this run, or ``None``.

        :attr:`final` when the run has re-converged for good: nothing
        is left to strike in the groups the rest of the run dispatches,
        both runs end at the same committed count (``warm_instructions``
        is the count at which the run crossed its warmup boundary,
        ``None`` while it has not) and the shifted end fits
        ``max_cycles``.  Failing that, the latest rung past this mark
        that the run reaches with no strike, inside ``max_cycles`` and
        below its ``final_count`` committed instructions (``math.inf``
        while unknown).  Either way the two states must match: the digest
        is built, and compared part by part, only once a target
        exists, since only then can its answer change the run.
        """
        at = self.marks.get(mark)
        if at is None:
            return None
        stats = processor.stats
        if stats.instructions != at.instructions:
            return None
        cycle_limit = max_cycles - (processor.cycle - at.cycle)
        group_shift = stats.dispatched_groups - at.dispatched_groups
        end = self.final.dispatched_groups + group_shift
        strike = processor.policy.look_ahead(end)
        if strike >= end and self.final.cycle <= cycle_limit and (
                warm_instructions is None
                or warm_instructions == self.warm_instructions):
            # Processor.run tests the budget before every step and caps
            # idle skips at it, so a shifted end inside the budget never
            # meets it.  A run that crossed the warmup boundary with
            # another commit overshoot ends at another committed count.
            target = self.final
        else:
            for target in reversed(self.rungs):
                if target.instructions <= at.instructions:
                    return None
                if target.dispatched_groups + group_shift <= strike \
                        and target.cycle <= cycle_limit \
                        and target.instructions < final_count:
                    break
            else:
                return None
        if all(mine == theirs for mine, theirs
               in zip(digest_parts(processor), at.digest)):
            return target
        return None

    def splice(self, mark, processor):
        """Finish ``processor``'s totals by arithmetic from the match at
        ``mark``: each sum gains the twin's remaining delta."""
        return _advance(processor, self.marks[mark], self.final)

    def reenter(self, mark, processor, rung):
        """Skip ``processor`` from the match at ``mark`` to ``rung``:
        each sum gains the twin's delta between the two, and the rung's
        state is restored, shifted."""
        at = self.marks[mark]
        groups = processor.stats.dispatched_groups - at.dispatched_groups
        shift = _advance(processor, at, rung)
        rung.restore_into(processor, shift=(shift, groups))
        return shift


def _advance(processor, start, end):
    """Add the twin's ``PipelineStats`` deltas from mark ``start`` to
    mark ``end`` to ``processor``'s, which matched at ``start``;
    returns the run's cycle shift against the twin."""
    stats = processor.stats
    for name, before, after in zip(STATS_SUMS, start.sums, end.sums):
        setattr(stats, name, getattr(stats, name) + after - before)
    return processor.cycle - start.cycle


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
    its final totals.  A struck run asks the twin at each digest mark
    where it can rejoin it (:meth:`FaultFreeTwin.rejoin`).  Re-converged
    for good, it stops there and finishes its totals and warmup stamps
    by arithmetic, outside ``Processor.run``; matching with a strike
    still ahead, it re-enters the twin's latest rung before that
    strike, skipping the clean stretch between.

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
            else:
                ahead = twin.rejoin(
                    digest_mark, processor, max_cycles,
                    None if warm_pending else warm_instructions,
                    math.inf if final is None else final)
                converged = ahead is twin.final
                if converged:
                    shift = twin.splice(digest_mark, processor)
                elif ahead is not None:
                    shift = twin.reenter(digest_mark, processor, ahead)
                if ahead is not None and warm_pending \
                        and ahead.instructions >= twin.warm_instructions:
                    # The twin crossed the warmup boundary on the
                    # shared trajectory, ``shift`` cycles earlier.
                    warm_cycles = twin.warm_cycles + shift
                    warm_instructions = twin.warm_instructions
                    stats.extras["warmup_cycles"] = warm_cycles
                    stats.extras["warmup_instructions"] = \
                        warm_instructions
                    warm_pending = False
                    final = warm_instructions + max_instructions
                if converged:
                    return stats, warm_cycles, warm_instructions, twin
            digest_mark = _next_digest_mark(stats.instructions)
    stats.cycles = processor.cycle
    if recording:
        twin.final = _Mark(processor)
        twin.warm_cycles = warm_cycles
        twin.warm_instructions = warm_instructions
    return stats, warm_cycles, warm_instructions, None


def _next_digest_mark(committed):
    return (committed // DIGEST_INTERVAL + 1) * DIGEST_INTERVAL
