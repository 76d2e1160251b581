"""Adaptive sampling: stop converged cells early, spend the budget on
noisy ones.

A Monte Carlo campaign's cost is dominated by cells that were already
statistically settled hundreds of replicates ago.  A
:class:`SamplingPlan` attached to
:class:`~repro.campaign.api.ExecutionOptions` turns the session's
fixed-replicate grid into a self-scheduling sweep:

* ``SamplingPlan.fixed()`` (or ``sampling=None``) is the historical
  behaviour — every pre-keyed replicate of every cell runs;
* ``SamplingPlan.wilson(target_halfwidth, metric=...)`` watches each
  cell's Wilson confidence interval as its trials finish and **closes
  the cell** once the interval's half-width reaches the target (with at
  least ``min_replicates`` observations), reallocating the remaining
  replicate budget to whichever open cell currently has the widest
  interval.

The crucial invariant: adaptation only ever *selects which pre-keyed
replicates run*.  Trials still come from
:meth:`~repro.campaign.spec.CampaignSpec.trials` with their
content-hash keys and content-derived seeds, so

* any cell that runs to completion produces records byte-identical to
  the fixed plan's (an unreachable target degenerates to the fixed
  plan exactly);
* ``--resume`` works mid-adaptation — records already in the store
  count toward their cell's interval and are never re-run.

Metrics mirror :mod:`~repro.campaign.aggregate` exactly:
``sdc_rate`` is SDC outcomes over all finished trials of the cell;
``coverage`` is correct outcomes over *fault-struck* trials (cells that
never see a fault — rate-0 cells — keep the degenerate (0, 1) interval
and therefore run to completion, like the fixed plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..wire import Wire, integer, number, optional, text, wire
from .aggregate import DEFAULT_Z, trial_cell, wilson_interval
from .outcome import DETECTED_RECOVERED, MASKED, SDC

#: Convergence metrics a plan can watch (same definitions as the
#: per-cell aggregate).
COVERAGE = "coverage"
SDC_RATE = "sdc_rate"
METRICS = (COVERAGE, SDC_RATE)

FIXED = "fixed"
WILSON = "wilson"
MODES = (FIXED, WILSON)

#: Why a cell stopped scheduling new replicates.
CONVERGED = "converged"          # half-width target reached
EXHAUSTED = "exhausted"          # every pre-keyed replicate ran
CAPPED = "capped"                # max_replicates reached, target not


def wilson_halfwidth(successes, total, z=DEFAULT_Z):
    """Half-width of the Wilson interval; 0.5 for an empty sample."""
    low, high = wilson_interval(successes, total, z=z)
    return (high - low) / 2.0


@dataclass(frozen=True)
class SamplingPlan(Wire):
    """How many replicates of each cell actually run.

    Build one through :meth:`fixed` or :meth:`wilson` — the constructor
    is the serialisation surface (:meth:`to_dict` / :meth:`from_dict`),
    not the ergonomic one.  ``min_replicates`` keeps early lucky
    streaks from closing a cell on three trials, and it guards the
    *metric's own denominator* (fault-struck trials for ``coverage``,
    all trials for ``sdc_rate``) — a low-rate cell with four clean
    trials and three faulty ones has a 3-observation coverage sample,
    not a 7-observation one.  ``max_replicates`` optionally caps a
    cell below the spec's replicate count (records are then no longer
    a superset-equal of the fixed plan's — the cap is an explicit
    budget cut, not a convergence decision).
    """

    mode: str = wire(text(MODES), FIXED)
    #: Checked in every mode: a fixed plan ignores the width, but a
    #: malformed body must fail the same way whatever its mode.
    target_halfwidth: float = wire(number(0, 0.5), 0.0)
    metric: str = wire(text(METRICS), COVERAGE)
    min_replicates: int = wire(integer(1), 4)
    max_replicates: Optional[int] = wire(optional(integer(1)), None,
                                         omit=True)

    def __post_init__(self):
        self.check()
        if self.max_replicates is not None \
                and self.max_replicates < self.min_replicates:
            raise ConfigError(
                "max_replicates (%d) must be >= min_replicates (%d)"
                % (self.max_replicates, self.min_replicates))
        if self.mode == WILSON and self.target_halfwidth == 0:
            raise ConfigError("target_halfwidth must be > 0 for a "
                              "wilson plan")

    @classmethod
    def fixed(cls) -> "SamplingPlan":
        """The historical plan: every replicate of every cell runs."""
        return cls()

    @classmethod
    def wilson(cls, target_halfwidth, metric=COVERAGE,
               min_replicates=4,
               max_replicates: Optional[int] = None) -> "SamplingPlan":
        """Close each cell once its Wilson half-width <= the target."""
        return cls(mode=WILSON,
                   target_halfwidth=float(target_halfwidth),
                   metric=metric, min_replicates=min_replicates,
                   max_replicates=max_replicates)

    @property
    def is_adaptive(self) -> bool:
        return self.mode == WILSON

    def to_dict(self) -> dict:
        # A fixed plan's wire form is its mode alone; a wilson plan
        # spells out metric and min_replicates even at their defaults.
        return super().to_dict() if self.is_adaptive else {"mode": FIXED}


class CellTracker:
    """Running per-cell sample statistics for the adaptive scheduler.

    Counters mirror :class:`~repro.campaign.aggregate.CellStats` for
    the two supported metrics; ``pending`` holds the cell's not-yet-run
    trials in spec order, so "run one more replicate" is always the
    lowest un-run replicate index — the property that keeps an
    adaptive run's record set a prefix-per-cell of the fixed plan's.
    """

    __slots__ = ("cell", "order", "pending", "inflight", "done",
                 "executed", "faulty", "covered", "sdc", "closed")

    def __init__(self, cell, order):
        self.cell = cell
        self.order = order           # spec-expansion rank, tie-breaker
        self.pending: List = []      # un-run Trials, spec order
        self.inflight = 0            # submitted, not yet finished
        self.done = 0                # observed records (store + fresh)
        self.executed = 0            # observed fresh this run
        self.faulty = 0              # trials with >= 1 injected fault
        self.covered = 0             # faulty trials that stayed correct
        self.sdc = 0                 # silent-corruption outcomes
        self.closed: Optional[str] = None

    def observe(self, record, fresh=True):
        """Fold one finished record of this cell into the sample."""
        self.done += 1
        if fresh:
            self.executed += 1
        outcome = record["outcome"]
        if outcome == SDC:
            self.sdc += 1
        if record.get("faults_injected", 0) > 0:
            self.faulty += 1
            if outcome in (MASKED, DETECTED_RECOVERED):
                self.covered += 1

    def halfwidth(self, metric) -> float:
        """Current Wilson half-width of the chosen metric."""
        if metric == COVERAGE:
            return wilson_halfwidth(self.covered, self.faulty)
        return wilson_halfwidth(self.sdc, self.done)

    def sample_size(self, metric) -> int:
        """The denominator the metric's interval is computed over —
        what ``min_replicates`` must guard, or a low-rate cell could
        converge on a 3-fault "sample" after dozens of clean trials."""
        if metric == COVERAGE:
            return self.faulty
        return self.done

    def projected_halfwidth(self, metric) -> float:
        """Half-width *as if* the in-flight trials had already landed
        at the cell's current proportion.

        This is the scheduler's ranking key with a worker pool: the
        plain half-width ignores submitted-but-unfinished work, so a
        wide pool would drain one cell's entire pending list into
        flight before its first result returns — replicates that then
        run past the convergence point, the exact waste the plan
        exists to avoid.  Serially (``inflight == 0``) this is the
        plain half-width.
        """
        sample = self.sample_size(metric)
        projected = sample + self.inflight
        if projected == 0:
            return 0.5
        if sample == 0:
            # No evidence yet: assume the widest proportion at the
            # projected size (still narrower than an untouched cell).
            return wilson_halfwidth(projected // 2, projected)
        successes = self.covered if metric == COVERAGE else self.sdc
        return wilson_halfwidth(successes * projected / sample,
                                projected)

    @property
    def scheduled(self) -> int:
        """Observations this cell already has or will have."""
        return self.done + self.inflight

    def as_dict(self, metric) -> dict:
        workload, model, machine, rate, mix, sites = self.cell
        data = {
            "workload": workload, "model": model,
            "rate_per_million": rate, "mix": mix,
            "n": self.done, "executed": self.executed,
            "skipped": len(self.pending),
            "halfwidth": self.halfwidth(metric),
            "closed": self.closed,
        }
        if machine:
            data["machine"] = machine
        if sites:
            data["sites"] = sites
        return data


@dataclass
class AdaptiveSummary:
    """What the adaptive scheduler did, cell by cell.

    ``cells`` is a list of per-cell dicts (spec order): observation
    count ``n``, trials ``executed`` this run, pre-keyed replicates
    ``skipped`` because the cell closed early, the final ``halfwidth``
    of the plan's metric and the close reason (``converged`` /
    ``exhausted`` / ``capped``).
    """

    plan: dict
    cells: List[dict]

    @property
    def total_executed(self) -> int:
        return sum(cell["executed"] for cell in self.cells)

    @property
    def total_skipped(self) -> int:
        return sum(cell["skipped"] for cell in self.cells)

    @property
    def converged_cells(self) -> int:
        return sum(1 for cell in self.cells
                   if cell["closed"] == CONVERGED)

    def as_dict(self) -> dict:
        return {"plan": dict(self.plan),
                "cells": [dict(cell) for cell in self.cells],
                "total_executed": self.total_executed,
                "total_skipped": self.total_skipped,
                "converged_cells": self.converged_cells}


def _build_trackers(trials, completed,
                    fresh) -> "Dict[tuple, CellTracker]":
    """Per-cell trackers over ``trials``, with ``completed`` records
    (a key -> record dict) folded in — the one construction both the
    scheduler and the stored-records summary use, so cell identity and
    record folding can never diverge between them.  ``fresh`` says
    whether the records count as executed (or as resumed).
    """
    trackers: Dict[tuple, CellTracker] = {}
    for trial in trials:
        cell = trial_cell(trial)
        tracker = trackers.get(cell)
        if tracker is None:
            tracker = CellTracker(cell, order=len(trackers))
            trackers[cell] = tracker
        if trial.key not in completed:
            tracker.pending.append(trial)
    for key, record in completed.items():
        trial = record.get("trial")
        if isinstance(trial, dict):
            tracker = trackers.get(trial_cell(trial))
            if tracker is not None:
                tracker.observe(record, fresh=fresh)
    return trackers


def _target_met(tracker: CellTracker, plan: SamplingPlan) -> bool:
    """The one stop rule: enough observations of the metric's own
    denominator AND a tight enough interval."""
    return (tracker.sample_size(plan.metric) >= plan.min_replicates
            and tracker.halfwidth(plan.metric)
            <= plan.target_halfwidth)


def merged_adaptive_summary(plan: SamplingPlan, trials, completed
                            ) -> AdaptiveSummary:
    """The :class:`AdaptiveSummary` of a finished adaptive run, rebuilt
    from its stored records alone (the campaign service's ``/result``).

    ``closed`` is the verdict over all of a cell's records:
    ``converged`` (the sample meets the target), ``exhausted`` (every
    replicate ran) or ``capped`` (replicates were left unrun without
    the target met — ``max_replicates`` cut the cell, which the live
    scheduler closes as ``capped``).
    """
    trackers = _build_trackers(trials, completed, fresh=True)
    for tracker in trackers.values():
        if _target_met(tracker, plan):
            tracker.closed = CONVERGED
        elif not tracker.pending:
            tracker.closed = EXHAUSTED
        else:
            tracker.closed = CAPPED
    return AdaptiveSummary(
        plan=plan.to_dict(),
        cells=[tracker.as_dict(plan.metric)
               for tracker in trackers.values()])


class AdaptiveScheduler:
    """Greedy widest-interval-first selector over pre-keyed trials.

    Scheduling policy, evaluated every time a worker slot frees up:

    1. every open cell is seeded to ``min_replicates`` observations
       (spec order — deterministic);
    2. after seeding, the next trial is the lowest un-run replicate of
       the open cell with the **widest** half-width — projected over
       its in-flight trials, so a wide pool spreads instead of
       flooding one cell (ties break on spec order) — which is exactly
       "reallocate the budget freed by converged cells to the noisiest
       cells".  A cell whose in-flight trials are projected to meet
       the target gets nothing more until they land, as in a serial
       run: a replicate started then would likely run past the
       convergence point;
    3. a cell closes as ``converged`` the moment its half-width meets
       the target with ``min_replicates`` observations, as ``capped``
       when it reaches ``max_replicates`` unconverged, and as
       ``exhausted`` when its pre-keyed replicates run out.

    The scheduler never invents trials: an unreachable target simply
    runs every pending replicate, reproducing the fixed plan.
    """

    def __init__(self, plan: SamplingPlan, trials,
                 completed: Dict[str, dict]):
        if not plan.is_adaptive:
            raise ConfigError("AdaptiveScheduler needs a wilson plan")
        self.plan = plan
        # Resumed records count toward their cell's interval before any
        # scheduling happens — that is what makes --resume land
        # mid-adaptation instead of starting the sample over.
        self.trackers = _build_trackers(trials, completed, fresh=False)
        for tracker in self.trackers.values():
            self._close_if_done(tracker)

    # -- state transitions --------------------------------------------------

    def _cap(self, tracker) -> float:
        if self.plan.max_replicates is None:
            return float("inf")
        return self.plan.max_replicates

    def _close_if_done(self, tracker) -> Optional[str]:
        """Close ``tracker`` if any stop rule fires; returns the
        transition (None if the cell stays open or was closed before).
        """
        if tracker.closed is not None:
            return None
        if _target_met(tracker, self.plan):
            tracker.closed = CONVERGED
            return CONVERGED
        if tracker.inflight == 0:
            if not tracker.pending:
                tracker.closed = EXHAUSTED
                return EXHAUSTED
            if tracker.scheduled >= self._cap(tracker):
                tracker.closed = CAPPED
                return CAPPED
        return None

    def _projected_met(self, tracker) -> bool:
        """Would the cell meet the target if its in-flight trials
        landed at its current proportion?"""
        metric = self.plan.metric
        return (tracker.inflight > 0
                and tracker.sample_size(metric) + tracker.inflight
                >= self.plan.min_replicates
                and tracker.projected_halfwidth(metric)
                <= self.plan.target_halfwidth)

    def _open_cells(self):
        return [tracker for tracker in self.trackers.values()
                if tracker.closed is None and tracker.pending
                and tracker.scheduled < self._cap(tracker)]

    def next_trial(self):
        """The next pre-keyed trial to run, or None if nothing is
        currently schedulable (all cells closed, or every open cell is
        fully in flight or waits on in-flight trials projected to
        converge it)."""
        candidates = self._open_cells()
        if not candidates:
            return None
        # Seeding is a floor on *work* (trials dispatched), so it uses
        # total scheduled observations; the convergence floor over the
        # metric's denominator lives in _target_met.
        seeding = [tracker for tracker in candidates
                   if tracker.scheduled < self.plan.min_replicates]
        if seeding:
            tracker = min(seeding, key=lambda t: t.order)
        else:
            metric = self.plan.metric
            candidates = [tracker for tracker in candidates
                          if not self._projected_met(tracker)]
            if not candidates:
                return None
            tracker = max(candidates,
                          key=lambda t: (t.projected_halfwidth(metric),
                                         -t.order))
        trial = tracker.pending.pop(0)
        tracker.inflight += 1
        return trial

    def record_finished(self, record) -> Optional[CellTracker]:
        """Observe one fresh record; returns the tracker if this very
        record converged its cell (for a ``cell_converged`` event)."""
        trial = record.get("trial")
        tracker = self.trackers.get(trial_cell(trial)) \
            if isinstance(trial, dict) else None
        if tracker is None:
            return None
        tracker.inflight -= 1
        tracker.observe(record, fresh=True)
        return tracker if self._close_if_done(tracker) == CONVERGED \
            else None

    def pending(self) -> int:
        """Trials not handed out yet that an open cell could still
        run."""
        return sum(len(tracker.pending) for tracker in self._open_cells())

    def pre_converged(self):
        """Cells already converged from resumed records alone."""
        return [tracker for tracker in self.trackers.values()
                if tracker.closed == CONVERGED and tracker.executed == 0]

    def summary(self) -> AdaptiveSummary:
        metric = self.plan.metric
        return AdaptiveSummary(
            plan=self.plan.to_dict(),
            cells=[tracker.as_dict(metric)
                   for tracker in self.trackers.values()])
