"""Campaign API v2: the :class:`CampaignSession` facade.

A session owns everything one campaign run needs — the spec (or a
:meth:`~repro.campaign.spec.CampaignSpec.shard` of one), an
:class:`ExecutionOptions` bundle (how trials run: pool width, cycle
budget, sampling plan and per-trial deadline and retries), a
:class:`~repro.campaign.store.StoreBackend`, and a typed
:class:`CampaignEvent` stream — and exposes the four verbs of the
campaign lifecycle::

    session = CampaignSession(spec, options=ExecutionOptions(workers=4),
                              store="sqlite:campaign.db")
    session.subscribe(lambda e: print(e.kind, e.done, e.total))
    result = session.run()          # or session.resume()
    print(session.progress())
    for cell in session.aggregate():
        ...

Events replace the bare ``progress(done, total, record)`` closure with
a typed protocol: ``trial_started`` / ``trial_finished`` per trial,
``cell_finished`` when the last trial of a (workload, model, machine,
rate, mix) grid cell completes in this run, and ``campaign_finished``
once the full record set is assembled.  Listeners are plain callables
receiving the frozen event object.

The engine guarantees of PR 1 are unchanged: parallelism is purely a
wall-clock optimisation (per-trial seeds derive from trial keys, never
from scheduling order), records are re-ordered into spec-expansion
order before aggregation, and any store backend makes a killed
campaign resumable from its completed keys.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..wire import (Wire, integer, items, mapping, nested, optional,
                    scalar, text, wire)
from .adaptive import AdaptiveScheduler, AdaptiveSummary, SamplingPlan
from .aggregate import aggregate, aggregate_structures, trial_cell
from .outcome import run_trial
from .spec import CampaignShard, CampaignSpec, Trial
from .store import StoreBackend, open_store
from ..resilience.watchdog import TRIAL_TIMEOUT, PoolSupervisor

# -- events ----------------------------------------------------------------

TRIAL_STARTED = "trial_started"
TRIAL_FINISHED = "trial_finished"
CELL_FINISHED = "cell_finished"
CELL_CONVERGED = "cell_converged"
CAMPAIGN_FINISHED = "campaign_finished"

#: Every event kind a session can emit, in lifecycle order.
#: ``cell_converged`` only fires under an adaptive
#: :class:`~repro.campaign.adaptive.SamplingPlan`, when a cell's
#: confidence interval reaches the target before its replicates run
#: out (the cell's remaining pre-keyed trials are then skipped, so its
#: ``cell_finished`` never fires).
EVENT_KINDS = (TRIAL_STARTED, TRIAL_FINISHED, CELL_FINISHED,
               CELL_CONVERGED, CAMPAIGN_FINISHED)


@dataclass(frozen=True)
class CampaignEvent(Wire):
    """One typed notification from a running session.

    ``done``/``total`` always refer to whole-campaign trial progress
    (resumed trials count as done).  ``trial`` is the
    ``Trial.to_dict()`` of the trial concerned (started/finished),
    ``record`` the finished trial's result record, and ``cell`` the
    (workload, model, machine, rate, mix) tuple of a completed grid
    cell.  With ``workers > 1``, ``trial_started`` fires at pool
    submission time and finish order follows the pool's scheduling —
    only the final record set is order-deterministic.

    :meth:`to_dict` is the wire format of the campaign service's SSE
    progress stream; unset optional fields are left out.
    """

    kind: str = wire(text(EVENT_KINDS))
    done: int = wire(integer(0))
    total: int = wire(integer(0))
    trial: Optional[dict] = wire(optional(mapping()), None, omit=True)
    record: Optional[dict] = wire(optional(mapping()), None, omit=True)
    #: A list on the wire (JSON has no tuples); from_dict restores it.
    cell: Optional[tuple] = wire(optional(items(scalar())), None,
                                 omit=True)


#: A session listener: any callable accepting one CampaignEvent.
CampaignListener = Callable[[CampaignEvent], None]


# -- options ---------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionOptions(Wire):
    """How a session executes trials (never *what* it executes).

    ``workers`` widens the process pool; ``max_cycles`` stamps a cycle
    budget onto a spec that does not set one (it is part of trial
    identity, so the session refuses to silently contradict a spec's
    own value); ``sampling`` attaches a
    :class:`~repro.campaign.adaptive.SamplingPlan` — a wilson plan
    stops statistically converged cells early and spends the freed
    replicate budget on the widest-interval cells (``None`` and
    ``SamplingPlan.fixed()`` are the historical run-everything
    behaviour).

    The resilience knobs only shape the pooled execution path
    (``workers > 1``): ``trial_timeout`` is the per-trial *wall-clock*
    deadline, counted from the trial's dispatch to a free worker,
    distinguishing an infrastructure hang from the simulated
    ``timeout`` outcome (which returns promptly as a normal record);
    ``trial_retries`` bounds how often one trial may be re-submitted
    across pool rebuilds before the run fails with
    :class:`~repro.errors.TrialHangError`.  The serial path
    (``workers == 1``, the benchmark hot path) is untouched by both —
    zero overhead.  Retried store writes are the store's business:
    pass a :class:`~repro.campaign.store.RetryingStore` as the
    session's ``store``.

    Checkpointed fast-forward (:mod:`repro.campaign.checkpoint`) is not
    an option: every struck trial takes it, and each worker fills its
    per-process caches (programs, golden traces, fault-free twins) as
    its trials land.
    """

    workers: int = wire(integer(1), 1)
    max_cycles: Optional[int] = wire(optional(integer(1)), None, omit=True)
    sampling: Optional[SamplingPlan] = wire(
        optional(nested(SamplingPlan)), None, omit=True)
    trial_timeout: Optional[float] = wire(TRIAL_TIMEOUT, None, omit=True)
    trial_retries: int = wire(integer(0), 2, omit=True)

    def __post_init__(self):
        self.check()

    @property
    def adaptive(self) -> bool:
        """Whether this options bundle schedules trials adaptively."""
        return self.sampling is not None and self.sampling.is_adaptive

    def trial_payload(self, trial: Trial) -> dict:
        """The worker-pool payload for one trial (plain dicts only)."""
        return {"trial": trial.to_dict()}


# -- results ---------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything a finished (or resumed) campaign run produced."""

    spec: object
    #: One record per trial of the grid, in spec-expansion order.
    #: Under an adaptive plan, trials a converged cell never ran have
    #: no record — the list is then the executed subset, still in spec
    #: order.
    records: list = field(default_factory=list)
    executed: int = 0               # trials simulated by this run
    skipped: int = 0                # trials satisfied from the store
    #: :class:`~repro.campaign.adaptive.AdaptiveSummary` of what the
    #: scheduler did (None for fixed-plan runs).
    adaptive: Optional[AdaptiveSummary] = None

    @property
    def outcome_counts(self):
        counts = {}
        for record in self.records:
            counts[record["outcome"]] = \
                counts.get(record["outcome"], 0) + 1
        return counts


@dataclass(frozen=True)
class CampaignProgress:
    """A point-in-time snapshot of a session's completion state."""

    done: int
    total: int

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    def __str__(self):
        return "%d/%d trials (%.1f%%)" % (self.done, self.total,
                                          100.0 * self.fraction)


def execute_trial_payload(payload):
    """Worker entry point: run one serialised trial, return its record.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it; takes and returns plain dicts for the same reason.  The
    payload is :meth:`ExecutionOptions.trial_payload` output.
    """
    return run_trial(Trial.from_dict(payload["trial"])).to_record()


#: The aggregation cell a trial (as a dict) belongs to — shared with
#: the aggregate reducer so the two can never drift.
_cell_of = trial_cell


# -- the facade ------------------------------------------------------------

class CampaignSession:
    """Stateful facade over one campaign: spec + options + store + events.

    ``spec`` may be a :class:`~repro.campaign.spec.CampaignSpec` or a
    :class:`~repro.campaign.spec.CampaignShard`; ``store`` a
    :class:`~repro.campaign.store.StoreBackend` instance or a URL-style
    path (``out.jsonl`` / ``sqlite:campaign.db`` / ``shard:dir/`` —
    see :func:`~repro.campaign.store.open_store`).

    :meth:`run` executes every trial into an empty (or absent) store;
    :meth:`resume` skips trials whose keys the store already holds.
    Either way :attr:`result` ends up with one record per trial in
    spec-expansion order, and :meth:`aggregate` reduces them to
    per-cell statistics.  A session whose store was filled by previous
    runs (or by :func:`~repro.campaign.store.merge_stores` over shard
    stores) can call :meth:`aggregate` without running at all.
    """

    def __init__(self, spec, options: Optional[ExecutionOptions] = None,
                 store=None,
                 listeners: Tuple[CampaignListener, ...] = ()):
        self.options = options if options is not None \
            else ExecutionOptions()
        self.spec = self._stamp_max_cycles(spec, self.options.max_cycles)
        self.store: Optional[StoreBackend] = open_store(store)
        self._listeners: List[CampaignListener] = list(listeners)
        self.result: Optional[CampaignResult] = None

    @staticmethod
    def _stamp_max_cycles(spec, max_cycles):
        if max_cycles is None:
            return spec
        current = getattr(spec, "max_cycles", None)
        if current == max_cycles:
            return spec
        if current is not None:
            raise ConfigError(
                "options.max_cycles=%d contradicts the spec's "
                "max_cycles=%d (max_cycles is part of every trial key; "
                "change the spec instead)" % (max_cycles, current))
        # isinstance, not duck typing: a CampaignShard delegates every
        # spec attribute (including `shard`), so only the concrete type
        # says which replace() is legal.
        if isinstance(spec, CampaignShard):
            # Re-stamp the underlying spec, keep the shard view.
            return replace(spec.spec, max_cycles=max_cycles).shard(
                spec.index, spec.total)
        if isinstance(spec, CampaignSpec):
            return replace(spec, max_cycles=max_cycles)
        raise ConfigError(
            "options.max_cycles cannot be stamped onto %s; set "
            "max_cycles on the spec itself" % type(spec).__name__)

    # -- event stream ------------------------------------------------------

    def subscribe(self, listener: CampaignListener) -> CampaignListener:
        """Attach a listener; returns it (usable as a decorator)."""
        self._listeners.append(listener)
        return listener

    def _emit(self, kind, done, total, trial=None, record=None,
              cell=None):
        if not self._listeners:
            return
        event = CampaignEvent(kind=kind, done=done, total=total,
                              trial=trial, record=record, cell=cell)
        for listener in self._listeners:
            listener(event)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute every trial of the spec (store must be fresh)."""
        return self._run(resume=False)

    def resume(self) -> CampaignResult:
        """Execute only the trials the store has no record of yet."""
        if self.store is None:
            raise ConfigError("resume requires a result store")
        return self._run(resume=True)

    def progress(self) -> CampaignProgress:
        """Completion snapshot: from the finished result if this
        session ran, else from the store's completed keys."""
        trials = list(self.spec.trials())
        if self.result is not None:
            return CampaignProgress(done=len(self.result.records),
                                    total=len(trials))
        done = 0
        if self.store is not None and self.store.exists:
            completed = self.store.completed_keys()
            done = sum(1 for trial in trials if trial.key in completed)
        return CampaignProgress(done=done, total=len(trials))

    def records(self) -> List[dict]:
        """This campaign's records, in spec-expansion order.

        From :attr:`result` after a run; otherwise loaded from the
        store (e.g. an earlier run's file, or shard stores merged via
        :func:`~repro.campaign.store.merge_stores`) and re-ordered —
        which is what makes merged-shard aggregation byte-identical to
        a single-host run.
        """
        if self.result is not None:
            return self.result.records
        if self.store is None:
            raise ConfigError("no result yet and no store to load "
                              "records from; call run() first")
        by_key = {record["key"]: record for record in self.store.load()}
        return [by_key[trial.key] for trial in self.spec.trials()
                if trial.key in by_key]

    def aggregate(self):
        """Per-cell statistics of :meth:`records` (spec order)."""
        return aggregate(self.records())

    def aggregate_structures(self):
        """Per-structure sensitivity of this campaign's fault-site
        trials (empty for rate-only campaigns)."""
        return aggregate_structures(self.records())

    # -- execution core ----------------------------------------------------

    def _run(self, resume) -> CampaignResult:
        trials = list(self.spec.trials())
        total = len(trials)
        completed: Dict[str, dict] = {}
        if self.store is not None:
            if resume:
                wanted = {trial.key for trial in trials}
                completed = {record["key"]: record
                             for record in self.store.load()
                             if record["key"] in wanted}
            else:
                if self.store.completed_keys():
                    raise ConfigError(
                        "result store %s already holds completed "
                        "trials; pass resume=True (--resume) to "
                        "continue it, or delete the file to start "
                        "fresh" % self.store.path)
                self.store.truncate()
        todo = [trial for trial in trials if trial.key not in completed]
        result = CampaignResult(spec=self.spec, executed=len(todo),
                                skipped=total - len(todo))
        if self.options.adaptive:
            source = AdaptiveScheduler(self.options.sampling, trials,
                                       completed)
            for tracker in source.pre_converged():
                # Cells the resumed store already settled: surface the
                # decision even though this run executes nothing for
                # them.
                self._emit(CELL_CONVERGED, done=len(completed),
                           total=total, cell=tracker.cell)
        else:
            source = _FixedPlan(todo)
        fresh = self._execute(source, todo, done_offset=len(completed),
                              total=total)
        completed.update(fresh)
        if self.options.adaptive:
            result.adaptive = source.summary()
            result.executed = len(fresh)
            # Converged cells legitimately leave replicates unrun.
            result.records = [completed[trial.key] for trial in trials
                              if trial.key in completed]
        else:
            # Fixed plans must cover the grid — a missing record is a
            # store/worker defect and must fail loudly (KeyError), not
            # silently shrink the aggregate.
            result.records = [completed[trial.key] for trial in trials]
        self.result = result
        self._emit(CAMPAIGN_FINISHED, done=len(result.records),
                   total=total)
        return result

    def _make_collector(self, records, source, todo, done_offset,
                        total):
        """The per-record bookkeeping closure: store append, progress
        counter and the ``trial_finished`` / ``cell_converged`` /
        ``cell_finished`` events.

        ``cell_finished`` fires when the last outstanding trial of a
        cell completes in this run; cells fully satisfied from the
        store never re-fire.  The source observes each record first: a
        cell it converges keeps a positive remainder forever, and a
        cell whose final pending replicate is also its converging
        observation (or a straggler landing after convergence) emits
        only ``cell_converged`` — the two events are documented as
        mutually exclusive per cell.
        """
        cell_remaining: Dict[tuple, int] = {}
        for trial in todo:
            cell = _cell_of(trial)
            cell_remaining[cell] = cell_remaining.get(cell, 0) + 1
        converged = set()
        state = {"done": done_offset}

        def collect(record):
            records[record["key"]] = record
            if self.store is not None:
                self.store.append(record)
            state["done"] += 1
            done = state["done"]
            trial_dict = record.get("trial")
            self._emit(TRIAL_FINISHED, done=done, total=total,
                       trial=trial_dict, record=record)
            tracker = source.record_finished(record)
            if tracker is not None:
                converged.add(tracker.cell)
                self._emit(CELL_CONVERGED, done=done, total=total,
                           cell=tracker.cell)
            if isinstance(trial_dict, dict):
                cell = _cell_of(trial_dict)
                remaining = cell_remaining.get(cell)
                if remaining is not None:
                    if remaining <= 1:
                        del cell_remaining[cell]
                        if cell not in converged:
                            self._emit(CELL_FINISHED, done=done,
                                       total=total, cell=cell)
                    else:
                        cell_remaining[cell] = remaining - 1

        return collect, state

    def _execute(self, source, todo, done_offset, total):
        """Run the trials ``source`` hands out; return {key: record}.

        ``source`` is the plan's
        :class:`~repro.campaign.adaptive.AdaptiveScheduler` or a
        :class:`_FixedPlan` over ``todo`` (the outstanding trials).
        Without a pool the trials run in-process, one after another.
        With one, :meth:`_admit` decides when the next trial starts and
        the source which trial it is, once per landing — so an adaptive
        plan steers every freed slot to the widest open interval, and a
        trial's deadline starts when a worker is free to run it rather
        than while it waits in a queue.
        """
        records: Dict[str, dict] = {}
        collect, state = self._make_collector(records, source, todo,
                                              done_offset, total)
        pool = self._open_pool(todo, state, total)
        if pool is None:
            while True:
                trial = source.next_trial()
                if trial is None:
                    return records
                self._emit(TRIAL_STARTED, done=state["done"],
                           total=total, trial=trial.to_dict())
                collect(execute_trial_payload(
                    self.options.trial_payload(trial)))
        supervisor, close = pool
        try:
            while True:
                trial = self._admit(source, supervisor.inflight)
                if trial is not None:
                    supervisor.submit(trial.key, execute_trial_payload,
                                      self.options.trial_payload(trial),
                                      context=trial)
                    self._emit(TRIAL_STARTED, done=state["done"],
                               total=total, trial=trial.to_dict())
                elif supervisor.inflight:
                    for _trial, record in supervisor.wait(
                            self._admit_interval):
                        collect(record)
                else:
                    return records
        finally:
            close()

    #: How long the pooled loop waits for a landing before it asks
    #: :meth:`_admit` again (None: until a trial lands or its deadline
    #: passes).
    _admit_interval: Optional[float] = None

    def _admit(self, source, inflight):
        """The next trial to start now, or None while none may.

        A session keeps up to ``workers`` trials in flight; the
        campaign service gates every trial on a fair slot grant
        instead.
        """
        if inflight >= self.options.workers:
            return None
        return source.next_trial()

    def _open_pool(self, todo, state, total):
        """This run's pool as ``(supervisor, close)``, or None to run
        in-process (``workers == 1``, or a single trial to run).

        The pool is session-private: the supervisor retires a broken
        executor through ``reset_pool`` and lazily rebuilds through
        ``get_pool``, so a SIGKILL'd pool worker (or a trial past
        ``options.trial_timeout``) costs a rebuild + resubmit instead
        of the whole session.
        """
        workers = self.options.workers
        if workers == 1 or len(todo) <= 1:
            return None
        holder = {"pool": None}

        def get_pool():
            if holder["pool"] is None:
                holder["pool"] = ProcessPoolExecutor(max_workers=workers)
            return holder["pool"]

        def reset_pool(broken=None):
            pool = holder["pool"]
            if pool is None or (broken is not None
                                and pool is not broken):
                return
            holder["pool"] = None
            pool.shutdown(wait=False, cancel_futures=True)

        def close():
            pool = holder["pool"]
            holder["pool"] = None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

        return self._supervise(get_pool, reset_pool, state, total), close

    def _supervise(self, get_pool, reset_pool, state, total,
                   **callbacks) -> PoolSupervisor:
        """A :class:`~repro.resilience.watchdog.PoolSupervisor` with
        this session's deadline and retry budget.

        Every resubmission re-emits ``trial_started`` — listeners see
        the retry, and the record that eventually lands is
        byte-identical (trial seeds derive from trial keys, not
        scheduling).
        """
        def on_resubmit(trial, attempt):
            self._emit(TRIAL_STARTED, done=state["done"], total=total,
                       trial=trial.to_dict())

        return PoolSupervisor(
            get_pool, reset_pool,
            trial_timeout=self.options.trial_timeout,
            trial_retries=self.options.trial_retries,
            on_resubmit=on_resubmit, **callbacks)


class _FixedPlan:
    """The fixed plan's trial source: every outstanding trial, in spec
    order, behind the :class:`~repro.campaign.adaptive.
    AdaptiveScheduler` surface the execution loop drives."""

    def __init__(self, todo):
        self._todo = deque(todo)

    def next_trial(self) -> Optional[Trial]:
        return self._todo.popleft() if self._todo else None

    def record_finished(self, record) -> None:
        """A fixed plan converges nothing."""

    def pending(self) -> int:
        """Trials not handed out yet."""
        return len(self._todo)
