"""Execution backend of the campaign service.

One :class:`ServiceBackend` owns everything between the HTTP front-end
and the simulator:

* the :class:`~repro.service.jobs.JobQueue` (priorities, quotas) and
  an admission thread that claims runnable jobs;
* a shared :class:`concurrent.futures.ProcessPoolExecutor` of
  ``slots`` workers, gated by the
  :class:`~repro.service.scheduler.SlotPool` so concurrent tenants
  split the slots by weighted max-min over live demand;
* one :class:`JobRunner` thread per running job.  ``shards=0`` jobs
  execute trial-by-trial through a :class:`_GatedSession` — a
  :class:`~repro.campaign.api.CampaignSession` whose execution core
  asks the slot pool before every submission, so fairness is enforced
  at trial granularity; ``shards>=1`` jobs acquire that many slots and
  drive a :class:`~repro.campaign.orchestrator.CampaignOrchestrator`
  (its ``stop_requested`` hook wired to the runner's stop flag);
* per-job cancellation (:meth:`ServiceBackend.cancel`), graceful
  drain (:meth:`ServiceBackend.drain` — stop admitting, let in-flight
  trials land, mark running jobs ``interrupted``) and restart
  recovery (:meth:`ServiceBackend.recover` — any non-terminal job
  re-queues and resumes from its result store, which the per-record
  fsync of :class:`~repro.campaign.store.JSONLStore` makes exact even
  after SIGKILL).

Every record lands in the job's own ``store.jsonl`` through the
ordinary session bookkeeping, so a job's merged results are
byte-identical to running its spec through a plain
:class:`CampaignSession` — the service adds scheduling, never
semantics.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional

from ..campaign import (CampaignOrchestrator, CampaignSession,
                        CampaignSpec, ExecutionOptions, RetryingStore,
                        aggregate, aggregate_structures,
                        execute_trial_payload, merged_adaptive_summary)
from ..campaign.adaptive import CAPPED, CONVERGED
from ..campaign.aggregate import trial_cell
from ..campaign.api import (CELL_CONVERGED, TRIAL_FINISHED,
                            TRIAL_STARTED)
from ..errors import (OrchestratorStopped, ReproError, ServiceError)
from ..resilience.circuit import CircuitBreaker
from ..resilience.retry import RetryPolicy
from ..resilience.watchdog import PoolSupervisor, kill_pool_workers
from .events import (EventLog, JOB_CANCELLED, JOB_DEGRADED, JOB_FAILED,
                     JOB_FINISHED, JOB_INTERRUPTED, JOB_QUEUED,
                     JOB_RESUMED, JOB_STARTED, job_event)
from .jobs import (CANCELLED, DONE, FAILED, INTERRUPTED, Job, JobQueue,
                   QUEUED, RUNNING, new_job_id)
from .scheduler import (FairScheduler, ReplicateBudget, SlotPool,
                        TenantConfig)

#: The service watches stores and futures at this cadence — much
#: tighter than the orchestrator's standalone 0.2 s default, because
#: SSE subscribers are watching live.
SERVICE_POLL_INTERVAL = 0.05


class _JobStopped(Exception):
    """Internal: a runner honoured its stop flag mid-execution."""


class _GatedSession(CampaignSession):
    """A session whose execution core is the backend's shared,
    fairness-gated slot pool instead of a private process pool.

    Everything else — resume semantics, store appends, the event
    protocol, adaptive bookkeeping, record assembly — is the parent's,
    which is precisely what makes service results byte-identical to a
    plain session run.
    """

    def __init__(self, *args, runner: "JobRunner", **kwargs):
        super().__init__(*args, **kwargs)
        self._runner = runner

    def _execute(self, todo, cell_remaining, done_offset, total):
        return self._runner.pump(self, list(todo), cell_remaining,
                                 done_offset, total, adaptive=None)

    def _execute_adaptive(self, scheduler, cell_remaining, done_offset,
                          total):
        return self._runner.pump(self, None, cell_remaining,
                                 done_offset, total, adaptive=scheduler)


class JobRunner(threading.Thread):
    """Drives one job from RUNNING to a terminal (or interrupted)
    state; one thread per active job."""

    def __init__(self, backend: "ServiceBackend", job: Job):
        super().__init__(name="job-%s" % job.id, daemon=True)
        self.backend = backend
        self.job = job
        self.log = backend.event_log(job.id)
        self._stop_event = threading.Event()
        #: CANCELLED or INTERRUPTED once a stop was requested.
        self.stop_reason: Optional[str] = None
        #: Per-runner circuit breaker over infrastructure failures
        #: (pool breakage, hung trials).  OPEN => shed adaptive extra
        #: replicates instead of risking the whole job.
        self.breaker = CircuitBreaker(
            failure_threshold=backend.breaker_threshold,
            recovery_time=backend.breaker_recovery)
        #: Guards the liveness fields below — they are written from
        #: the runner thread and read by the backend liveness thread.
        self._progress_lock = threading.Lock()
        #: monotonic() stamp of the last observed progress (submission
        #: or landed record) — the backend liveness thread's lease.
        self.progress_stamp = time.monotonic()
        #: Trials currently in flight on the shared pool (liveness
        #: only kills pool workers for runners that actually wait).
        self.inflight = 0

    def mark_progress(self, inflight: int):
        """Stamp forward progress and publish the in-flight count
        (runner thread)."""
        with self._progress_lock:
            self.progress_stamp = time.monotonic()
            self.inflight = inflight

    def set_inflight(self, inflight: int):
        with self._progress_lock:
            self.inflight = inflight

    def lease_expired(self, now: float, lease: float) -> bool:
        """Liveness probe (backend thread): True when in-flight work
        has not progressed within ``lease`` seconds.  Renews the
        stamp on expiry so one wedged runner triggers at most one
        pool kill per lease interval."""
        with self._progress_lock:
            if self.inflight and now - self.progress_stamp > lease:
                self.progress_stamp = now
                return True
            return False

    def request_stop(self, reason: str):
        """Ask the runner to stop; cancellation wins over drain."""
        if self.stop_reason != CANCELLED:
            self.stop_reason = reason
        self._stop_event.set()

    @property
    def stopping(self) -> bool:
        return self._stop_event.is_set()

    # -- lifecycle ---------------------------------------------------------

    def run(self):
        job = self.job
        backend = self.backend
        store = job.store(backend.data_dir)
        if backend.store_retry is not None:
            # Job stores are the durable truth of the service; retry
            # transient write errors instead of failing the job.
            store = RetryingStore(store, policy=backend.store_retry)
        resumed = store.exists and bool(store.completed_keys())
        job.started_at = time.time()
        job.save(backend.data_dir)
        self.log.append(job_event(JOB_RESUMED if resumed
                                  else JOB_STARTED, job))
        try:
            if job.shards:
                self._run_orchestrated(store)
            else:
                self._run_pooled(store, resume=resumed)
        except _JobStopped:
            job.state = self.stop_reason or INTERRUPTED
            self.log.append(job_event(
                JOB_CANCELLED if job.state == CANCELLED
                else JOB_INTERRUPTED, job))
        except ReproError as exc:
            job.state = FAILED
            job.error = str(exc)
            self.log.append(job_event(JOB_FAILED, job))
        except Exception as exc:     # noqa: BLE001 — a runner must
            # never take the service down with it; the job carries
            # the diagnosis instead.
            job.state = FAILED
            job.error = "%s: %s" % (type(exc).__name__, exc)
            self.log.append(job_event(JOB_FAILED, job))
        else:
            job.state = DONE
            self.log.append(job_event(JOB_FINISHED, job))
        finally:
            if job.state != INTERRUPTED:
                job.finished_at = time.time()
            job.save(backend.data_dir)
            backend._runner_finished(self)

    def _listener(self):
        job = self.job
        log = self.log

        def listener(event):
            log.append(event)
            job.done = event.done
            job.total = event.total
        return listener

    # -- trial-level execution (shards == 0) -------------------------------

    def _run_pooled(self, store, resume: bool):
        session = _GatedSession(self.job.spec, options=self.job.options,
                                store=store, runner=self,
                                listeners=(self._listener(),))
        if resume:
            result = session.resume()
        else:
            result = session.run()
        self.job.done = len(result.records)

    def pump(self, session, todo: Optional[List], cell_remaining,
             done_offset, total, adaptive):
        """The gated execution core both session paths funnel into.

        Fixed plans hand in their ``todo`` list; adaptive plans hand
        in their :class:`AdaptiveScheduler`.  Every submission first
        wins a slot from the fair pool (and, for adaptive extras
        beyond the seed replicates, a replicate-budget token), so the
        scheduler's allocation is enforced one trial at a time.
        """
        backend = self.backend
        tenant = self.job.tenant
        consumer = self.job.id
        plan = session.options.sampling
        records: Dict[str, dict] = {}
        on_record = None
        if adaptive is not None:
            def on_record(record, done):
                converged = adaptive.record_finished(record)
                if converged is not None:
                    session._emit(CELL_CONVERGED, done=done,
                                  total=total, cell=converged.cell)
                trial = record.get("trial")
                if not isinstance(trial, dict):
                    return False
                tracker = adaptive.trackers.get(trial_cell(trial))
                return tracker is not None \
                    and tracker.closed == CONVERGED
        collect, state = session._make_collector(
            records, cell_remaining, done_offset, total,
            on_record=on_record)
        if adaptive is not None:
            for tracker in adaptive.pre_converged():
                session._emit(CELL_CONVERGED, done=state["done"],
                              total=total, cell=tracker.cell)
        deferred = None                 # adaptive trial awaiting token
        held = 0                        # slots this runner holds
        options = session.options
        timeout = options.trial_timeout \
            if options.trial_timeout is not None \
            else backend.trial_timeout

        def on_resubmit(trial, attempt):
            # A recovered trial re-enters the pool: listeners see the
            # retry as a fresh trial_started; the record that lands
            # is byte-identical (seeds derive from keys).
            session._emit(TRIAL_STARTED, done=state["done"],
                          total=total, trial=trial.to_dict())

        supervisor = PoolSupervisor(
            get_pool=lambda: backend.pool,
            reset_pool=backend.reset_pool,
            trial_timeout=timeout,
            trial_retries=options.trial_retries,
            on_resubmit=on_resubmit,
            on_failure=self.breaker.record_failure,
            on_success=self.breaker.record_success)

        def open_pending() -> int:
            """Trials still schedulable (not yet in flight)."""
            if adaptive is None:
                return len(todo)
            cap = float("inf") if plan.max_replicates is None \
                else plan.max_replicates
            count = 1 if deferred is not None else 0
            for tracker in adaptive.trackers.values():
                if tracker.closed is None and tracker.pending \
                        and tracker.scheduled < cap:
                    count += len(tracker.pending)
            return count

        def is_extra(trial) -> bool:
            """Whether this adaptive trial exceeds its cell's seed."""
            tracker = adaptive.trackers.get(trial_cell(trial))
            return tracker is not None \
                and tracker.scheduled > plan.min_replicates

        def shed_extras() -> int:
            """Close every cell already at its seed replicates.

            The breaker tripping means the infrastructure keeps
            failing under this job; adaptive *extra* replicates are
            optional statistical tightening, so they are shed (the
            cells close as CAPPED — an explicit budget cut, not a
            convergence decision) and the job finishes on what the
            seed replicates support.
            """
            shed = 0
            for tracker in adaptive.trackers.values():
                if tracker.closed is None \
                        and tracker.scheduled >= plan.min_replicates:
                    tracker.closed = CAPPED
                    shed += len(tracker.pending)
            if shed:
                self.log.append(job_event(
                    JOB_DEGRADED, self.job,
                    detail="circuit breaker open: shed %d adaptive "
                           "extra replicate%s"
                           % (shed, "" if shed == 1 else "s")))
            return shed

        def select() -> Optional[object]:
            """The next trial to submit, or None (nothing available
            or the replicate budget paced us this epoch)."""
            nonlocal deferred
            if adaptive is None:
                return todo.pop(0) if todo else None
            trial = deferred if deferred is not None \
                else adaptive.next_trial()
            deferred = None
            if trial is None:
                return None
            if is_extra(trial) \
                    and not backend.replicate_budget.try_take(tenant):
                deferred = trial
                return None
            return trial

        def submit_some():
            nonlocal held
            while not self.stopping:
                demand = open_pending() + supervisor.inflight
                backend.slot_pool.set_demand(tenant, consumer, demand)
                if adaptive is not None:
                    backend.replicate_budget.set_demand(
                        tenant, open_pending())
                if open_pending() == 0:
                    return
                if not backend.slot_pool.acquire(tenant, timeout=0):
                    return
                trial = select()
                if trial is None:
                    backend.slot_pool.release(tenant)
                    return
                held += 1
                supervisor.submit(trial.key, execute_trial_payload,
                                  session.options.trial_payload(trial),
                                  context=trial)
                self.mark_progress(supervisor.inflight)
                session._emit(TRIAL_STARTED, done=state["done"],
                              total=total, trial=trial.to_dict())

        def land(results, collect_records=True):
            nonlocal held
            for _trial, record in results:
                held -= 1
                if collect_records:
                    collect(record)
                backend.slot_pool.release(tenant, executed_trials=1)
            if results:
                self.mark_progress(supervisor.inflight)
            else:
                self.set_inflight(supervisor.inflight)

        try:
            while True:
                if adaptive is not None and not self.breaker.allow():
                    shed_extras()
                submit_some()
                if self.stopping:
                    # Graceful: every submitted trial still lands in
                    # the store, so resume re-runs nothing.
                    while supervisor.inflight:
                        land(supervisor.wait(timeout=1.0))
                    raise _JobStopped()
                if not supervisor.inflight:
                    if open_pending() == 0:
                        break
                    # Blocked on a slot or a replicate token.
                    time.sleep(backend.poll_interval)
                    continue
                land(supervisor.wait(backend.poll_interval))
        finally:
            try:
                # Land stragglers without collecting (failure paths;
                # the stop path above already collected everything) —
                # their slots and the tenant's executed-trial credit
                # must be returned either way.
                while supervisor.inflight:
                    land(supervisor.wait(timeout=1.0),
                         collect_records=False)
            # Straggler landing is best-effort cleanup: the exception
            # already unwinding this frame is the diagnosis and must
            # not be masked by one from a broken pool here.
            # repro-lint: disable=except-policy -- cleanup, see above
            except Exception:
                pass
            finally:
                self.set_inflight(0)
                # Slots for trials that errored out (popped without a
                # release above).
                while held > 0:
                    held -= 1
                    backend.slot_pool.release(tenant)
                backend.slot_pool.set_demand(tenant, consumer, 0)
                if adaptive is not None:
                    backend.replicate_budget.set_demand(tenant, 0)
        return records

    # -- orchestrated execution (shards >= 1) ------------------------------

    def _run_orchestrated(self, store):
        backend = self.backend
        job = self.job
        tenant = job.tenant
        consumer = job.id
        backend.slot_pool.set_demand(tenant, consumer, job.shards)
        acquired = 0
        try:
            while acquired < job.shards:
                if self.stopping:
                    raise _JobStopped()
                if backend.slot_pool.acquire(
                        tenant, timeout=backend.poll_interval):
                    acquired += 1
            executed = {"n": 0}

            def listener(event):
                self._listener()(event)
                if event.kind == TRIAL_FINISHED:
                    executed["n"] += 1

            orchestrator = CampaignOrchestrator(
                job.spec, shards=job.shards,
                store_dir=job.shards_dir(backend.data_dir),
                options=job.options, merged_store=store,
                listeners=(listener,),
                stop_requested=self._stop_event.is_set,
                heartbeat_lease=backend.heartbeat_lease)
            try:
                orchestrator.run()
            except OrchestratorStopped:
                raise _JobStopped()
            # Credit the tenant's executed-trial counter on release.
            backend.slot_pool.release(tenant,
                                      executed_trials=executed["n"])
            acquired -= 1
        finally:
            for _ in range(acquired):
                backend.slot_pool.release(tenant)
            backend.slot_pool.set_demand(tenant, consumer, 0)


class ServiceBackend:
    """The multi-tenant campaign execution service (no HTTP here —
    :mod:`repro.service.server` adds the wire)."""

    #: Default retry policy for job-store writes: a transient write
    #: error must not discard a finished simulation.
    DEFAULT_STORE_RETRY = RetryPolicy(attempts=3, base_delay=0.05,
                                      max_delay=1.0)

    def __init__(self, data_dir: str, slots: int = 2,
                 tenants=(), replicate_budget: Optional[int] = None,
                 replicate_epoch: float = 1.0,
                 poll_interval: float = SERVICE_POLL_INTERVAL,
                 trial_timeout: Optional[float] = None,
                 trial_retries: int = 2,
                 runner_lease: Optional[float] = None,
                 heartbeat_lease: Optional[float] = None,
                 breaker_threshold: int = 3,
                 breaker_recovery: float = 10.0,
                 store_retry: Optional[RetryPolicy] = None):
        if poll_interval <= 0:
            raise ServiceError("poll_interval must be > 0")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ServiceError("trial_timeout must be > 0 (or None)")
        if runner_lease is not None and runner_lease <= 0:
            raise ServiceError("runner_lease must be > 0 (or None)")
        self.data_dir = data_dir
        os.makedirs(os.path.join(data_dir, "jobs"), exist_ok=True)
        self.slots = slots
        self.poll_interval = poll_interval
        #: Backend-wide default per-trial wall-clock deadline for
        #: pooled jobs; a job's own ``options.trial_timeout`` wins.
        self.trial_timeout = trial_timeout
        self.trial_retries = trial_retries
        #: When set, a background thread SIGKILLs the shared pool's
        #: workers whenever a runner with in-flight trials makes no
        #: progress for this long — the runners' supervisors then
        #: rebuild and resubmit (hung-runner recovery).
        self.runner_lease = runner_lease
        #: Forwarded to orchestrated jobs' CampaignOrchestrator as its
        #: shard heartbeat lease.
        self.heartbeat_lease = heartbeat_lease
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
        self.store_retry = store_retry if store_retry is not None \
            else self.DEFAULT_STORE_RETRY
        #: Shared-pool worker kills performed by the liveness thread.
        self.hung_runners = 0
        self.scheduler = FairScheduler(
            slots, [config if isinstance(config, TenantConfig)
                    else TenantConfig.from_dict(config)
                    for config in tenants])
        self.slot_pool = SlotPool(self.scheduler)
        self.replicate_budget = ReplicateBudget(
            self.scheduler, budget=replicate_budget,
            epoch=replicate_epoch)
        self.queue = JobQueue(self.scheduler)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._runners: Dict[str, JobRunner] = {}
        self._runners_lock = threading.Lock()
        self._logs: Dict[str, EventLog] = {}
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._wake = threading.Event()
        self._admission = threading.Thread(
            target=self._admission_loop, name="service-admission",
            daemon=True)
        self._admission.start()
        self._liveness = None
        if self.runner_lease is not None:
            self._liveness = threading.Thread(
                target=self._liveness_loop, name="service-liveness",
                daemon=True)
            self._liveness.start()

    # -- shared resources --------------------------------------------------

    @property
    def pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.slots)
            return self._pool

    def reset_pool(self, broken=None):
        """Retire the shared pool so the next :attr:`pool` access
        rebuilds it.

        Compare-and-swap on the executor identity: several runners'
        supervisors may detect the same breakage concurrently, and
        only the first one may retire the pool — a later reset aimed
        at an already-replaced executor must not kill the fresh pool
        (and the resubmitted trials on it).
        """
        with self._pool_lock:
            pool = self._pool
            if pool is None \
                    or (broken is not None and pool is not broken):
                return
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def kill_pool_workers(self):
        """SIGKILL the shared pool's workers (hung-runner recovery;
        the supervisors of affected runners rebuild and resubmit)."""
        with self._pool_lock:
            pool = self._pool
        if pool is not None:
            kill_pool_workers(pool)

    def event_log(self, job_id: str) -> EventLog:
        with self._runners_lock:
            log = self._logs.get(job_id)
            if log is None:
                log = EventLog(os.path.join(
                    self.data_dir, "jobs", job_id, "events.jsonl"))
                self._logs[job_id] = log
            return log

    # -- recovery ----------------------------------------------------------

    def recover(self) -> List[Job]:
        """Adopt every persisted job; non-terminal ones re-queue and
        will resume from their stores.  Returns the re-queued jobs."""
        jobs_dir = os.path.join(self.data_dir, "jobs")
        try:
            names = sorted(os.listdir(jobs_dir))
        except OSError:
            return []
        recovered = []
        jobs = []
        for name in names:
            if not os.path.isfile(os.path.join(jobs_dir, name,
                                               "job.json")):
                continue
            try:
                jobs.append(Job.load(self.data_dir, name))
            except ServiceError:
                continue             # torn job.json: skip, keep files
        jobs.sort(key=lambda job: (job.submitted_at, job.id))
        for job in jobs:
            if not job.terminal:
                # RUNNING/INTERRUPTED means a previous process died or
                # drained mid-job; the store remembers what finished.
                job.state = QUEUED
                job.error = ""
                job.save(self.data_dir)
                self.event_log(job.id).append(
                    job_event(JOB_QUEUED, job))
                recovered.append(job)
            self.queue.adopt(job)
        if recovered:
            self._wake.set()
        return recovered

    # -- the front-end surface ---------------------------------------------

    def submit(self, tenant: str, spec, options=None, priority: int = 0,
               shards: int = 0, job_id: Optional[str] = None) -> Job:
        """Admit one campaign; raises
        :class:`~repro.errors.QuotaError` over the tenant's queue
        quota and :class:`~repro.errors.ServiceError` while draining."""
        if self._draining.is_set() or self._closed.is_set():
            raise ServiceError("service is draining; not accepting "
                               "new jobs")
        if not tenant or not isinstance(tenant, str):
            raise ServiceError("tenant must be a non-empty string")
        if isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        if not isinstance(spec, CampaignSpec):
            raise ServiceError("spec must be a CampaignSpec or its "
                               "dict form, got %r" % type(spec).__name__)
        if options is None:
            options = ExecutionOptions()
        elif not isinstance(options, ExecutionOptions):
            options = ExecutionOptions.from_dict(options)
        if options.poll_interval is None:
            # Live SSE progress wants tight store polls (satellite of
            # the configurable-interval change).
            options = replace(options,
                              poll_interval=self.poll_interval)
        job = Job(id=job_id or new_job_id(), tenant=tenant, spec=spec,
                  options=options, priority=priority, shards=shards,
                  total=spec.grid_size)
        if job.shards > self.slots:
            raise ServiceError(
                "shards=%d exceeds the service's %d worker slots"
                % (job.shards, self.slots))
        job.submitted_at = time.time()
        self.queue.submit(job)
        job.save(self.data_dir)
        self.event_log(job.id).append(job_event(JOB_QUEUED, job))
        self._wake.set()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (terminal jobs are no-ops);
        completed trial records are kept."""
        job = self.queue.get(job_id)
        if job.terminal:
            return job
        if job.state == RUNNING:
            with self._runners_lock:
                runner = self._runners.get(job_id)
            if runner is not None:
                runner.request_stop(CANCELLED)
                return job
        job.state = CANCELLED
        job.finished_at = time.time()
        job.save(self.data_dir)
        self.event_log(job.id).append(job_event(JOB_CANCELLED, job))
        return job

    def job(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        return self.queue.jobs(tenant)

    def job_result(self, job_id: str, with_records: bool = False
                   ) -> dict:
        """Merged results of a job, straight from its store: per-cell
        aggregate (plus structures / adaptive blocks when the spec
        asks for them), optionally the raw records."""
        job = self.queue.get(job_id)
        session = CampaignSession(job.spec,
                                  store=job.store(self.data_dir))
        records = session.records()
        payload = {
            "job": job.summary(),
            "records_stored": len(records),
            "cells": [cell.as_dict() for cell in aggregate(records)],
        }
        if getattr(job.spec, "fault_sites", None):
            payload["structures"] = [
                row.as_dict()
                for row in aggregate_structures(records)]
        if job.options.adaptive and job.state == DONE:
            payload["adaptive"] = merged_adaptive_summary(
                job.options.sampling, list(job.spec.trials()),
                {record["key"]: record for record in records}).as_dict()
        if with_records:
            payload["records"] = records
        return payload

    def read_events(self, job_id: str, after_seq: int = 0):
        """Intact events of a job past ``after_seq`` (SSE tailing)."""
        self.queue.get(job_id)          # raises on unknown jobs
        return self.event_log(job_id).read(after_seq)

    def fairness_report(self) -> dict:
        """The scheduler's allocation/busy-time report plus per-tenant
        job state counts and the replicate-budget setting."""
        report = self.scheduler.report()
        for name, entry in report["tenants"].items():
            entry["jobs"] = {
                state: count
                for state, count in self.queue.counts(name).items()
                if count}
        report["replicate_budget"] = self.replicate_budget.budget
        report["draining"] = self._draining.is_set()
        return report

    # -- admission + shutdown ----------------------------------------------

    def _admission_loop(self):
        while not self._closed.is_set():
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            if self._draining.is_set():
                continue
            while True:
                job = self.queue.next_runnable()
                if job is None:
                    break
                job.save(self.data_dir)
                runner = JobRunner(self, job)
                with self._runners_lock:
                    self._runners[job.id] = runner
                runner.start()

    def _liveness_loop(self):
        """Hung-runner detection over the shared pool.

        A runner with in-flight trials whose progress stamp (last
        submission or landed record) is older than ``runner_lease``
        is presumed stuck on a wedged worker: SIGKILL the pool's
        workers, which surfaces as ``BrokenProcessPool`` in every
        waiting supervisor — they rebuild the pool and resubmit by
        key, and replay determinism makes the reruns byte-identical.
        """
        interval = min(self.runner_lease / 4.0, 1.0)
        while not self._closed.is_set():
            if self._closed.wait(timeout=interval):
                return
            now = time.monotonic()
            for runner in self.active_runners():
                if runner.lease_expired(now, self.runner_lease):
                    self.hung_runners += 1
                    self.kill_pool_workers()
                    break

    def _runner_finished(self, runner: JobRunner):
        with self._runners_lock:
            self._runners.pop(runner.job.id, None)
        self._wake.set()

    def active_runners(self) -> List[JobRunner]:
        with self._runners_lock:
            return list(self._runners.values())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, let in-flight trials
        land (running jobs become ``interrupted``), keep queued jobs
        queued.  Returns True when every runner exited in time."""
        self._draining.set()
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        # Admission races drain: a job claimed by the admission loop
        # just before _draining was set may not have its runner
        # registered yet.  Re-sweep until the set of running jobs is
        # covered by stopped runners (or the deadline passes).
        stopped = set()
        while True:
            new = [runner for runner in self.active_runners()
                   if runner.job.id not in stopped]
            for runner in new:
                runner.request_stop(INTERRUPTED)
                stopped.add(runner.job.id)
            if new:
                continue
            with self._runners_lock:
                registered = set(self._runners)
            pending = [job for job in self.queue.jobs()
                       if job.state == RUNNING
                       and job.id not in registered
                       and job.id not in stopped]
            if not pending:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        clean = True
        for runner in self.active_runners():
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            runner.join(remaining)
            clean = clean and not runner.is_alive()
        return clean

    def close(self, drain_timeout: Optional[float] = 30.0):
        """Drain, then stop the admission thread and worker pool."""
        self.drain(timeout=drain_timeout)
        self._closed.set()
        self._wake.set()
        self._admission.join(timeout=5.0)
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
