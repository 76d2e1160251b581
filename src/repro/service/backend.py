"""Execution backend of the campaign service.

One :class:`ServiceBackend` owns everything between the HTTP front-end
and the simulator:

* the :class:`~repro.service.jobs.JobQueue` (priorities, quotas) and
  an admission thread that claims runnable jobs;
* a shared :class:`concurrent.futures.ProcessPoolExecutor` of
  ``slots`` workers, gated by the
  :class:`~repro.service.scheduler.SlotPool` so concurrent tenants
  split the slots by weighted max-min over live demand;
* one :class:`JobRunner` thread per running job, executing it
  trial-by-trial through a :class:`_GatedSession` — a
  :class:`~repro.campaign.api.CampaignSession` whose one dispatch loop
  admits every trial through the slot pool, so fairness is enforced
  at trial granularity.  A job's ``shards=N`` (N >= 1) caps it at N
  trials in flight and N slots of declared demand;
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

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional

from ..campaign import (CampaignSession, CampaignSpec, ExecutionOptions,
                        RetryingStore, aggregate, aggregate_structures,
                        merged_adaptive_summary)
from ..campaign.adaptive import CAPPED
from ..campaign.aggregate import trial_cell
from ..errors import JobGoneError, ReproError, ServiceError
from ..resilience.circuit import CircuitBreaker
from .events import (EventLog, JOB_CANCELLED, JOB_DEGRADED, JOB_FAILED,
                     JOB_FINISHED, JOB_INTERRUPTED, JOB_QUEUED,
                     JOB_RESUMED, JOB_STARTED, job_event)
from .jobs import (CANCELLED, DONE, FAILED, INTERRUPTED, Job, JobQueue,
                   QUEUED, RUNNING, new_job_id)
from .scheduler import (FairScheduler, ReplicateBudget, SlotPool,
                        TenantConfig)

#: The service watches futures and event logs at this cadence, tight
#: because SSE subscribers are watching live.
SERVICE_POLL_INTERVAL = 0.05


class _JobStopped(Exception):
    """Internal: a runner honoured its stop flag mid-execution."""


class _GatedSession(CampaignSession):
    """A session whose trials run on the backend's shared process pool,
    each one admitted through the fair slot pool.

    Only admission is the service's own: a trial starts once it wins a
    fair slot (plus a replicate-budget token when it is an adaptive
    extra) and the job has fewer than its ``shards`` trials in flight,
    its slot returns with the tenant's executed-trial credit when it
    lands, a stop request lands the in-flight trials and then stops,
    and an open circuit breaker sheds adaptive extras.
    Dispatch, deadlines, resume semantics, store appends and the event
    protocol are the parent's, which is precisely what makes service
    results byte-identical to a plain session run.
    """

    def __init__(self, *args, runner: "JobRunner", **kwargs):
        super().__init__(*args, **kwargs)
        self._runner = runner
        self._admit_interval = runner.backend.poll_interval
        #: Most trials in flight (and slots declared) at once: the
        #: job's ``shards``; 0 leaves only the fair share to bound it.
        self._max_inflight = runner.job.shards or math.inf
        self._held = 0              # slots held by in-flight trials
        self._deferred = None       # adaptive extra awaiting a token

    def _open_pool(self, todo, state, total):
        runner = self._runner
        backend = runner.backend

        def landed():
            runner.breaker.record_success()
            self._release(executed_trials=1)

        supervisor = self._supervise(
            lambda: backend.pool, backend.reset_pool, state, total,
            on_failure=runner.breaker.record_failure, on_success=landed)

        def close():
            try:
                # Failure paths leave trials in flight (a stop lands
                # them all first); their slots and the tenant's
                # executed-trial credit return as they land.
                supervisor.drain()
            # Straggler landing is best-effort cleanup: the exception
            # already unwinding this frame is the diagnosis and must
            # not be masked by one from a broken pool here.
            # repro-lint: disable=except-policy -- cleanup, see above
            except Exception:
                pass
            finally:
                # Slots of trials that errored out never landed.
                while self._held:
                    self._release()
                self._declare(0)

        return supervisor, close

    def _admit(self, source, inflight):
        runner = self._runner
        backend = runner.backend
        while True:
            if runner.stopping:
                if inflight:
                    # Graceful: every submitted trial still lands in
                    # the store, so resume re-runs nothing.
                    return None
                raise _JobStopped()
            if self.options.adaptive and not runner.breaker.allow():
                self._shed_extras(source)
            pending = source.pending() + (self._deferred is not None)
            self._declare(pending, inflight)
            if not pending or inflight >= self._max_inflight:
                return None
            if backend.slot_pool.acquire(runner.job.tenant, timeout=0):
                trial = self._select(source)
                if trial is not None:
                    self._held += 1
                    return trial
                backend.slot_pool.release(runner.job.tenant)
            if inflight:
                return None
            # Blocked on a slot or a replicate token.
            time.sleep(backend.poll_interval)

    def _declare(self, pending, inflight=0):
        """Publish this job's slot demand (and its adaptive extras)."""
        backend = self._runner.backend
        job = self._runner.job
        backend.slot_pool.set_demand(
            job.tenant, job.id, min(pending + inflight,
                                    self._max_inflight))
        if self.options.adaptive:
            backend.replicate_budget.set_demand(job.tenant, pending)

    def _release(self, executed_trials=0):
        self._held -= 1
        self._runner.backend.slot_pool.release(
            self._runner.job.tenant, executed_trials=executed_trials)

    def _select(self, source):
        """The next trial, or None: nothing is left, or an adaptive
        extra replicate waits for the next epoch's budget token (it is
        kept, not dropped — a refusal is pacing, not a cap)."""
        trial = self._deferred if self._deferred is not None \
            else source.next_trial()
        self._deferred = None
        if trial is None or not self.options.adaptive:
            return trial
        tracker = source.trackers.get(trial_cell(trial))
        extra = tracker is not None \
            and tracker.scheduled > self.options.sampling.min_replicates
        budget = self._runner.backend.replicate_budget
        if extra and not budget.try_take(self._runner.job.tenant):
            self._deferred = trial
            return None
        return trial

    def _shed_extras(self, scheduler):
        """Close every open cell already at its seed replicates.

        The breaker tripping means the infrastructure keeps failing
        under this job; adaptive *extra* replicates are optional
        statistical tightening, so they are shed (the cells close as
        CAPPED — an explicit budget cut, not a convergence decision)
        and the job finishes on what the seed replicates support.
        """
        shed = 0
        for tracker in scheduler.trackers.values():
            if tracker.closed is None and tracker.scheduled \
                    >= self.options.sampling.min_replicates:
                tracker.closed = CAPPED
                shed += len(tracker.pending)
        if shed:
            self._runner.log.append(job_event(
                JOB_DEGRADED, self._runner.job,
                detail="circuit breaker open: shed %d adaptive extra "
                       "replicate%s" % (shed, "" if shed == 1 else "s")))


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
        # Job stores are the durable truth of the service; retry
        # transient write errors instead of failing the job.
        store = RetryingStore(job.store(backend.data_dir))
        resumed = store.exists and bool(store.completed_keys())
        job.started_at = time.time()
        job.save(backend.data_dir)
        self.log.append(job_event(JOB_RESUMED if resumed
                                  else JOB_STARTED, job))
        try:
            self._run_session(store, resume=resumed)
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

    def _run_session(self, store, resume: bool):
        job = self.job
        options = job.options
        if options.trial_timeout is None:
            # The backend-wide deadline covers jobs that set none.
            options = replace(options,
                              trial_timeout=self.backend.trial_timeout)

        def listener(event):
            self.log.append(event)
            job.done = event.done
            job.total = event.total

        session = _GatedSession(job.spec, options=options, store=store,
                                runner=self, listeners=(listener,))
        result = session.resume() if resume else session.run()
        job.done = len(result.records)


class ServiceBackend:
    """The multi-tenant campaign execution service (no HTTP here —
    :mod:`repro.service.server` adds the wire)."""

    def __init__(self, data_dir: str, slots: int = 2,
                 tenants=(), replicate_budget: Optional[int] = None,
                 replicate_epoch: float = 1.0,
                 poll_interval: float = SERVICE_POLL_INTERVAL,
                 trial_timeout: Optional[float] = None,
                 breaker_threshold: int = 3,
                 breaker_recovery: float = 10.0):
        if poll_interval <= 0:
            raise ServiceError("poll_interval must be > 0")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ServiceError("trial_timeout must be > 0 (or None)")
        self.data_dir = data_dir
        os.makedirs(os.path.join(data_dir, "jobs"), exist_ok=True)
        self.slots = slots
        self.poll_interval = poll_interval
        #: Backend-wide default per-trial wall-clock deadline for
        #: pooled jobs; a job's own ``options.trial_timeout`` wins.
        self.trial_timeout = trial_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
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
        #: Job id -> why its ``job.json`` could not be loaded, from the
        #: last :meth:`recover`; those jobs were skipped, files kept.
        #: Looking one up raises :class:`~repro.errors.JobGoneError`,
        #: and a submit may not reuse its id.
        self.skipped_jobs: Dict[str, str] = {}
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
        will resume from their stores.  Returns the re-queued jobs; a
        job whose ``job.json`` cannot be loaded is skipped, its files
        kept, and listed in :attr:`skipped_jobs` with the reason."""
        jobs_dir = os.path.join(self.data_dir, "jobs")
        try:
            names = sorted(os.listdir(jobs_dir))
        except OSError:
            return []
        recovered = []
        jobs = []
        skipped = {}
        for name in names:
            if not os.path.isfile(os.path.join(jobs_dir, name,
                                               "job.json")):
                continue
            try:
                jobs.append(Job.load(self.data_dir, name))
            except ServiceError as exc:
                skipped[name] = str(exc)
        self.skipped_jobs = skipped
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
        job = Job(id=job_id or new_job_id(), tenant=tenant, spec=spec,
                  options=options, priority=priority, shards=shards,
                  total=spec.grid_size)
        if job.id in self.skipped_jobs:
            # Its kept job.json and store.jsonl must not be overwritten
            # or resumed by a stranger.
            raise ServiceError("duplicate job id %r (held by a job file "
                               "skipped at start-up)" % job.id)
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
        job = self.job(job_id)
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
        reason = self.skipped_jobs.get(job_id)
        if reason is not None:
            raise JobGoneError("job %r is gone: its job file was skipped "
                               "at start-up (%s)" % (job_id, reason))
        return self.queue.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        return self.queue.jobs(tenant)

    def job_result(self, job_id: str, with_records: bool = False
                   ) -> dict:
        """Merged results of a job, straight from its store: per-cell
        aggregate (plus structures / adaptive blocks when the spec
        asks for them), optionally the raw records."""
        job = self.job(job_id)
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

    def read_events(self, job_id: str, after_seq: int = 0,
                    offset: int = 0):
        """``(events, offset)``: the intact events of a job past
        ``after_seq`` from byte ``offset`` of its log on, and where the
        next read starts (SSE tailing; see :meth:`EventLog.follow`)."""
        self.job(job_id)                # raises on unknown jobs
        return self.event_log(job_id).follow(after_seq, offset)

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
                    # Started under the lock: drain() joins every
                    # registered runner, and joining an unstarted
                    # thread raises.
                    self._runners[job.id] = runner
                    runner.start()

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
