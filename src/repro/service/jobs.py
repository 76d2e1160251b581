"""Jobs and the multi-tenant priority queue of the campaign service.

A :class:`Job` is one tenant's submitted campaign: a full
:class:`~repro.campaign.spec.CampaignSpec`, an
:class:`~repro.campaign.api.ExecutionOptions` bundle, a priority and
a ``shards`` cap (``shards=N >= 1`` keeps at most N of the job's
trials in flight on the backend's shared slot pool; 0 leaves only the
fair share to bound it).  Every job owns a directory under the
service data dir::

    jobs/<job_id>/job.json      # identity + state (atomic rewrites)
    jobs/<job_id>/store.jsonl   # the durable result store
    jobs/<job_id>/events.jsonl  # serialized progress event log

``store.jsonl`` is the source of truth: state transitions in
``job.json`` are advisory (a SIGKILL can outrun them), and recovery
treats any non-terminal state as "resume from the store".

:class:`JobQueue` orders admission: higher ``priority`` first, then
submission order, skipping tenants already at their ``max_running``
quota; ``max_queued`` bounds the backlog a tenant may pile up
(:class:`~repro.errors.QuotaError` on violation).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..campaign import CampaignSpec, ExecutionOptions, JSONLStore
from ..errors import ConfigError, QuotaError, ServiceError
from ..wire import Wire, integer, nested, number, optional, text, wire
from .scheduler import FairScheduler

# -- job states ------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Gracefully drained mid-run; re-queued (resuming from the store) the
#: next time the service starts.
INTERRUPTED = "interrupted"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED)
#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

JOB_FILE = "job.json"
STORE_FILE = "store.jsonl"
EVENTS_FILE = "events.jsonl"


#: Execution options that older job files persisted: the simulator
#: selector, the golden-trace, fault-free-reuse and checkpointing
#: switches, the shard-store poll interval that sharded jobs read
#: before they ran on the shared pool, the ``persistent_workers``
#: warm-up (the service's shared pool never ran it) and the
#: ``store_retry`` policy (the service retries every job-store write
#: under its own).  Every value they could hold gave byte-identical
#: records, so :meth:`Job.from_dict` drops them.
RETIRED_OPTIONS = ("simulator", "golden_cache", "reuse_faultfree",
                   "checkpointing", "poll_interval", "persistent_workers",
                   "store_retry")


#: What a job id may look like: it names the job's directory, so a
#: tenant-minted id must not climb out of the data dir.
_JOB_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,127}\Z")


def new_job_id() -> str:
    """Unique, path-safe job identifier."""
    return "job-%s" % uuid.uuid4().hex[:12]


@dataclass
class Job(Wire):
    """One tenant's campaign submission and its lifecycle state."""

    id: str = wire(text())
    tenant: str = wire(text(empty=False))
    spec: CampaignSpec = wire(nested(CampaignSpec))
    options: ExecutionOptions = wire(nested(ExecutionOptions),
                                     default_factory=ExecutionOptions)
    priority: int = wire(integer(), 0)
    #: Most of this job's trials in flight at once (0 = no cap beyond
    #: the tenant's fair share of the slot pool).
    shards: int = wire(integer(0), 0)
    state: str = wire(text(JOB_STATES), QUEUED)
    error: str = wire(text(), "", omit=True)
    #: Monotonic admission order within one service process.
    seq: int = wire(integer(0), 0)
    submitted_at: float = wire(number(), 0.0)
    started_at: Optional[float] = wire(optional(number()), None, omit=True)
    finished_at: Optional[float] = wire(optional(number()), None,
                                        omit=True)
    #: Trial progress mirrors (updated by the runner's event stream).
    done: int = wire(integer(0), 0)
    total: int = wire(integer(0), 0)

    def __post_init__(self):
        # Recovery sorts jobs by submitted_at and re-queues the rest of
        # a job file as it is, so every field must hold its type here.
        self.check()
        if not _JOB_ID.match(self.id):
            raise ConfigError("job id must be 1-128 letters, digits, "
                              "'.', '_' or '-' (not leading), got %r"
                              % (self.id,))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- persistence -------------------------------------------------------

    def job_dir(self, data_dir: str) -> str:
        return os.path.join(data_dir, "jobs", self.id)

    def store_path(self, data_dir: str) -> str:
        return os.path.join(self.job_dir(data_dir), STORE_FILE)

    def events_path(self, data_dir: str) -> str:
        return os.path.join(self.job_dir(data_dir), EVENTS_FILE)

    def store(self, data_dir: str) -> JSONLStore:
        return JSONLStore(self.store_path(data_dir))

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Rebuild a job from a persisted ``job.json``, dropping the
        :data:`RETIRED_OPTIONS` it may carry."""
        options = data.get("options") if isinstance(data, dict) else None
        if isinstance(options, dict):
            data = dict(data, options={
                name: value for name, value in options.items()
                if name not in RETIRED_OPTIONS})
        return super().from_dict(data)

    def save(self, data_dir: str):
        """Atomically persist ``job.json`` (tmp file + rename).

        The tmp name is unique per writer: submit, admission and the
        runner may save concurrently, and a shared tmp path would let
        one writer's rename steal (and crash) another's.
        """
        directory = self.job_dir(data_dir)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, JOB_FILE)
        tmp = "%s.tmp.%s" % (path, uuid.uuid4().hex[:8])
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, data_dir: str, job_id: str) -> "Job":
        path = os.path.join(data_dir, "jobs", job_id, JOB_FILE)
        try:
            with open(path) as handle:
                return cls.from_dict(json.load(handle))
        except OSError as exc:
            raise ServiceError("unknown job %r (%s)" % (job_id, exc))
        except (ValueError, ConfigError) as exc:
            # Torn JSON, a field that fails validation, or a missing
            # one: recover() skips the job and keeps its files.
            raise ServiceError("corrupt job file %s: %s" % (path, exc))

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """The status payload the HTTP API serves."""
        data = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "priority": self.priority,
            "shards": self.shards,
            "campaign": self.spec.name,
            "grid_size": self.spec.grid_size,
            "done": self.done,
            "total": self.total,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            data["error"] = self.error
        return data


class JobQueue:
    """Priority admission queue with per-tenant quotas.

    Jobs wait here between :meth:`submit` and the backend's admission
    loop claiming them via :meth:`next_runnable`.  Ordering: highest
    ``priority`` first, FIFO (submission ``seq``) within a priority.
    Tenants at their ``max_running`` quota are skipped — a lower
    priority job of an under-quota tenant runs ahead of a blocked
    higher-priority one, which is what keeps one tenant's burst from
    convoying the whole service.
    """

    def __init__(self, scheduler: FairScheduler):
        self.scheduler = scheduler
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._seq = 0

    # -- introspection -----------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown job %r" % job_id)
        return job

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            jobs = [job for job in self._jobs.values()
                    if tenant is None or job.tenant == tenant]
        return sorted(jobs, key=lambda job: job.seq)

    def counts(self, tenant: str) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs(tenant):
            counts[job.state] += 1
        return counts

    # -- admission ---------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue a job, enforcing the tenant's ``max_queued`` quota."""
        config = self.scheduler.tenant(job.tenant)
        with self._lock:
            if job.id in self._jobs:
                raise ServiceError("duplicate job id %r" % job.id)
            if config.max_queued is not None:
                queued = sum(1 for other in self._jobs.values()
                             if other.tenant == job.tenant
                             and other.state == QUEUED)
                if queued >= config.max_queued:
                    raise QuotaError(
                        "tenant %r already has %d queued job%s (quota "
                        "%d); retry after some complete"
                        % (job.tenant, queued,
                           "" if queued == 1 else "s",
                           config.max_queued))
            self._seq += 1
            job.seq = self._seq
            if not job.submitted_at:
                job.submitted_at = time.time()
            self._jobs[job.id] = job
        return job

    def adopt(self, job: Job):
        """Re-register a recovered job without quota checks (it was
        admitted by a previous service process)."""
        with self._lock:
            self._seq += 1
            job.seq = self._seq
            self._jobs[job.id] = job

    def next_runnable(self) -> Optional[Job]:
        """Claim the next admissible queued job (marks it RUNNING).

        Tenants at ``max_running`` are skipped; returns ``None`` when
        nothing is admissible right now.
        """
        with self._lock:
            running: Dict[str, int] = {}
            for job in self._jobs.values():
                if job.state == RUNNING:
                    running[job.tenant] = running.get(job.tenant, 0) + 1
            candidates = sorted(
                (job for job in self._jobs.values()
                 if job.state == QUEUED),
                key=lambda job: (-job.priority, job.seq))
            for job in candidates:
                config = self.scheduler.tenant(job.tenant)
                if config.max_running is not None \
                        and running.get(job.tenant, 0) \
                        >= config.max_running:
                    continue
                job.state = RUNNING
                return job
        return None
