"""Campaign-as-a-service: a multi-tenant async front-end over the
campaign stack.

Layers, bottom up:

* :mod:`~repro.service.scheduler` — weighted max-min (water-filling)
  allocation of worker slots across tenants:
  :func:`weighted_max_min` / :func:`integral_allocation` and
  :class:`FairScheduler`, which grants one slot per trial;
* :mod:`~repro.service.jobs` — the :class:`Job` model (one submitted
  campaign, persisted under ``jobs/<id>/``) and the priority+quota
  :class:`JobQueue`;
* :mod:`~repro.service.events` — the per-job :class:`EventLog`: the
  campaign's typed event stream serialized to JSONL, tailed by the
  HTTP server's SSE endpoint;
* :mod:`~repro.service.backend` — :class:`ServiceBackend`: admission,
  the shared fairness-gated worker pool, per-job runners, cancel /
  drain / restart-recovery.  It adds scheduling, never semantics: a
  job stores the records a plain session of its spec would;
* :mod:`~repro.service.server` — the stdlib asyncio HTTP front-end
  (``repro-ft serve``): submit specs as JSON, poll status, stream SSE
  progress, fetch merged results;
* :mod:`~repro.service.loadgen` — the load generator
  (``repro-ft load``): static / dynamic / trace-replay workloads with
  per-tenant throughput, latency and fairness reporting.

Quickstart::

    repro-ft serve --data-dir /tmp/svc --slots 4 \
        --tenant alice:2 --tenant bob:1 &
    repro-ft load --url http://127.0.0.1:8123 \
        --tenant alice:static:3 --tenant bob:dynamic:2 --verify
"""

from .backend import SERVICE_POLL_INTERVAL, JobRunner, ServiceBackend
from .events import (EventLog, JOB_EVENT_KINDS, job_event)
from .jobs import (CANCELLED, DONE, FAILED, INTERRUPTED, JOB_STATES,
                   QUEUED, RUNNING, TERMINAL_STATES, Job, JobQueue,
                   new_job_id)
from .scheduler import (FairScheduler, TenantConfig, integral_allocation,
                        weighted_max_min)

__all__ = [
    "SERVICE_POLL_INTERVAL", "JobRunner", "ServiceBackend",
    "EventLog", "JOB_EVENT_KINDS", "job_event",
    "CANCELLED", "DONE", "FAILED", "INTERRUPTED", "JOB_STATES",
    "QUEUED", "RUNNING", "TERMINAL_STATES", "Job", "JobQueue",
    "new_job_id",
    "FairScheduler", "TenantConfig", "integral_allocation",
    "weighted_max_min",
]
