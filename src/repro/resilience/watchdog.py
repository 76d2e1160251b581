"""Process-pool supervision: deadlines, breakage recovery, resubmit.

:class:`PoolSupervisor` wraps a ``ProcessPoolExecutor`` (or anything
with ``submit``) and owns the three failure modes a pool path must
survive:

* **worker death** — a SIGKILL'd/OOM'd pool worker breaks the whole
  executor; every in-flight future fails with ``BrokenProcessPool``.
  The supervisor rebuilds the pool and re-submits every in-flight
  trial *by key*, so nothing is lost and (trial seeds being derived
  from trial keys) the re-execution is byte-identical;
* **hung trial** — a per-trial wall-clock deadline (``trial_timeout``)
  distinguishes an infrastructure hang from the simulated ``timeout``
  outcome (which is a normal record that returns promptly).  An
  expired deadline SIGKILLs the pool's workers, which converts the
  hang into the worker-death path above;
* **retry exhaustion** — each key carries a bounded resubmit budget
  (``trial_retries``); a trial that keeps taking the pool down raises
  :class:`~repro.errors.TrialHangError` instead of looping forever,
  and the session — or service job, adaptive or fixed — fails with
  that diagnosis.

The supervisor does not own pool lifetime policy: callers hand in
``get_pool`` / ``reset_pool`` callables, so a session-private pool and
the service's shared pool (where ``reset_pool`` must be
identity-guarded against concurrent resets by other runners) both fit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import TrialHangError
from ..wire import integer, number, optional

#: The one rule for a per-trial deadline in seconds: finite and > 0, or
#: None for no deadline.  ``ExecutionOptions.trial_timeout`` declares
#: it, and the supervisor and the service's backend-wide default load
#: through it, so a NaN or infinite deadline that never expires is
#: refused everywhere.
TRIAL_TIMEOUT = optional(number(0, above=True))


@dataclass
class _Entry:
    """Book-keeping for one in-flight submission."""

    key: str
    fn: Callable
    payload: object
    context: object
    pool: object
    deadline: Optional[float]
    killed: bool = False


def kill_pool_workers(pool):
    """SIGKILL every worker process of a ``ProcessPoolExecutor``.

    Reaches into ``pool._processes`` (stdlib-private but stable since
    3.7); SIGKILL also takes down SIGSTOP'd workers, which is exactly
    the hung case this exists for.  Best-effort: a worker that exited
    meanwhile is fine.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, ValueError):
            # Worker already reaped, or its Process handle closed.
            pass


class PoolSupervisor:
    """Babysit submissions to a (rebuildable) process pool.

    ``get_pool()`` returns the current executor (creating it lazily is
    fine); ``reset_pool(broken)`` must retire *that* executor and make
    ``get_pool`` return a fresh one — when the pool is shared between
    supervisors, implement it compare-and-swap style so two concurrent
    recoveries do not kill a freshly built pool.

    Callbacks: ``on_resubmit(context, attempt)`` fires per re-submitted
    trial, ``on_success()`` per trial that lands with a result.
    """

    def __init__(self, get_pool: Callable, reset_pool: Callable,
                 trial_timeout: Optional[float] = None,
                 trial_retries: int = 2,
                 on_resubmit: Optional[Callable] = None,
                 on_success: Optional[Callable] = None,
                 kill_workers: Callable = kill_pool_workers,
                 clock: Callable[[], float] = time.monotonic):
        self._get_pool = get_pool
        self._reset_pool = reset_pool
        self.trial_timeout = TRIAL_TIMEOUT.load(trial_timeout,
                                                "trial_timeout")
        self.trial_retries = integer(0).load(trial_retries,
                                             "trial_retries")
        self._on_resubmit = on_resubmit
        self._on_success = on_success
        self._kill_workers = kill_workers
        self._clock = clock
        self._entries: Dict[object, _Entry] = {}   # future -> entry
        self._attempts: Dict[str, int] = {}        # key -> resubmits
        #: Pool rebuilds performed (worker death or hang recovery).
        self.recoveries = 0
        #: Deadline expiries observed (hung-trial kills).
        self.hangs = 0

    # -- submission --------------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self._entries)

    def submit(self, key: str, fn: Callable, payload,
               context=None):
        """Submit one trial; survives racing into a just-broken pool."""
        # Imported here, so a serial session never loads the pool
        # machinery (concurrent.futures.process pulls multiprocessing).
        from concurrent.futures.process import BrokenProcessPool
        for _ in range(3):
            pool = self._get_pool()
            try:
                future = pool.submit(fn, payload)
            except (BrokenProcessPool, RuntimeError):
                # Another supervisor's recovery (or a worker death we
                # have not collected yet) broke/shut this pool between
                # get and submit.  Swap it and try again — the trial
                # never ran, so this is not a retry-budget event.
                self._reset_pool(pool)
                continue
            deadline = None
            if self.trial_timeout is not None:
                deadline = self._clock() + self.trial_timeout
            self._entries[future] = _Entry(
                key=key, fn=fn, payload=payload, context=context,
                pool=pool, deadline=deadline)
            return future
        raise TrialHangError(
            "could not submit trial %s: the process pool keeps "
            "breaking faster than it can be rebuilt" % (key,))

    # -- collection --------------------------------------------------------

    def wait(self, timeout: Optional[float] = None):
        """Block for completions; return ``[(context, result), ...]``.

        Handles pool breakage and deadline expiry internally (both end
        in rebuild + resubmit, bounded by ``trial_retries``); real
        exceptions raised by the submitted function propagate to the
        caller unchanged, exactly like ``Future.result()`` would.
        """
        if not self._entries:
            return []
        from concurrent.futures import FIRST_COMPLETED
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool
        block = timeout
        nearest = min((entry.deadline for entry in
                       self._entries.values()
                       if entry.deadline is not None), default=None)
        if nearest is not None:
            until = max(0.0, nearest - self._clock())
            block = until if block is None else min(block, until)
        done, _ = futures_wait(list(self._entries),
                               timeout=block,
                               return_when=FIRST_COMPLETED)
        results = []
        broken = []
        for future in done:
            entry = self._entries.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                broken.append(entry)
                continue
            if self._on_success is not None:
                self._on_success()
            results.append((entry.context, result))
        if broken:
            self._recover(broken)
        elif not results:
            self._check_deadlines()
        return results

    def drain(self):
        """Collect every remaining in-flight result (with recovery)."""
        results = []
        while self._entries:
            results.extend(self.wait(timeout=1.0))
        return results

    def _check_deadlines(self):
        """SIGKILL pools owning expired futures; breakage follows."""
        now = self._clock()
        expired_pools = {}
        for entry in self._entries.values():
            if entry.deadline is not None and entry.deadline <= now \
                    and not entry.killed:
                entry.killed = True
                self.hangs += 1
                expired_pools[id(entry.pool)] = entry.pool
        # Kill each affected pool's workers once; the pending futures
        # then fail with BrokenProcessPool within the next wait() and
        # take the normal recovery path.
        for pool in expired_pools.values():
            self._kill_workers(pool)

    def _recover(self, entries):
        """Rebuild after breakage and resubmit the casualties by key."""
        for pool in {id(entry.pool): entry.pool
                     for entry in entries}.values():
            self._reset_pool(pool)
        self.recoveries += 1
        for entry in entries:
            attempt = self._attempts.get(entry.key, 0) + 1
            if attempt > self.trial_retries:
                raise TrialHangError(
                    "trial %s failed %d consecutive pool "
                    "recoveries (budget %d): the trial itself is "
                    "taking the worker down or never finishing "
                    "within its deadline" % (entry.key, attempt - 1,
                                             self.trial_retries))
            self._attempts[entry.key] = attempt
            self.submit(entry.key, entry.fn, entry.payload,
                        context=entry.context)
            if self._on_resubmit is not None:
                self._on_resubmit(entry.context, attempt)
