"""Multi-shard campaign orchestrator: one driver, N shard sessions.

:meth:`CampaignSpec.shard` already partitions a campaign's trial
keyspace deterministically; this module adds the driver that actually
runs all partitions at once and survives the failures a multi-hour
sweep will see:

* **launch** — one worker per shard, either an in-process fork running
  a :class:`~repro.campaign.api.CampaignSession` over
  ``spec.shard(i, n)`` (``mode="process"``) or a ``repro-ft campaign
  --shard i/N`` subprocess (``mode="cli"`` — the exact worker you
  would start by hand on another host);
* **monitor** — the driver polls every shard's result store and
  re-emits each new record on the session event stream
  (``trial_finished`` with merged ``done``/``total`` and the
  originating ``shard``), so one listener observes the merged live
  state of the whole fleet;
* **restart** — a worker that dies (crash, OOM-kill, ``kill -9``) is
  relaunched against its own store and *resumes*: every record the
  dead worker flushed is kept, only its unfinished trials re-run.
  A worker that keeps dying past ``max_restarts`` fails the campaign
  with :class:`~repro.errors.OrchestratorError`;
* **merge** — on completion the shard stores are stitched together
  with :func:`~repro.campaign.store.merge_stores` into one merged
  store, and the result carries the records in spec-expansion order —
  byte-identical to a single-session run of the same spec.

The shard stores under ``store_dir`` are the durable state: killing
and re-running the *orchestrator itself* also resumes, because every
launch decision is "store has records -> resume, else run".

Adaptive sampling composes: an adaptive
:class:`~repro.campaign.adaptive.SamplingPlan` on the options is
applied by every shard session to its own slice of each cell (each
shard must individually reach the half-width target on its local
sample — a conservative split, since the merged interval is at least
as tight as the widest per-shard one).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import (ConfigError, OrchestratorError,
                      OrchestratorStopped)
from ..resilience.heartbeat import Heartbeat, HeartbeatMonitor
from ..resilience.retry import RetryPolicy
from .api import (CAMPAIGN_FINISHED, TRIAL_FINISHED, CampaignEvent,
                  CampaignListener, CampaignResult, CampaignSession,
                  ExecutionOptions)
from .adaptive import merged_adaptive_summary
from .spec import CampaignSpec
from .store import JSONLStore, merge_stores, open_store, shard_of_key

# -- shard lifecycle event kinds (same listener protocol as sessions) ------

SHARD_STARTED = "shard_started"
SHARD_FINISHED = "shard_finished"
SHARD_RESTARTED = "shard_restarted"
#: A live-but-stalled worker was detected via heartbeat lease expiry
#: and SIGKILL'd; a ``shard_restarted`` follows once its backoff
#: delay elapses.
SHARD_HUNG = "shard_hung"

#: Registry of every shard lifecycle kind — the wire-parity lint rule
#: checks emissions against this, mirroring ``EVENT_KINDS`` /
#: ``JOB_EVENT_KINDS``.
SHARD_EVENT_KINDS = (SHARD_STARTED, SHARD_FINISHED, SHARD_RESTARTED,
                     SHARD_HUNG)

#: Worker launch modes.
PROCESS_MODE = "process"        # forked in-process CampaignSession
CLI_MODE = "cli"                # repro-ft campaign --shard subprocess
MODES = (PROCESS_MODE, CLI_MODE)

_SHARD_STORE = "shard-%02d-of-%02d.jsonl"
_SHARD_LOG = "shard-%02d.log"
_SHARD_HEARTBEAT = "shard-%02d.heartbeat"
_SPEC_FILE = "orchestrate-spec.json"
MERGED_STORE = "merged.jsonl"

#: Default relaunch backoff: 0.5 s doubling to 30 s, ±10 % jitter
#: derived from the shard index (deterministic — a replayed failure
#: schedule restarts on the same timeline).
DEFAULT_RESTART_BACKOFF = RetryPolicy(
    attempts=1, base_delay=0.5, max_delay=30.0, multiplier=2.0,
    jitter=0.1)

#: A worker that stayed up this long before dying earns its restart
#: count back — transient deaths spread over a long campaign must not
#: accumulate into a spurious OrchestratorError, while a crash loop
#: (deaths far faster than this) still burns the budget.
DEFAULT_MIN_UPTIME = 5.0


def shard_store_path(store_dir: str, index: int, total: int) -> str:
    """The canonical store file of shard ``index`` under ``store_dir``."""
    return os.path.join(store_dir, _SHARD_STORE % (index, total))


def _run_shard(spec_data, index, total, options_data, store_path,
               heartbeat_path=None, heartbeat_interval=1.0):
    """Process-mode worker entry point (module-level: picklable).

    Resumes when the shard store already holds records — the restart
    path and the fresh-launch path are the same function.  When the
    driver asked for liveness (``heartbeat_path``), the worker stamps
    a progress-coupled heartbeat on every session event — a worker
    that stops making progress stops beating, whatever its process
    state says.
    """
    spec = CampaignSpec.from_dict(spec_data)
    options = ExecutionOptions.from_dict(options_data)
    store = JSONLStore(store_path)
    session = CampaignSession(spec.shard(index, total), options=options,
                              store=store)
    heartbeat = None
    if heartbeat_path:
        heartbeat = Heartbeat(heartbeat_path,
                              interval=heartbeat_interval)
        session.subscribe(
            lambda event: heartbeat.beat(progress=event.done))
        heartbeat.beat(progress=0, force=True)
    if store.exists and store.completed_keys():
        session.resume()
    else:
        session.run()
    if heartbeat is not None:
        heartbeat.beat(progress=len(session.result.records),
                       force=True)


@dataclass
class ShardWorker:
    """Driver-side handle for one shard's worker process."""

    index: int
    total: int
    store: JSONLStore
    #: Full shard keyspace (what "complete" means for a fixed plan).
    expected_keys: frozenset
    #: Deaths in the *current* crash-loop window; reset once the
    #: worker stays up past ``min_uptime`` (budget forgiveness).
    restarts: int = 0
    #: Lifetime relaunch count — never forgiven; feeds observability.
    lifetime_restarts: int = 0
    seen: Set[str] = field(default_factory=set)
    process: object = None          # multiprocessing.Process or Popen
    finished: bool = False
    log_path: str = ""
    #: How far into the (append-only) shard store the driver has read.
    read_offset: int = 0
    #: monotonic() stamp of the last launch (crash-loop detection).
    launched_at: float = 0.0
    #: monotonic() deadline of a scheduled (backed-off) relaunch;
    #: ``None`` when no relaunch is pending.
    relaunch_at: Optional[float] = None
    #: Heartbeat file the worker stamps (liveness enabled only).
    heartbeat_path: str = ""
    #: Driver-side lease over the heartbeat (liveness enabled only).
    monitor: Optional[HeartbeatMonitor] = None
    #: Times this worker was SIGKILL'd for a heartbeat lease expiry.
    hung: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        if self.process is None:
            return False
        if isinstance(self.process, subprocess.Popen):
            return self.process.poll() is None
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        if self.process is None:
            return None
        if isinstance(self.process, subprocess.Popen):
            return self.process.poll()
        return self.process.exitcode

    def reap(self):
        """Join/terminate bookkeeping after the process ended."""
        if isinstance(self.process, subprocess.Popen):
            self.process.wait()
        else:
            self.process.join()

    def terminate(self):
        if self.process is None or not self.alive:
            return
        self.process.terminate()
        self.reap()

    def kill(self):
        """SIGKILL (not terminate): a hung worker may ignore SIGTERM —
        and a SIGSTOP'd one certainly does; SIGKILL takes down both."""
        if self.process is None:
            return
        try:
            self.process.kill()
        except (ProcessLookupError, OSError):
            pass
        self.reap()


class CampaignOrchestrator:
    """Drive one campaign spec across N shard workers to a merged result.

    ``store_dir`` receives one JSONL store per shard (plus the worker
    logs and spec file in ``cli`` mode); ``merged_store`` — any
    :func:`~repro.campaign.store.open_store` URL or backend — receives
    the merged record set on completion (default:
    ``store_dir/merged.jsonl``).  The merge appends and compacts, so
    records already in the merged store survive unless a fresh shard
    record supersedes their key — handing in a store that holds other
    results is safe; the shard stores remain the durable campaign
    state.

    Listeners receive the same :class:`~repro.campaign.api.
    CampaignEvent` protocol a session emits, with ``event.shard`` set:
    ``shard_started`` / ``shard_restarted`` / ``shard_finished`` for
    worker lifecycle, ``trial_finished`` per record as it appears in
    any shard store, and one final ``campaign_finished``.
    """

    #: Store poll cadence when neither the constructor nor
    #: ``ExecutionOptions.poll_interval`` chooses one.
    DEFAULT_POLL_INTERVAL = 0.2

    def __init__(self, spec, shards: int, store_dir: str,
                 options: Optional[ExecutionOptions] = None,
                 mode: str = PROCESS_MODE,
                 poll_interval: Optional[float] = None,
                 max_restarts: int = 2, merged_store=None,
                 listeners=(), stop_requested=None,
                 restart_backoff: Optional[RetryPolicy] = None,
                 min_uptime: float = DEFAULT_MIN_UPTIME,
                 heartbeat_lease: Optional[float] = None,
                 heartbeat_interval: float = 1.0):
        if not isinstance(spec, CampaignSpec):
            raise ConfigError(
                "orchestrate needs a full CampaignSpec (got %s); the "
                "orchestrator does its own sharding"
                % type(spec).__name__)
        if not isinstance(shards, int) or isinstance(shards, bool) \
                or shards < 1:
            raise ConfigError("shards must be an integer >= 1, got %r"
                              % (shards,))
        if mode not in MODES:
            raise ConfigError("unknown orchestrator mode %r (choose "
                              "from %s)" % (mode, "/".join(MODES)))
        if not isinstance(max_restarts, int) \
                or isinstance(max_restarts, bool) or max_restarts < 0:
            raise ConfigError("max_restarts must be an integer >= 0")
        self.options = options if options is not None \
            else ExecutionOptions()
        # Explicit constructor value wins; the options bundle is the
        # configurable default (the campaign service sets a tight
        # interval there for live progress); 0.2 s the fallback.
        if poll_interval is None:
            poll_interval = self.options.poll_interval \
                if self.options.poll_interval is not None \
                else self.DEFAULT_POLL_INTERVAL
        if not isinstance(poll_interval, (int, float)) \
                or isinstance(poll_interval, bool) or poll_interval <= 0:
            raise ConfigError("poll_interval must be > 0")
        # Stamp max_cycles onto the spec up front so both worker modes
        # (and the spec file) agree on trial identity.
        self.spec = CampaignSession._stamp_max_cycles(
            spec, self.options.max_cycles)
        if restart_backoff is not None \
                and not isinstance(restart_backoff, RetryPolicy):
            raise ConfigError("restart_backoff must be a RetryPolicy "
                              "or None")
        if not isinstance(min_uptime, (int, float)) \
                or isinstance(min_uptime, bool) or min_uptime < 0:
            raise ConfigError("min_uptime must be >= 0")
        if heartbeat_lease is not None and (
                not isinstance(heartbeat_lease, (int, float))
                or isinstance(heartbeat_lease, bool)
                or heartbeat_lease <= 0):
            raise ConfigError("heartbeat_lease must be > 0 (or None)")
        self.shards = shards
        self.store_dir = store_dir
        self.mode = mode
        self.poll_interval = poll_interval
        self.max_restarts = max_restarts
        #: Relaunch backoff schedule (see DEFAULT_RESTART_BACKOFF).
        self.restart_backoff = restart_backoff \
            if restart_backoff is not None else DEFAULT_RESTART_BACKOFF
        #: Uptime that restores a worker's full restart budget.
        self.min_uptime = float(min_uptime)
        #: When set, each worker stamps a progress-coupled heartbeat
        #: file and the driver SIGKILLs (then restarts) any live
        #: worker whose heartbeat AND store both stall for a full
        #: lease interval.  ``None`` disables liveness detection —
        #: the lease must exceed the worst honest trial time, which
        #: only the operator knows.
        self.heartbeat_lease = heartbeat_lease
        self.heartbeat_interval = heartbeat_interval
        self.merged_store = open_store(merged_store) \
            if merged_store is not None else None
        if self.merged_store is None:
            self.merged_store = JSONLStore(
                os.path.join(store_dir, MERGED_STORE))
        self._listeners: List[CampaignListener] = list(listeners)
        #: Optional zero-argument callable polled once per monitor
        #: tick; returning truthy terminates every worker and raises
        #: :class:`~repro.errors.OrchestratorStopped`.  This is the
        #: cancellation/drain hook of the campaign service — shard
        #: stores keep every completed record, so a stopped campaign
        #: resumes exactly like a crashed one.
        self.stop_requested = stop_requested
        self.workers: List[ShardWorker] = []
        self.result: Optional[CampaignResult] = None
        self._total = 0

    # -- event stream ------------------------------------------------------

    def subscribe(self, listener: CampaignListener) -> CampaignListener:
        self._listeners.append(listener)
        return listener

    def _emit(self, kind, shard=None, record=None, trial=None):
        if not self._listeners:
            return
        event = CampaignEvent(kind=kind, done=self._done(),
                              total=self._total, trial=trial,
                              record=record, shard=shard)
        for listener in self._listeners:
            listener(event)

    def _done(self) -> int:
        return sum(len(worker.seen) for worker in self.workers)

    # -- worker management -------------------------------------------------

    def _make_workers(self):
        # One grid expansion, bucketed with the same partition
        # function spec.shard uses — expanding the full grid once per
        # shard would hash every trial key N+1 times at startup.  The
        # list is kept for the merge ordering at the end of run().
        trials = self._trials = list(self.spec.trials())
        self._total = len(trials)
        shard_keys: Dict[int, set] = {i: set()
                                      for i in range(self.shards)}
        for trial in trials:
            shard_keys[shard_of_key(trial.key, self.shards)].add(
                trial.key)
        self.workers = [
            ShardWorker(
                index=index, total=self.shards,
                store=JSONLStore(shard_store_path(self.store_dir,
                                                  index, self.shards)),
                expected_keys=frozenset(shard_keys[index]),
                log_path=os.path.join(self.store_dir,
                                      _SHARD_LOG % index))
            for index in range(self.shards)]

    def _launch(self, worker: ShardWorker):
        worker.relaunch_at = None
        worker.launched_at = time.monotonic()
        if self.heartbeat_lease is not None:
            worker.heartbeat_path = os.path.join(
                self.store_dir, _SHARD_HEARTBEAT % worker.index)
            # A stale heartbeat from the previous incarnation must not
            # renew the new lease; the monitor grants a full lease
            # from launch for the first beat anyway.
            try:
                os.unlink(worker.heartbeat_path)
            except OSError:
                pass
            worker.monitor = HeartbeatMonitor(worker.heartbeat_path,
                                              self.heartbeat_lease)
        if self.mode == PROCESS_MODE:
            context = multiprocessing.get_context()
            worker.process = context.Process(
                target=_run_shard,
                args=(self.spec.to_dict(), worker.index, self.shards,
                      self.options.to_dict(), worker.store.path,
                      worker.heartbeat_path or None,
                      self.heartbeat_interval))
            worker.process.start()
            return
        command = [sys.executable, "-m", "repro.harness.cli",
                   "campaign", "--spec", self._spec_file,
                   "--shard", "%d/%d" % (worker.index, self.shards),
                   "--store", worker.store.path, "--quiet"]
        if worker.heartbeat_path:
            command += ["--heartbeat", worker.heartbeat_path,
                        "--heartbeat-interval",
                        repr(self.heartbeat_interval)]
        if self.options.workers > 1:
            command += ["--workers", str(self.options.workers)]
        if self.options.persistent_workers:
            command.append("--persistent-workers")
        plan = self.options.sampling
        if plan is not None and plan.is_adaptive:
            command += ["--adaptive", repr(plan.target_halfwidth),
                        "--adaptive-metric", plan.metric,
                        "--adaptive-min", str(plan.min_replicates)]
            if plan.max_replicates is not None:
                command += ["--adaptive-max",
                            str(plan.max_replicates)]
        if worker.store.exists and worker.store.completed_keys():
            command.append("--resume")
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(package_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = open(worker.log_path, "a")
        try:
            worker.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()

    def _poll_store(self, worker: ShardWorker):
        """Surface records appended to one shard store since last poll.

        Shard stores are append-only JSONL, so the driver reads only
        the tail past its per-worker byte offset — a full re-parse per
        tick would make monitoring quadratic in campaign size.  Only
        newline-terminated lines are consumed (the tail may be
        mid-write; it is left for the next poll), and a terminated
        line that fails to parse is torn-tail garbage a killed worker
        left behind — skipped for good, exactly like
        :meth:`~repro.campaign.store.JSONLStore.load` skips it.

        Read errors are tolerated: a store that cannot be read right
        now (transient NFS hiccup, or a genuinely broken path) yields
        no new records this poll — a broken path also kills the worker
        itself, whose restart budget then reports the shard properly.
        """
        try:
            size = os.path.getsize(worker.store.path)
            if size < worker.read_offset:
                # The worker truncated and recreated the store (fresh
                # run over a file that held no intact records).
                worker.read_offset = 0
            if size <= worker.read_offset:
                return
            with open(worker.store.path, "rb") as handle:
                handle.seek(worker.read_offset)
                chunk = handle.read()
        except OSError:
            return
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return
        worker.read_offset += cut + 1
        for line in chunk[:cut + 1].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            key = record.get("key")
            if key is None or key in worker.seen:
                continue
            worker.seen.add(key)
            self._emit(TRIAL_FINISHED, shard=worker.index,
                       record=record, trial=record.get("trial"))

    def _shard_complete(self, worker: ShardWorker) -> bool:
        """Whether a clean exit may be trusted as 'shard done'.

        Fixed plans must cover the whole shard keyspace; adaptive
        plans legitimately skip converged cells' replicates, so the
        worker's exit status is the only authority.
        """
        if self.options.adaptive:
            return True
        return worker.expected_keys <= worker.seen

    def _handle_exit(self, worker: ShardWorker):
        exitcode = worker.exitcode
        worker.reap()
        self._poll_store(worker)     # drain before judging
        if exitcode == 0 and self._shard_complete(worker):
            worker.finished = True
            self._emit(SHARD_FINISHED, shard=worker.index)
            return
        # Crash-loop window: a worker that stayed up past min_uptime
        # earned its restart budget back — only deaths in quick
        # succession accumulate toward OrchestratorError.
        uptime = time.monotonic() - worker.launched_at
        if worker.launched_at and self.min_uptime \
                and uptime >= self.min_uptime:
            worker.restarts = 0
        if worker.restarts >= self.max_restarts:
            raise OrchestratorError(
                "shard %d/%d died with exit code %s after %d "
                "restart%s (store: %s%s); its completed records are "
                "preserved — fix the cause and re-run to resume"
                % (worker.index, self.shards, exitcode, worker.restarts,
                   "" if worker.restarts == 1 else "s",
                   worker.store.path,
                   ", log: %s" % worker.log_path
                   if self.mode == CLI_MODE else ""))
        # Schedule the relaunch behind an exponential backoff instead
        # of firing immediately — an immediate relaunch into the same
        # fault (full disk, dead mount) burns max_restarts in
        # milliseconds and amplifies whatever is already on fire.
        worker.restarts += 1
        worker.lifetime_restarts += 1
        worker.relaunch_at = time.monotonic() + self.restart_backoff \
            .delay(worker.restarts - 1, token="shard-%d" % worker.index)

    def _check_hung(self, worker: ShardWorker) -> bool:
        """SIGKILL a live worker whose heartbeat lease expired.

        The lease renews on heartbeat payload changes AND on store
        progress the driver observes itself (``len(worker.seen)``), so
        a worker beating onto a dead disk is still covered; expiry
        means *neither* channel moved for a full lease.
        """
        if worker.monitor is None \
                or not worker.monitor.expired(
                    progress=len(worker.seen)):
            return False
        worker.hung += 1
        self._emit(SHARD_HUNG, shard=worker.index)
        worker.kill()
        self._handle_exit(worker)
        return True

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> CampaignResult:
        """Drive every shard to completion and merge the result."""
        os.makedirs(self.store_dir, exist_ok=True)
        self._make_workers()
        if self.mode == CLI_MODE:
            self._spec_file = os.path.join(self.store_dir, _SPEC_FILE)
            with open(self._spec_file, "w") as handle:
                json.dump(self.spec.to_dict(), handle, indent=2,
                          sort_keys=True)
        resumed_keys = set()
        for worker in self.workers:
            self._poll_store(worker)       # records of a previous run
            resumed_keys.update(worker.seen)
        skipped = len(resumed_keys)
        try:
            for worker in self.workers:
                if not self.options.adaptive \
                        and self._shard_complete(worker):
                    # A prior run already covered this shard's whole
                    # keyspace: nothing to launch (adaptive shards
                    # must still run — only the worker knows whether
                    # its open cells have converged).
                    worker.finished = True
                    self._emit(SHARD_FINISHED, shard=worker.index)
                    continue
                self._launch(worker)
                self._emit(SHARD_STARTED, shard=worker.index)
            while True:
                if self.stop_requested is not None \
                        and self.stop_requested():
                    raise OrchestratorStopped(
                        "campaign %r stopped on request with %d/%d "
                        "trials recorded; shard stores under %s keep "
                        "every completed record and a re-run resumes "
                        "from them" % (self.spec.name, self._done(),
                                       self._total, self.store_dir))
                for worker in self.workers:
                    if worker.finished:
                        continue
                    self._poll_store(worker)
                    if worker.relaunch_at is not None:
                        if time.monotonic() >= worker.relaunch_at:
                            self._launch(worker)
                            self._emit(SHARD_RESTARTED,
                                       shard=worker.index)
                        continue
                    if not worker.alive:
                        self._handle_exit(worker)
                    else:
                        self._check_hung(worker)
                if all(worker.finished for worker in self.workers):
                    break
                time.sleep(self.poll_interval)
        finally:
            for worker in self.workers:
                worker.terminate()
        for worker in self.workers:
            self._poll_store(worker)       # final drain
        # Merge APPENDS to the merged store (fresh shard records win
        # over anything already there, per merge_stores' documented
        # last-write-wins) and compaction collapses the duplicates —
        # a pre-existing store a user handed in is never wiped, which
        # run() on a session would have refused to do too.
        merge_stores([worker.store for worker in self.workers],
                     self.merged_store)
        self.merged_store.compact()
        by_key = {record["key"]: record
                  for record in self.merged_store.load()}
        trials = self._trials
        if self.options.adaptive:
            records = [by_key[trial.key] for trial in trials
                       if trial.key in by_key]
        else:
            # Fixed plans must cover the grid; a gap in the merged
            # store is a defect, not a convergence decision.
            missing = [trial.key for trial in trials
                       if trial.key not in by_key]
            if missing:
                raise OrchestratorError(
                    "merged store %s is missing %d of %d trial "
                    "records (first: %s) — shard stores and merge "
                    "disagree" % (self.merged_store.path,
                                  len(missing), len(trials),
                                  missing[0]))
            records = [by_key[trial.key] for trial in trials]
        self.result = CampaignResult(
            spec=self.spec, records=records,
            executed=self._done() - skipped, skipped=skipped)
        if self.options.adaptive:
            self.result.adaptive = merged_adaptive_summary(
                self.options.sampling, trials,
                {record["key"]: record for record in records},
                resumed_keys=resumed_keys)
        self._emit(CAMPAIGN_FINISHED)
        return self.result

    @property
    def total_restarts(self) -> int:
        """Worker relaunches over the whole run (cumulative — crash-loop
        forgiveness resets the per-window budget, not this tally)."""
        return sum(worker.lifetime_restarts for worker in self.workers)

    @property
    def total_hung(self) -> int:
        """Workers SIGKILL'd for heartbeat lease expiry (cumulative)."""
        return sum(worker.hung for worker in self.workers)
