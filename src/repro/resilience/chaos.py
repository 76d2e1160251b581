"""Seeded chaos harness for the campaign stack (``repro-ft chaos``).

The fault model the resilience layer claims to survive — worker
SIGKILLs, hung (SIGSTOPped) workers, torn store writes — is driven
here *for real* against live ``orchestrate`` and service runs, and the
outcome is checked against the stack's core promise: per-trial seeds
derive from content-hashed keys, so any amount of killing and
re-running must produce **byte-identical merged records** to an
undisturbed run.

Two targets:

* :func:`run_orchestrate_chaos` — a multi-shard
  :class:`~repro.campaign.orchestrator.CampaignOrchestrator` run with
  heartbeat liveness on, disturbed by a seeded schedule of worker
  SIGKILLs, worker SIGSTOPs (the orchestrator must *detect* these via
  heartbeat lease expiry — a stopped process never exits on its own)
  and torn shard-store appends (a partial JSON fragment with no
  newline, exactly what a power cut mid-``write`` leaves).
* :func:`run_service_chaos` — a :class:`~repro.service.backend.
  ServiceBackend` executing pooled jobs for two tenants while the
  schedule SIGKILLs and SIGSTOPs shared-pool workers; every job must
  still reach ``done`` (per-trial deadlines + pool rebuild + resubmit
  by key), with records identical to a plain in-process session and a
  sane fairness ledger.

Schedules are deterministic per seed (op kinds and fire times from
``random.Random(seed)``); the *victims* depend on which workers are
alive when an op fires, so runs are reproducible in shape, not in
wall-clock interleaving — the point of the invariants is that the
outcome must not depend on the interleaving at all.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from .retry import RetryPolicy

KILL = "kill"              #: SIGKILL a live worker process.
STALL = "stall"            #: SIGSTOP a live worker process (a hang).
TORN = "torn"              #: append a torn fragment to a store file.
OP_KINDS = (KILL, STALL, TORN)

#: The fragment a torn op appends: valid-looking JSON cut mid-string,
#: no trailing newline — what a writer killed mid-``write(2)`` leaves.
TORN_FRAGMENT = '{"key": "chaos-torn", "outcome": "inco'

#: The grid chaos runs disturb when the caller brings no spec: big
#: enough to stay in flight for a few seconds of scheduled mayhem,
#: small enough for a CI smoke job.
DEFAULT_CHAOS_SPEC = {
    "name": "chaos",
    "workloads": ["gcc"],
    "models": ["SS-1", "SS-2"],
    "rates_per_million": [0.0, 3000.0],
    "replicates": 12,
    "instructions": 5000,
}


@dataclass
class ChaosOp:
    """One scheduled disturbance."""

    at: float                       #: seconds after the run starts
    kind: str                       #: KILL / STALL / TORN
    applied: bool = False
    detail: str = ""                #: victim pid / store path

    def as_dict(self) -> dict:
        return {"at": round(self.at, 3), "kind": self.kind,
                "applied": self.applied, "detail": self.detail}


class ChaosSchedule:
    """A seed-deterministic list of :class:`ChaosOp`."""

    def __init__(self, ops: List[ChaosOp]):
        self.ops = sorted(ops, key=lambda op: op.at)

    @classmethod
    def generate(cls, seed: int, kills: int = 1, stalls: int = 1,
                 torn: int = 1, horizon: float = 2.5) -> "ChaosSchedule":
        """``kills + stalls + torn`` ops at seeded times within
        ``horizon`` seconds of the run start (ops whose victims are
        not ready yet fire as soon as one appears)."""
        if min(kills, stalls, torn) < 0:
            raise ConfigError("chaos op counts must be >= 0")
        if horizon <= 0:
            raise ConfigError("chaos horizon must be > 0")
        rng = random.Random(seed)
        ops = []
        for kind, count in ((KILL, kills), (STALL, stalls),
                            (TORN, torn)):
            for _ in range(count):
                ops.append(ChaosOp(at=rng.uniform(0.2, horizon),
                                   kind=kind))
        return cls(ops)

    def counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in OP_KINDS}
        for op in self.ops:
            counts[op.kind] += 1
        return counts

    def applied_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in OP_KINDS}
        for op in self.ops:
            if op.applied:
                counts[op.kind] += 1
        return counts

    def all_applied(self) -> bool:
        return all(op.applied for op in self.ops)


class _Injector(threading.Thread):
    """Replays a schedule against a live run.

    Subclasses provide the victim surface; each op waits at its fire
    time until a victim exists (or the run ends), so a schedule is
    never silently skipped just because the run was briefly between
    workers.
    """

    #: How long an op keeps waiting for a victim before giving up.
    VICTIM_WAIT = 10.0

    def __init__(self, schedule: ChaosSchedule, seed: int):
        super().__init__(name="chaos-injector", daemon=True)
        self.schedule = schedule
        self.rng = random.Random(seed ^ 0x5EED)
        self.stop = threading.Event()

    def run(self):
        start = time.monotonic()
        for op in self.schedule.ops:
            while time.monotonic() - start < op.at:
                if self.stop.wait(timeout=0.02):
                    return
            deadline = time.monotonic() + self.VICTIM_WAIT
            while not op.applied and time.monotonic() < deadline:
                if self._apply(op):
                    op.applied = True
                    break
                if self.stop.wait(timeout=0.05):
                    return

    def finish(self, timeout: float = 5.0):
        self.stop.set()
        self.join(timeout=timeout)

    # -- subclass surface --------------------------------------------------

    def _apply(self, op: ChaosOp) -> bool:
        raise NotImplementedError

    @staticmethod
    def _signal(pid: int, signum) -> bool:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, OSError):
            return False
        return True


class _OrchestrateInjector(_Injector):
    """Disturbs a :class:`CampaignOrchestrator`'s shard workers."""

    def __init__(self, orchestrator, schedule: ChaosSchedule,
                 seed: int):
        super().__init__(schedule, seed)
        self.orchestrator = orchestrator

    def _apply(self, op: ChaosOp) -> bool:
        if op.kind == TORN:
            paths = [worker.store.path
                     for worker in self.orchestrator.workers
                     if hasattr(worker.store, "path")
                     and os.path.exists(worker.store.path)]
            if not paths:
                return False
            path = self.rng.choice(paths)
            try:
                with open(path, "a") as handle:
                    handle.write(TORN_FRAGMENT)
                    handle.flush()
            except OSError:
                return False
            op.detail = path
            return True
        victims = [worker for worker in self.orchestrator.workers
                   if worker.alive and worker.pid]
        if not victims:
            return False
        victim = self.rng.choice(victims)
        signum = signal.SIGKILL if op.kind == KILL else signal.SIGSTOP
        if not self._signal(victim.pid, signum):
            return False
        op.detail = "shard %d (pid %d)" % (victim.index, victim.pid)
        return True


class _ServiceInjector(_Injector):
    """Disturbs a :class:`ServiceBackend`'s shared pool workers."""

    def __init__(self, backend, schedule: ChaosSchedule, seed: int):
        super().__init__(schedule, seed)
        self.backend = backend

    def _pool_pids(self) -> List[int]:
        with self.backend._pool_lock:
            pool = self.backend._pool
        if pool is None:
            return []
        processes = getattr(pool, "_processes", None) or {}
        return [process.pid for process in list(processes.values())
                if process.is_alive() and process.pid]

    def _busy(self) -> bool:
        tenants = self.backend.scheduler.report()["tenants"]
        return any(entry["in_flight"] for entry in tenants.values())

    def _apply(self, op: ChaosOp) -> bool:
        if op.kind == TORN:
            # Service chaos keeps to process faults: job stores are
            # appended from this very process, so a torn injection can
            # interleave with a live append and eat a record — a fault
            # *outside* the torn-tail model (a real writer tears only
            # its own final line).  FlakyStore unit tests cover the
            # store-level torn/refused paths instead.
            op.detail = "skipped for service target"
            return True
        if not self._busy():
            return False
        pids = self._pool_pids()
        if not pids:
            return False
        pid = self.rng.choice(pids)
        signum = signal.SIGKILL if op.kind == KILL else signal.SIGSTOP
        if not self._signal(pid, signum):
            return False
        op.detail = "pool worker pid %d" % pid
        return True


# -- invariants --------------------------------------------------------------

def _records_blob(records) -> str:
    """Canonical byte form of a record set (order-free)."""
    return json.dumps(sorted(records, key=lambda r: r["key"]),
                      sort_keys=True)


def _clean_records(spec) -> List[dict]:
    """The undisturbed truth: one in-process serial session run."""
    from ..campaign import CampaignSession
    return CampaignSession(spec).run().records


# -- targets -----------------------------------------------------------------

def run_orchestrate_chaos(store_dir: str, seed: int = 0,
                          shards: int = 2, kills: int = 1,
                          stalls: int = 1, torn: int = 1,
                          heartbeat_lease: float = 1.5,
                          spec: Optional[dict] = None,
                          max_restarts: int = 8,
                          schedule: Optional[ChaosSchedule] = None
                          ) -> dict:
    """A chaos-disturbed orchestrate run checked against a clean one.

    Invariants asserted in the report (``ok`` is their conjunction):
    every scheduled op applied, merged records byte-identical to the
    undisturbed run, and — when the schedule stalls a worker — at
    least one hang detected and recovered via heartbeat lease expiry.
    """
    from ..campaign import CampaignOrchestrator, CampaignSpec
    spec = CampaignSpec.from_dict(dict(spec or DEFAULT_CHAOS_SPEC))
    clean = _clean_records(spec)
    orchestrator = CampaignOrchestrator(
        spec, shards=shards, store_dir=store_dir,
        poll_interval=0.05, max_restarts=max_restarts,
        restart_backoff=RetryPolicy(attempts=1, base_delay=0.1,
                                    max_delay=1.0, jitter=0.0),
        min_uptime=0.5,
        heartbeat_lease=heartbeat_lease,
        heartbeat_interval=0.2)
    if schedule is None:
        schedule = ChaosSchedule.generate(seed, kills=kills,
                                          stalls=stalls, torn=torn)
    stalls = schedule.counts()[STALL]
    injector = _OrchestrateInjector(orchestrator, schedule, seed)
    injector.start()
    error = ""
    try:
        result = orchestrator.run()
        records = result.records
    except Exception as exc:          # noqa: BLE001 — the report is
        # the harness output; a crashed run is a failed invariant,
        # not a crashed harness.
        error = "%s: %s" % (type(exc).__name__, exc)
        records = []
    finally:
        injector.finish()
    identical = _records_blob(records) == _records_blob(clean)
    hang_recovered = stalls == 0 or orchestrator.total_hung >= 1
    ok = (not error and schedule.all_applied() and identical
          and hang_recovered)
    return {
        "target": "orchestrate",
        "seed": seed,
        "shards": shards,
        "ops": [op.as_dict() for op in schedule.ops],
        "ops_applied": schedule.applied_counts(),
        "records": len(records),
        "records_expected": len(clean),
        "identical_to_clean": identical,
        "hung_detected": orchestrator.total_hung,
        "hang_recovered": hang_recovered,
        "restarts": orchestrator.total_restarts,
        "error": error,
        "ok": ok,
    }


def run_service_chaos(data_dir: str, seed: int = 0, kills: int = 1,
                      stalls: int = 1, jobs: int = 2, slots: int = 2,
                      trial_timeout: float = 3.0,
                      spec: Optional[dict] = None,
                      deadline: float = 300.0,
                      schedule: Optional[ChaosSchedule] = None
                      ) -> dict:
    """Chaos against the service's shared pool.

    Submits ``jobs`` pooled jobs across two tenants, SIGKILLs and
    SIGSTOPs pool workers per the schedule, and asserts: no job lost
    (all reach ``done``), every job's stored records byte-identical to
    a plain in-process run of its spec, fairness ledger consistent.
    A stopped worker is found by the per-trial deadline
    (``trial_timeout``) alone.
    """
    from ..campaign import CampaignSpec, ExecutionOptions
    from ..service.backend import ServiceBackend
    from ..service.jobs import DONE
    spec_dict = dict(spec or DEFAULT_CHAOS_SPEC)
    clean_blob = _records_blob(
        _clean_records(CampaignSpec.from_dict(dict(spec_dict))))
    backend = ServiceBackend(data_dir, slots=slots,
                             trial_timeout=trial_timeout,
                             poll_interval=0.05)
    if schedule is None:
        schedule = ChaosSchedule.generate(seed, kills=kills,
                                          stalls=stalls, torn=0)
    # Each kill or stall breaks the shared pool at most once, so a
    # trial in flight through all of them is resubmitted that often.
    counts = schedule.counts()
    options = ExecutionOptions(
        trial_retries=max(2, counts[KILL] + counts[STALL]))
    injector = _ServiceInjector(backend, schedule, seed)
    error = ""
    submitted = []
    try:
        for index in range(jobs):
            submitted.append(backend.submit(
                "tenant-%d" % (index % 2), dict(spec_dict),
                options=options))
        injector.start()
        limit = time.monotonic() + deadline
        while time.monotonic() < limit:
            if all(backend.job(job.id).terminal for job in submitted):
                break
            time.sleep(0.1)
    except Exception as exc:          # noqa: BLE001 — see above
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        injector.finish()
        backend.close(drain_timeout=10.0)
    states = {job.id: backend.job(job.id).state for job in submitted}
    all_done = bool(submitted) \
        and all(state == DONE for state in states.values())
    mismatched = []
    for job in submitted:
        stored = job.store(backend.data_dir).load()
        deduped = {record["key"]: record for record in stored}
        if _records_blob(list(deduped.values())) != clean_blob:
            mismatched.append(job.id)
    fairness = backend.scheduler.report()
    ledger_ok = all(
        entry["busy_seconds"] >= 0.0
        and entry["trials_executed"] > 0
        for entry in fairness["tenants"].values()) \
        if fairness["tenants"] else False
    ok = (not error and all_done and not mismatched
          and schedule.all_applied() and ledger_ok)
    return {
        "target": "service",
        "seed": seed,
        "jobs": states,
        "ops": [op.as_dict() for op in schedule.ops],
        "ops_applied": schedule.applied_counts(),
        "all_done": all_done,
        "records_mismatched": mismatched,
        "fairness": fairness,
        "ledger_ok": ledger_ok,
        "error": error,
        "ok": ok,
    }


# -- CLI entry ---------------------------------------------------------------

def format_chaos_report(report: dict) -> str:
    lines = ["chaos %s: %s" % (report["target"],
                               "OK" if report["ok"] else "FAILED")]
    for op in report["ops"]:
        lines.append("  t+%.2fs %-5s %s  %s"
                     % (op["at"], op["kind"],
                        "applied" if op["applied"] else "NOT APPLIED",
                        op["detail"]))
    if report["target"] == "orchestrate":
        lines.append("  records %d/%d, identical to clean run: %s"
                     % (report["records"], report["records_expected"],
                        report["identical_to_clean"]))
        lines.append("  hung workers detected: %d, shard restarts: %d"
                     % (report["hung_detected"], report["restarts"]))
    else:
        lines.append("  jobs: %s" % ", ".join(
            "%s=%s" % (job_id, state)
            for job_id, state in sorted(report["jobs"].items())))
        lines.append("  records identical for every job: %s"
                     % (not report["records_mismatched"]))
    if report.get("error"):
        lines.append("  error: %s" % report["error"])
    return "\n".join(lines)


def run_chaos(args) -> int:
    """``repro-ft chaos`` entry point."""
    import sys
    spec = None
    if args.spec:
        with open(args.spec) as handle:
            spec = json.load(handle)
    targets = ("orchestrate", "service") if args.target == "both" \
        else (args.target,)
    reports = []
    for target in targets:
        directory = os.path.join(args.dir, target) \
            if len(targets) > 1 else args.dir
        if target == "orchestrate":
            reports.append(run_orchestrate_chaos(
                directory, seed=args.seed, shards=args.shards,
                kills=args.kills, stalls=args.stalls, torn=args.torn,
                heartbeat_lease=args.heartbeat_lease, spec=spec))
        else:
            reports.append(run_service_chaos(
                directory, seed=args.seed, kills=args.kills,
                stalls=args.stalls, jobs=args.jobs, slots=args.slots,
                trial_timeout=args.trial_timeout, spec=spec))
    if args.json:
        payload = reports[0] if len(reports) == 1 \
            else dict(zip(targets, reports))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(format_chaos_report(report))
    failed = not all(report["ok"] for report in reports)
    if failed and not args.json:
        print("chaos: invariants violated", file=sys.stderr)
    return 1 if failed else 0
