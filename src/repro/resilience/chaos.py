"""Seeded chaos harness for the campaign service (``repro-ft chaos``).

The process faults the resilience layer claims to survive — worker
SIGKILLs and hung (SIGSTOPped) workers — are driven here *for real*
against a live :class:`~repro.service.backend.ServiceBackend`, and the
outcome is checked against the stack's core promise: per-trial seeds
derive from content-hashed keys, so any amount of killing and
re-running must produce **byte-identical records** to an undisturbed
run.

:func:`run_service_chaos` runs jobs for two tenants while the schedule
SIGKILLs and SIGSTOPs shared-pool workers.  A stopped worker never
exits on its own; the per-trial deadline, the only hang detector, must
find it.  Every job must still reach ``done`` (deadline + pool rebuild
+ resubmit by key), with records identical to a plain in-process
session and a sane fairness ledger.  Torn store tails are not injected
here: the store tests cover them at every byte offset.

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

KILL = "kill"              #: SIGKILL a live worker process.
STALL = "stall"            #: SIGSTOP a live worker process (a hang).
OP_KINDS = (KILL, STALL)

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
    kind: str                       #: KILL / STALL
    applied: bool = False
    detail: str = ""                #: victim pid

    def as_dict(self) -> dict:
        return {"at": round(self.at, 3), "kind": self.kind,
                "applied": self.applied, "detail": self.detail}


class ChaosSchedule:
    """A seed-deterministic list of :class:`ChaosOp`."""

    def __init__(self, ops: List[ChaosOp]):
        self.ops = sorted(ops, key=lambda op: op.at)

    @classmethod
    def generate(cls, seed: int, kills: int = 1, stalls: int = 1,
                 horizon: float = 2.5) -> "ChaosSchedule":
        """``kills + stalls`` ops at seeded times within ``horizon``
        seconds of the run start (ops whose victims are not ready yet
        fire as soon as one appears)."""
        if min(kills, stalls) < 0:
            raise ConfigError("chaos op counts must be >= 0")
        if horizon <= 0:
            raise ConfigError("chaos horizon must be > 0")
        rng = random.Random(seed)
        ops = []
        for kind, count in ((KILL, kills), (STALL, stalls)):
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
    """Replays a schedule against a live backend's shared pool.

    Each op waits at its fire time until a victim exists (or the run
    ends), so a schedule is never silently skipped just because the
    pool was briefly idle or between rebuilds.
    """

    #: How long an op keeps waiting for a victim before giving up.
    VICTIM_WAIT = 10.0

    def __init__(self, backend, schedule: ChaosSchedule, seed: int):
        super().__init__(name="chaos-injector", daemon=True)
        self.backend = backend
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
        if not self._busy():
            return False
        pids = self._pool_pids()
        if not pids:
            return False
        pid = self.rng.choice(pids)
        signum = signal.SIGKILL if op.kind == KILL else signal.SIGSTOP
        try:
            os.kill(pid, signum)
        except OSError:
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


# -- the run -----------------------------------------------------------------

def run_service_chaos(data_dir: str, seed: int = 0, kills: int = 1,
                      stalls: int = 1, jobs: int = 2, slots: int = 2,
                      trial_timeout: float = 3.0,
                      spec: Optional[dict] = None,
                      deadline: float = 300.0,
                      schedule: Optional[ChaosSchedule] = None
                      ) -> dict:
    """Chaos against the service's shared pool.

    Submits ``jobs`` jobs across two tenants, SIGKILLs and
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
                                          stalls=stalls)
    # Each kill or stall breaks the shared pool at most once, so a
    # trial in flight through all of them is resubmitted that often.
    counts = schedule.counts()
    options = ExecutionOptions(
        trial_retries=max(2, counts[KILL] + counts[STALL]))
    injector = _Injector(backend, schedule, seed)
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
    except Exception as exc:          # noqa: BLE001 — the report is
        # the harness output; a crashed run is a failed invariant,
        # not a crashed harness.
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
    lines = ["chaos: %s" % ("OK" if report["ok"] else "FAILED")]
    for op in report["ops"]:
        lines.append("  t+%.2fs %-5s %s  %s"
                     % (op["at"], op["kind"],
                        "applied" if op["applied"] else "NOT APPLIED",
                        op["detail"]))
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
    report = run_service_chaos(
        args.dir, seed=args.seed, kills=args.kills, stalls=args.stalls,
        jobs=args.jobs, slots=args.slots,
        trial_timeout=args.trial_timeout, spec=spec)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_chaos_report(report))
    if not report["ok"] and not args.json:
        print("chaos: invariants violated", file=sys.stderr)
    return 0 if report["ok"] else 1
