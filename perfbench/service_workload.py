"""The service workload: ``repro-ft serve`` under open-loop arrivals.

The service runs as a child process in its own process group.  The
benchmark process drives it over HTTP with at most two threads and two
keep-alive connections: the main thread sends each job when it is due,
and one poller thread lists each tenant's jobs once per tick.  It uses
its own small client rather than ``repro.service.loadgen``, so a change
to the program's client cannot change what is measured.  Arrivals
are a Poisson process at ``SERVICE_RATE`` conditioned on its count: the
schedule holds exactly ``rate x window`` jobs at seeded uniform times,
each from a tenant picked by a seeded fair coin.  Jobs are timed from
when they were due to the service's ``finished_at``, so a stall delays
the jobs behind it too.

After the timed phase a liveness probe submits a pooled job and two
``shards=2`` jobs from two tenants; any probe job not done by
``PROBE_DEADLINE_S`` is one failed operation.  The service tree is then
SIGKILLed, because a SIGTERM drain can wait a minute.
"""

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle
from workloads import (SERVICE_RATE, SERVICE_SLOTS, SERVICE_TENANTS,
                       probe_job_spec, service_job_spec)

#: The p90 needs at least 10 jobs beyond it, so a run sends >= 100.
MIN_JOBS = 100
#: Jobs whose records make up the digest: the ones every run sends.
DIGEST_JOBS = MIN_JOBS
POLL_S = 0.25
FINISH_TIMEOUT_S = 30.0
PROBE_DEADLINE_S = 5.0
#: Launches that only answer /healthz, before and after the loop.
SETUP_ONLY_LAUNCHES = 2
#: Service job records checked against an in-process session, and rate
#: trials re-simulated by the reference oracle.
SESSION_SAMPLE = 3
ORACLE_STRUCK = 8
ORACLE_SILENT = 2

TERMINAL = ("done", "failed", "cancelled")


def percentile(values, fraction):
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Client:
    """JSON over one keep-alive HTTP connection."""

    def __init__(self, url, timeout=10.0):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self._connection = http.client.HTTPConnection(host, int(port),
                                                      timeout=timeout)

    def raw(self, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self._connection.request(method, path, body=payload,
                                 headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def request(self, method, path, body=None):
        status, data = self.raw(method, path, body)
        return status, json.loads(data or b"{}")

    def close(self):
        self._connection.close()


# -- the service process ----------------------------------------------------

class Service:
    """One ``repro-ft serve`` child, up and answering ``/healthz``."""

    def __init__(self, ctx, name):
        self.data_dir = os.path.join(ctx.work, name)
        service_file = os.path.join(self.data_dir, "service.json")
        env = dict(os.environ, PYTHONPATH=ctx.src)
        self._log = open(self.data_dir + ".log", "w")
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--data-dir", self.data_dir, "--port", "0",
             "--slots", str(SERVICE_SLOTS)],
            cwd=ctx.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            self.url = self._wait_healthy(service_file, launched + 60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - launched

    def _wait_healthy(self, service_file, deadline):
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("repro-ft serve exited %d at start"
                                   % self.process.returncode)
            try:
                with open(service_file) as handle:
                    url = json.load(handle)["url"]
                client = Client(url, timeout=1.0)
                try:
                    if client.request("GET", "/healthz")[0] == 200:
                        return url
                finally:
                    client.close()
            except (OSError, ValueError, KeyError,
                    http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("repro-ft serve did not answer /healthz")

    def group(self):
        """Live (non-zombie) pids of the service's process group."""
        members = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.process.pid and fields[0] != "Z":
                members.append(int(entry))
        return members

    def peak_rss_mb(self):
        """The largest peak RSS (VmHWM) in the service tree, in MiB."""
        peak = 0
        for pid in self.group():
            try:
                with open("/proc/%d/status" % pid) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def kill(self):
        """SIGKILL the whole tree and wait until every member is gone."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10.0
        while self.group() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._log.close()


# -- the open-loop generator ------------------------------------------------

def schedule(seed, seconds):
    """``(offset_s, tenant)`` per job: a Poisson process conditioned on
    its count, so every seed sends the same number of jobs."""
    window = max(seconds, MIN_JOBS / SERVICE_RATE)
    count = int(round(SERVICE_RATE * window))
    rng = random.Random(seed)
    offsets = sorted(rng.uniform(0.0, window) for _ in range(count))
    return [(offset, rng.choice(SERVICE_TENANTS)) for offset in offsets]


def open_loop(url, seed, arrivals):
    """Send every job when due; return the per-job ledger and the
    number of jobs seen ``done`` without ``finished_at``."""
    jobs = [{"tenant": tenant, "offset": offset,
             "id": "perfbench-%04d" % index,
             "spec": service_job_spec(seed, index)}
            for index, (offset, tenant) in enumerate(arrivals)]
    by_id = {job["id"]: job for job in jobs}
    torn = set()
    errors = []
    stop = threading.Event()

    def poll():
        client = Client(url)
        try:
            while not stop.is_set():
                tick = time.monotonic()
                for tenant in SERVICE_TENANTS:
                    _status, body = client.request(
                        "GET", "/api/jobs?tenant=%s" % tenant)
                    for summary in body["jobs"]:
                        job = by_id.get(summary["id"])
                        if job is None or "summary" in job \
                                or summary["state"] not in TERMINAL:
                            continue
                        if summary["state"] == "done" \
                                and summary["finished_at"] is None:
                            torn.add(summary["id"])
                            continue
                        job["summary"] = summary
                stop.wait(max(0.0, POLL_S - (time.monotonic() - tick)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            client.close()

    poller = threading.Thread(target=poll, name="perfbench-poller")
    client = Client(url)
    start = time.time() + 0.2
    poller.start()
    try:
        for job in jobs:
            job["due"] = start + job["offset"]
            delay = job["due"] - time.time()
            if delay > 0:
                time.sleep(delay)
            job["sent"] = time.time()
            job["status"], _body = client.request(
                "POST", "/api/jobs", {"tenant": job["tenant"],
                                      "spec": job["spec"],
                                      "job_id": job["id"]})
            job["acked"] = time.time()
        deadline = time.monotonic() + FINISH_TIMEOUT_S
        while time.monotonic() < deadline and not errors \
                and any("summary" not in job for job in jobs
                        if job["status"] == 201):
            time.sleep(POLL_S)
    finally:
        stop.set()
        poller.join()
        client.close()
    if errors:
        raise errors[0]
    return jobs, len(torn)


def probe(url, seed):
    """Submit the sharded-job liveness probe; return whether every
    probe job finished by the deadline, and each job's state.

    Tenant ``a``'s pooled job is sent first and keeps both slots busy.
    Tenant ``b``'s sharded job follows, and tenant ``a``'s sharded job
    is sent once ``b``'s demand is registered.  So both tenants demand
    slots at once, as independent tenants do, and neither sharded job
    can take both slots before the other tenant asks for one.
    """
    client = Client(url)
    ids = []

    def demand(tenant):
        return client.request("GET", "/api/tenants")[1]["tenants"] \
            .get(tenant, {}).get("demand", 0)

    try:
        for tenant, shards, name, instructions in (
                ("a", 0, "pooled-a", 3000), ("b", 2, "sharded-b", 300),
                ("a", 2, "sharded-a", 300)):
            ids.append("perfbench-probe-" + name)
            before = demand(tenant)
            client.request("POST", "/api/jobs", {
                "tenant": tenant, "shards": shards, "job_id": ids[-1],
                "spec": probe_job_spec(seed, name, instructions)})
            settle = time.monotonic() + 1.0
            while demand(tenant) <= before and time.monotonic() < settle:
                time.sleep(0.005)
        deadline = time.monotonic() + PROBE_DEADLINE_S
        while True:
            summaries = [client.request("GET", "/api/jobs/" + job_id)[1]
                         for job_id in ids]
            states = ["%s %s %d/%d" % (job_id, summary["state"],
                                       summary["done"], summary["total"])
                      for job_id, summary in zip(ids, summaries)]
            finished = all(summary["state"] == "done"
                           and summary["finished_at"] is not None
                           for summary in summaries)
            if finished or time.monotonic() > deadline:
                return finished, states
            time.sleep(POLL_S)
    finally:
        client.close()


def fetch_records(url, jobs):
    client = Client(url)
    try:
        for job in jobs:
            if "summary" in job:
                job["records"] = client.request(
                    "GET", "/api/jobs/%s/result?records=1"
                    % job["id"])[1]["records"]
    finally:
        client.close()


def trial_seconds(url, jobs):
    """Each trial's ``trial_started`` to ``trial_finished`` span, from
    the event timestamps the service logged."""
    client = Client(url)
    durations = []
    try:
        for job in jobs:
            _status, data = client.raw(
                "GET", "/api/jobs/%s/events?follow=0" % job["id"])
            started = {}
            for line in data.decode().splitlines():
                if not line.startswith("data:"):
                    continue
                event = json.loads(line[5:])
                kind = event.get("kind")
                if kind == "trial_started":
                    started[event["trial"]["key"]] = event["ts"]
                elif kind == "trial_finished":
                    key = event["trial"]["key"]
                    durations.append(event["ts"] - started.pop(key))
    finally:
        client.close()
    return durations


# -- a run ------------------------------------------------------------------

def occupied_seconds(intervals):
    """Length of the union of ``(start, end)`` intervals: the time
    during which at least one of them was open."""
    total = 0.0
    start = end = None
    for low, high in sorted(intervals):
        if end is not None and low <= end:
            end = max(end, high)
            continue
        if end is not None:
            total += end - start
        start, end = low, high
    return total + (end - start if end is not None else 0.0)


def run(ctx):
    from repro.campaign import CampaignSession, CampaignSpec, \
        ExecutionOptions

    arrivals = schedule(ctx.seed, ctx.seconds)
    setups = []

    def launch_only(when):
        for index in range(SETUP_ONLY_LAUNCHES):
            service = Service(ctx, "setup-%s-%d" % (when, index))
            setups.append(service.setup_s)
            service.kill()

    launch_only("before")
    service = Service(ctx, "loop")
    try:
        setups.append(service.setup_s)
        jobs, torn = open_loop(service.url, ctx.seed, arrivals)
        peak_rss_mb = service.peak_rss_mb()
        fetch_records(service.url, jobs)
        if ctx.trace:
            trial_s = trial_seconds(service.url, jobs)
        live, states = probe(service.url, ctx.seed)
    finally:
        service.kill()
    launch_only("after")

    # -- outcome of every operation ---------------------------------------
    ctx.attempted = len(jobs) + 1
    for job in jobs:
        summary = job.get("summary")
        if job["status"] != 201:
            ctx.failed += 1
            ctx.note("job %s refused with HTTP %d"
                     % (job["id"], job["status"]))
        elif summary is None:
            ctx.failed += 1
            ctx.note("job %s unfinished after %.0f s"
                     % (job["id"], FINISH_TIMEOUT_S))
        elif summary["state"] != "done":
            ctx.failed += 1
            ctx.note("job %s ended %s: %s" % (
                job["id"], summary["state"], summary.get("error")))
    if not live:
        ctx.failed += 1
    ctx.note("sharded-job liveness probe %s after %.0f s: %s"
             % ("passed" if live else "FAILED", PROBE_DEADLINE_S,
                "; ".join(states)))

    # -- correctness, outside every timed region -------------------------
    finished = [job for job in jobs if "records" in job]
    if all("records" in job for job in jobs[:DIGEST_JOBS]):
        ctx.check_digest(oracle.records_digest(
            [job["records"] for job in jobs[:DIGEST_JOBS]]))
    else:
        ctx.fail(1, "records digest needs the first %d jobs" % DIGEST_JOBS)
    sample = random.Random(ctx.seed).sample(
        finished, min(SESSION_SAMPLE, len(finished)))
    differing = [job["id"] for job in sample
                 if CampaignSession(CampaignSpec.from_dict(job["spec"]),
                                    options=ExecutionOptions()).run().records
                 != job["records"]]
    if differing:
        ctx.fail(len(differing), "jobs %s: records differ from an "
                 "in-process session" % ", ".join(differing))
    ctx.note("service against in-process session: %d of %d sampled jobs "
             "match" % (len(sample) - len(differing), len(sample)))
    ctx.check_reference(oracle.sample_rate_records(
        [record for job in finished for record in job["records"]],
        ctx.seed, ORACLE_STRUCK, ORACLE_SILENT))

    # -- metrics -----------------------------------------------------------
    done = [job for job in jobs
            if job.get("summary", {}).get("state") == "done"]
    summaries = [job["summary"] for job in done]
    latencies = [job["summary"]["finished_at"] - job["due"]
                 for job in done]
    p50 = percentile(latencies, 0.5)
    p90 = percentile(latencies, 0.9)
    beyond = sum(1 for value in latencies if value > p90)
    lag = [job["sent"] - job["due"] for job in jobs]
    ctx.samples["jobs sent"] = len(jobs)
    ctx.samples["job latency (done jobs)"] = len(latencies)
    ctx.samples["jobs beyond p90"] = beyond
    ctx.samples["setup launches"] = len(setups)
    if beyond < 10:
        ctx.fail(1, "only %d jobs beyond the p90" % beyond)
    ctx.note("job latency: p50 %.4f s, p90 %.4f s over %d jobs; generator "
             "lag: p90 %.4f s, max %.4f s"
             % (p50, p90, len(latencies), percentile(lag, 0.9), max(lag)))
    trials = sum(summary["done"] for summary in summaries)
    # The offered load sets trials / wall; a faster service shows as
    # less time with at least one job in it, by the service's clock.
    wall = max(summary["finished_at"] for summary in summaries) \
        - jobs[0]["due"]
    occupied = occupied_seconds(
        (summary["submitted_at"], summary["finished_at"])
        for summary in summaries)
    ctx.note("service occupied %.3f s of the %.3f s from the first due "
             "time to the last finish" % (occupied, wall))
    if not ctx.trace:
        return {
            "trials_per_s": trials / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    queue = [summary["started_at"] - summary["submitted_at"]
             for summary in summaries]
    runs = [summary["finished_at"] - summary["started_at"]
            for summary in summaries]
    ctx.samples["trial spans"] = len(trial_s)
    return {
        "service.job_latency_p50_s": p50,
        "service.job_latency_p90_s": p90,
        "service.submit_p50_s": statistics.median(
            job["acked"] - job["sent"] for job in jobs),
        "service.queue_p50_s": percentile(queue, 0.5),
        "service.queue_p90_s": percentile(queue, 0.9),
        "service.run_p50_s": percentile(runs, 0.5),
        "service.run_p90_s": percentile(runs, 0.9),
        "service.trial_p50_s": percentile(trial_s, 0.5),
        "service.torn_summaries": torn,
        "service.occupied_trials_per_s": trials / occupied,
        "loadgen.lag_p90_s": percentile(lag, 0.9),
        "loadgen.lag_max_s": max(lag),
    }
