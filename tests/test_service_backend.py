"""ServiceBackend: the fairness-gated execution engine.

The load-bearing property throughout: the service schedules, it never
changes results.  Every job shape (fixed and adaptive plans, with or
without a ``shards`` cap) must produce records byte-identical to a
plain in-process CampaignSession run of the same spec, and
interruption at any point (cancel, drain, recovery) must
leave stores that a resumed run completes to the identical record set.
"""

import json
import os
import time
from collections import Counter

import pytest

from repro.campaign import (CampaignSession, CampaignSpec,
                            ExecutionOptions, SamplingPlan, aggregate)
from repro.campaign.aggregate import trial_cell
from repro.errors import JobGoneError, QuotaError, ServiceError
from repro.resilience.circuit import CircuitBreaker
from repro.service import (CANCELLED, DONE, INTERRUPTED, QUEUED,
                           RUNNING, ServiceBackend, TenantConfig)
from repro.service.backend import JobRunner
from repro.service.jobs import Job


def spec(name="backend", replicates=2, rates=(0.0, 3000.0),
         instructions=300):
    return CampaignSpec(name=name, workloads=("gcc",),
                        models=("SS-1",), rates_per_million=rates,
                        replicates=replicates,
                        instructions=instructions)


def wait_terminal(backend, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = backend.job(job_id)
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError("job %s stuck in state %r"
                         % (job_id, backend.job(job_id).state))


def records_of(backend, job_id):
    return backend.job_result(job_id, with_records=True)["records"]


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def tenant_entry(backend, tenant):
    return backend.fairness_report()["tenants"].get(tenant, {})


@pytest.fixture
def backend(tmp_path):
    instance = ServiceBackend(str(tmp_path), slots=2)
    yield instance
    instance.close(drain_timeout=10.0)


class TestExecution:
    def test_records_byte_identical_to_plain_session(self, backend):
        job = backend.submit("alice", spec())
        assert wait_terminal(backend, job.id).state == DONE
        plain = CampaignSession(spec()).run()
        assert json.dumps(records_of(backend, job.id), sort_keys=True) \
            == json.dumps(plain.records, sort_keys=True)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_adaptive_job_matches_plain_adaptive_session(self, backend,
                                                          shards):
        """A sharded job adapts over the whole campaign, like a pooled
        one: the cap bounds trials in flight, not what they see."""
        options = ExecutionOptions(sampling=SamplingPlan.wilson(
            0.5, min_replicates=2))
        job = backend.submit("alice", spec(replicates=6),
                             options=options, shards=shards)
        assert wait_terminal(backend, job.id).state == DONE
        plain = CampaignSession(spec(replicates=6),
                                options=options).run()
        assert {record["key"] for record in records_of(backend, job.id)} \
            == {record["key"] for record in plain.records}
        result = backend.job_result(job.id)
        assert "adaptive" in result
        assert result["adaptive"]["cells"]

    def test_result_closes_cut_cells_as_capped_like_the_session(
            self, backend):
        """Cells that ``max_replicates`` cut close as ``capped`` in a
        live session; the summary ``/result`` rebuilds from the stored
        records must say the same."""
        job_spec = CampaignSpec(name="capped", workloads=("gcc",),
                                models=("SS-1", "SS-2"),
                                rates_per_million=(3000.0,),
                                replicates=8, instructions=400)
        options = ExecutionOptions(sampling=SamplingPlan.wilson(
            0.01, min_replicates=2, max_replicates=3))
        job = backend.submit("alice", job_spec, options=options)
        assert wait_terminal(backend, job.id).state == DONE
        plain = CampaignSession(job_spec, options=options).run()
        closed = [cell["closed"] for cell in
                  backend.job_result(job.id)["adaptive"]["cells"]]
        assert closed == [cell["closed"]
                          for cell in plain.adaptive.cells]
        assert closed == ["capped", "capped"]

    def test_event_stream_serializes_the_campaign_protocol(
            self, backend):
        job = backend.submit("alice", spec())
        wait_terminal(backend, job.id)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            kinds = [event["kind"]
                     for _seq, event in backend.read_events(job.id)[0]]
            if "job_finished" in kinds:
                break
            time.sleep(0.05)
        assert kinds[0] == "job_queued"
        assert "job_started" in kinds
        assert kinds.count("trial_finished") == 4
        assert "campaign_finished" in kinds
        assert kinds[-1] == "job_finished"

    def test_result_aggregate_matches_session_aggregate(self, backend):
        job = backend.submit("alice", spec())
        wait_terminal(backend, job.id)
        plain = CampaignSession(spec()).run()
        expected = [cell.as_dict() for cell in aggregate(plain.records)]
        assert backend.job_result(job.id)["cells"] == expected

    def test_sharded_job_matches_plain_session(self, backend):
        job = backend.submit("alice", spec(name="sharded"), shards=2)
        assert wait_terminal(backend, job.id).state == DONE
        plain = CampaignSession(spec(name="sharded")).run()
        assert json.dumps(records_of(backend, job.id), sort_keys=True) \
            == json.dumps(plain.records, sort_keys=True)

    def test_one_shard_job_keeps_one_trial_in_flight(self, backend):
        """``shards=1`` on a 2-slot service: while the job runs, its
        tenant never holds more than one slot nor declares more than
        one, though a second slot stands free."""
        job_spec = spec(name="one-shard", replicates=4,
                        instructions=1_500)
        job = backend.submit("alice", job_spec, shards=1)
        samples = []
        while not backend.job(job.id).terminal:
            entry = backend.scheduler.report()["tenants"].get("alice",
                                                              {})
            samples.append((entry.get("in_flight", 0),
                            entry.get("demand", 0)))
            time.sleep(0.005)
        assert wait_terminal(backend, job.id).state == DONE
        assert (1, 1) in samples
        assert max(in_flight for in_flight, _ in samples) == 1
        assert max(demand for _, demand in samples) == 1
        plain = CampaignSession(job_spec).run()
        assert json.dumps(records_of(backend, job.id), sort_keys=True) \
            == json.dumps(plain.records, sort_keys=True)

    def test_shards_over_slots_rejected(self, backend):
        with pytest.raises(ServiceError, match="slots"):
            backend.submit("alice", spec(), shards=5)

    def test_sharded_jobs_of_two_tenants_all_finish(self, backend):
        """Two tenants' ``shards=2`` jobs on a 2-slot service each have
        a 1-slot fair share, and a pooled job holds both slots when
        they arrive.  Each trial is admitted on its own, so no job
        sits on one slot waiting for a second, and all three jobs
        finish with a plain session's records."""
        hog = spec(name="hog", replicates=8, instructions=3000)
        jobs = [(backend.submit("a", hog), hog)]
        wait_until(lambda: tenant_entry(backend, "a").get("in_flight") == 2)
        for tenant in ("b", "a"):
            demand = tenant_entry(backend, tenant).get("demand", 0)
            sharded = spec(name="sharded-" + tenant)
            jobs.append((backend.submit(tenant, sharded, shards=2),
                         sharded))
            wait_until(lambda: tenant_entry(backend, tenant)
                       .get("demand", 0) > demand)
        for job, job_spec in jobs:
            assert wait_terminal(backend, job.id, timeout=60.0).state \
                == DONE
            plain = CampaignSession(job_spec).run()
            assert json.dumps(records_of(backend, job.id),
                              sort_keys=True) \
                == json.dumps(plain.records, sort_keys=True)


class TestAdaptiveGating:
    def test_open_breaker_sheds_extras_and_degrades(self, backend,
                                                     monkeypatch):
        monkeypatch.setattr(CircuitBreaker, "allow", lambda self: False)
        options = ExecutionOptions(sampling=SamplingPlan.wilson(
            0.01, min_replicates=2))
        job_spec = spec(name="shed", replicates=6)
        job = backend.submit("alice", job_spec, options=options)
        assert wait_terminal(backend, job.id).state == DONE
        kinds = [event["kind"]
                 for _seq, event in backend.read_events(job.id)[0]]
        assert "job_degraded" in kinds
        records = records_of(backend, job.id)
        per_cell = Counter(trial_cell(record["trial"])
                           for record in records)
        assert len(per_cell) == 2
        assert min(per_cell.values()) >= 2
        assert len(records) < job_spec.grid_size

    def test_replicate_budget_defers_extras_without_dropping_them(
            self, tmp_path):
        """One extra replicate per epoch paces the job; an unreachable
        target runs every replicate, so the records are the fixed
        plan's whatever the pacing."""
        backend = ServiceBackend(str(tmp_path / "paced"), slots=2,
                                 replicate_budget=1,
                                 replicate_epoch=0.2)
        try:
            options = ExecutionOptions(sampling=SamplingPlan.wilson(
                0.01, min_replicates=2))
            job = backend.submit("alice", spec(name="paced",
                                               replicates=5),
                                 options=options)
            assert wait_terminal(backend, job.id).state == DONE
            plain = CampaignSession(spec(name="paced",
                                         replicates=5)).run()
            assert json.dumps(records_of(backend, job.id),
                              sort_keys=True) \
                == json.dumps(plain.records, sort_keys=True)
        finally:
            backend.close(drain_timeout=10.0)


class TestAdmission:
    def test_submit_validates_tenant_and_spec(self, backend):
        with pytest.raises(ServiceError, match="tenant"):
            backend.submit("", spec())
        with pytest.raises(ServiceError, match="spec"):
            backend.submit("alice", "not-a-spec")

    def test_submit_accepts_wire_dicts(self, backend):
        job = backend.submit("alice", spec().to_dict(),
                             options={"workers": 1})
        assert wait_terminal(backend, job.id).state == DONE

    def test_readme_submit_example_is_accepted(self, backend):
        # The body of the README's curl example, read from the README
        # itself so the example cannot drift from the wire schema.
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as handle:
            readme = handle.read()
        start = readme.index("/api/jobs -d '") + len("/api/jobs -d '")
        body = json.loads(readme[start:readme.index("'", start)])
        job = backend.submit(body.pop("tenant"), body.pop("spec"), **body)
        assert job.options.sampling == SamplingPlan.wilson(0.1)
        assert (job.shards, job.priority) == (2, 5)
        backend.cancel(job.id)

    def test_quota_enforced(self, tmp_path):
        backend = ServiceBackend(
            str(tmp_path / "q"), slots=1,
            tenants=[TenantConfig("alice", max_queued=1,
                                  max_running=1)])
        try:
            first = backend.submit("alice", spec(name="q1"))
            deadline = time.monotonic() + 30
            while backend.job(first.id).state == QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            backend.submit("alice", spec(name="q2"))
            with pytest.raises(QuotaError):
                backend.submit("alice", spec(name="q3"))
        finally:
            backend.close(drain_timeout=10.0)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        backend = ServiceBackend(
            str(tmp_path / "c"), slots=1,
            tenants=[TenantConfig("alice", max_running=1)])
        try:
            first = backend.submit("alice", spec(name="c1",
                                                 replicates=4))
            second = backend.submit("alice", spec(name="c2"))
            cancelled = backend.cancel(second.id)
            assert cancelled.state == CANCELLED
            assert wait_terminal(backend, first.id).state == DONE
            assert backend.job(second.id).state == CANCELLED
        finally:
            backend.close(drain_timeout=10.0)

    def test_cancel_running_job_keeps_completed_records(self, backend):
        big = spec(name="cancelme", replicates=30,
                   instructions=1_500)
        job = backend.submit("alice", big)
        deadline = time.monotonic() + 60
        while backend.job(job.id).done < 2:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        backend.cancel(job.id)
        final = wait_terminal(backend, job.id)
        assert final.state == CANCELLED
        store = job.store(backend.data_dir)
        completed = store.completed_keys()
        assert completed                      # progress survived
        assert len(completed) < big.grid_size  # but it really stopped
        kinds = [event["kind"]
                 for _seq, event in backend.read_events(job.id)[0]]
        assert "job_cancelled" in kinds

    def test_cancel_terminal_job_is_a_noop(self, backend):
        job = backend.submit("alice", spec())
        wait_terminal(backend, job.id)
        assert backend.cancel(job.id).state == DONE


class TestDrainAndRecovery:
    def test_drain_interrupts_and_recovery_resumes_identically(
            self, tmp_path):
        data_dir = str(tmp_path / "svc")
        big = spec(name="drainme", replicates=24, instructions=1_500)
        backend = ServiceBackend(data_dir, slots=2)
        job = backend.submit("alice", big)
        deadline = time.monotonic() + 60
        while backend.job(job.id).done < 2:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert backend.drain(timeout=30.0)
        interrupted = backend.job(job.id)
        assert interrupted.state == INTERRUPTED
        partial = len(job.store(data_dir).completed_keys())
        assert 0 < partial < big.grid_size
        with pytest.raises(ServiceError, match="draining"):
            backend.submit("alice", spec(name="late"))
        backend.close(drain_timeout=5.0)

        # A new service process adopts the interrupted job, resumes it
        # from the store, and completes to the identical record set.
        revived = ServiceBackend(data_dir, slots=2)
        try:
            recovered = revived.recover()
            assert [job_.id for job_ in recovered] == [job.id]
            final = wait_terminal(revived, job.id)
            assert final.state == DONE
            plain = CampaignSession(big).run()
            assert json.dumps(records_of(revived, job.id),
                              sort_keys=True) \
                == json.dumps(plain.records, sort_keys=True)
            kinds = [event["kind"]
                     for _seq, event in revived.read_events(job.id)[0]]
            assert "job_interrupted" in kinds
            assert "job_resumed" in kinds
        finally:
            revived.close(drain_timeout=10.0)

    def test_drain_catches_job_claimed_but_not_yet_registered(
            self, tmp_path):
        """The admission race: ``next_runnable`` marks a job RUNNING
        before its runner registers.  A drain landing inside that
        window must keep sweeping until the runner shows up and is
        stopped — not return with the job silently still running."""
        backend = ServiceBackend(str(tmp_path / "svc"), slots=2,
                                 poll_interval=0.02)
        try:
            claim = backend.queue.next_runnable

            def slow_claim():
                job = claim()
                if job is not None:
                    time.sleep(0.4)   # stretch the claim→register gap
                return job

            backend.queue.next_runnable = slow_claim
            job = backend.submit("alice", spec(name="racer",
                                               replicates=8))
            # Give admission time to claim the job (state RUNNING) but
            # land the drain well inside the registration stall.
            deadline = time.monotonic() + 10
            while backend.job(job.id).state == QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert backend.drain(timeout=30.0)
            assert backend.job(job.id).state != RUNNING
        finally:
            backend.close(drain_timeout=10.0)

    def test_drain_never_joins_a_runner_before_it_starts(
            self, tmp_path, monkeypatch):
        """A drain that finds a runner registered must be able to join
        it, however late its thread starts."""
        start = JobRunner.start

        def slow_start(runner):
            time.sleep(0.3)
            start(runner)
        monkeypatch.setattr(JobRunner, "start", slow_start)
        backend = ServiceBackend(str(tmp_path / "svc"), slots=2,
                                 poll_interval=0.02)
        try:
            job = backend.submit("alice", spec(name="late-start"))
            wait_until(lambda: backend.job(job.id).state != QUEUED)
            assert backend.drain(timeout=30.0)
            assert backend.job(job.id).state != RUNNING
        finally:
            backend.close(drain_timeout=10.0)

    @staticmethod
    def write_job_file(data_dir, job_id, options, shards=0):
        job_dir = data_dir / "jobs" / job_id
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(json.dumps({
            "id": job_id, "tenant": "alice",
            "spec": spec(name=job_id).to_dict(), "options": options,
            "priority": 0, "shards": shards, "state": RUNNING, "seq": 1,
            "submitted_at": 1.0, "started_at": 2.0, "done": 0,
            "total": 4}))

    @staticmethod
    def assert_recovers_to_plain_records(data_dir, job_id):
        """A restarted service re-queues the job file and runs it to
        the plain session's records."""
        revived = ServiceBackend(str(data_dir), slots=2)
        try:
            assert [job.id for job in revived.recover()] == [job_id]
            assert wait_terminal(revived, job_id).state == DONE
            plain = CampaignSession(spec(name=job_id)).run()
            assert json.dumps(records_of(revived, job_id),
                              sort_keys=True) \
                == json.dumps(plain.records, sort_keys=True)
        finally:
            revived.close(drain_timeout=10.0)

    def test_parent_format_job_file_resumes_to_done(self, tmp_path):
        """Job files written before the single execution path carry
        the three retired option keys; a restarted service drops them
        and runs the job to the plain session's records."""
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-parent", {
            "simulator": "fast", "golden_cache": True,
            "reuse_faultfree": True, "workers": 1})
        self.assert_recovers_to_plain_records(data_dir, "job-parent")

    def test_checkpointing_job_file_resumes_to_done(self, tmp_path):
        """Job files written while checkpointing, the persistent-worker
        warm-up and the store retry policy were options carry them; a
        restarted service drops them like the other retired keys."""
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-ckpt", {
            "checkpointing": True, "persistent_workers": True,
            "store_retry": {"attempts": 2, "base_delay": 0.5},
            "workers": 2})
        self.assert_recovers_to_plain_records(data_dir, "job-ckpt")

    def test_sharded_job_file_with_poll_interval_resumes_to_done(
            self, tmp_path):
        """Every job file written while sharded jobs ran on their own
        shard processes carries the ``poll_interval`` the service
        stamped on submit; a restarted service drops it and runs the
        job, its ``shards`` now a cap, to the plain session's
        records."""
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-sharded", {
            "workers": 1, "poll_interval": 0.05}, shards=2)
        self.assert_recovers_to_plain_records(data_dir, "job-sharded")

    def test_invalid_job_file_is_skipped_not_fatal(self, tmp_path):
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-bad", {"workers": 0})
        revived = ServiceBackend(str(data_dir), slots=2)
        try:
            assert revived.recover() == []
            assert (data_dir / "jobs" / "job-bad" / "job.json").exists()
        finally:
            revived.close(drain_timeout=5.0)

    @pytest.mark.parametrize("name,value", [
        ("submitted_at", "yesterday"), ("tenant", 5), ("tenant", ""),
        ("done", "x"), ("done", True), ("seq", [1]), ("total", -1),
        ("started_at", "noon"), ("finished_at", [2]),
        ("submitted_at", float("nan")), ("error", 7)])
    def test_bad_job_field_is_skipped_beside_a_valid_job(
            self, tmp_path, name, value):
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-bad", {"workers": 1})
        path = data_dir / "jobs" / "job-bad" / "job.json"
        data = json.loads(path.read_text())
        data[name] = value
        path.write_text(json.dumps(data))
        self.write_job_file(data_dir, "job-good", {"workers": 1})
        revived = ServiceBackend(str(data_dir), slots=2)
        try:
            assert [job.id for job in revived.recover()] == ["job-good"]
            assert list(revived.skipped_jobs) == ["job-bad"]
            assert name in revived.skipped_jobs["job-bad"]
            assert path.exists()
        finally:
            revived.close(drain_timeout=30.0)

    def test_unreadable_job_files_are_listed_with_reasons(self, tmp_path):
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-unknown",
                            {"workers": 1, "turbo": True})
        self.write_job_file(data_dir, "job-torn", {"workers": 1})
        torn = data_dir / "jobs" / "job-torn" / "job.json"
        torn.write_text(torn.read_text()[:40])
        revived = ServiceBackend(str(data_dir), slots=2)
        try:
            assert revived.recover() == []
            reasons = revived.skipped_jobs
            assert sorted(reasons) == ["job-torn", "job-unknown"]
            assert "turbo" in reasons["job-unknown"]
            assert "corrupt job file" in reasons["job-torn"]
            assert torn.exists()
        finally:
            revived.close(drain_timeout=5.0)

    def test_skipped_job_id_cannot_be_resubmitted(self, tmp_path):
        """A skipped job keeps its files: a submit reusing its id is
        refused like a duplicate, and neither its job.json nor its
        store changes."""
        data_dir = tmp_path / "svc"
        self.write_job_file(data_dir, "job-x", {"workers": 1,
                                                 "turbo": True})
        job_dir = data_dir / "jobs" / "job-x"
        records = CampaignSession(spec(name="job-x")).run().records[:2]
        (job_dir / "store.jsonl").write_text("".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in records))
        kept = {name: (job_dir / name).read_bytes()
                for name in ("job.json", "store.jsonl")}
        revived = ServiceBackend(str(data_dir), slots=2)
        try:
            assert revived.recover() == []
            with pytest.raises(ServiceError, match="duplicate job id"):
                revived.submit("alice", spec(name="job-x"),
                               job_id="job-x")
            with pytest.raises(JobGoneError, match="turbo"):
                revived.job("job-x")
            assert revived.jobs() == []
        finally:
            revived.close(drain_timeout=10.0)
        assert {name: (job_dir / name).read_bytes()
                for name in kept} == kept

    def test_recover_preserves_terminal_jobs_without_requeue(
            self, tmp_path):
        data_dir = str(tmp_path / "svc")
        backend = ServiceBackend(data_dir, slots=2)
        job = backend.submit("alice", spec())
        wait_terminal(backend, job.id)
        backend.close(drain_timeout=10.0)
        revived = ServiceBackend(data_dir, slots=2)
        try:
            assert revived.recover() == []
            assert revived.job(job.id).state == DONE
        finally:
            revived.close(drain_timeout=5.0)


class TestFairnessAccounting:
    def test_concurrent_tenants_both_execute_and_report(self, backend):
        jobs = [backend.submit("alice", spec(name="fa", replicates=4)),
                backend.submit("bob", spec(name="fb", replicates=4))]
        for job in jobs:
            assert wait_terminal(backend, job.id).state == DONE
        report = backend.fairness_report()
        for tenant in ("alice", "bob"):
            entry = report["tenants"][tenant]
            assert entry["trials_executed"] == 8
            assert entry["jobs"] == {"done": 1}
            assert entry["busy_seconds"] > 0
        assert report["slots"] == 2
        assert report["draining"] is False
