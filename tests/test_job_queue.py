"""Job model persistence and the multi-tenant priority queue."""

import json
import os

import pytest

from repro.campaign import CampaignSpec, ExecutionOptions, SamplingPlan
from repro.errors import ConfigError, QuotaError, ServiceError
from repro.service.jobs import (CANCELLED, DONE, INTERRUPTED, Job,
                                JobQueue, QUEUED, RUNNING, new_job_id)
from repro.service.scheduler import FairScheduler, TenantConfig


def tiny_spec(name="queued"):
    return CampaignSpec(name=name, workloads=("gcc",),
                        models=("SS-1",), rates_per_million=(0.0,),
                        replicates=2, instructions=200)


def make_job(tenant="alice", **kwargs):
    kwargs.setdefault("id", new_job_id())
    kwargs.setdefault("spec", tiny_spec())
    return Job(tenant=tenant, **kwargs)


class TestJobModel:
    def test_round_trip_with_options(self):
        job = make_job(priority=3, shards=2, state=INTERRUPTED,
                       options=ExecutionOptions(
                           workers=2, sampling=SamplingPlan.wilson(0.1),
                           trial_timeout=0.5),
                       done=5, total=9, submitted_at=123.0,
                       started_at=124.0, error="")
        clone = Job.from_dict(json.loads(
            json.dumps(job.to_dict(), sort_keys=True)))
        assert clone == job

    def test_unknown_fields_rejected(self):
        wire = make_job().to_dict()
        wire["mystery"] = 1
        with pytest.raises(ConfigError, match="mystery"):
            Job.from_dict(wire)

    @pytest.mark.parametrize("kwargs", [
        {"priority": "high"}, {"shards": -1}, {"shards": True},
        {"state": "limbo"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            make_job(**kwargs)

    def test_save_load_round_trip(self, tmp_path):
        job = make_job(priority=1)
        job.save(str(tmp_path))
        loaded = Job.load(str(tmp_path), job.id)
        assert loaded == job
        # Atomic save leaves no tmp droppings behind.
        assert os.listdir(job.job_dir(str(tmp_path))) == ["job.json"]

    def test_load_unknown_job_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown job"):
            Job.load(str(tmp_path), "job-nope")

    def test_load_corrupt_job_raises(self, tmp_path):
        job = make_job()
        job.save(str(tmp_path))
        with open(os.path.join(job.job_dir(str(tmp_path)),
                               "job.json"), "w") as handle:
            handle.write("{torn")
        with pytest.raises(ServiceError, match="corrupt"):
            Job.load(str(tmp_path), job.id)

    def test_terminal_states(self):
        assert make_job(state=DONE).terminal
        assert make_job(state=CANCELLED).terminal
        assert not make_job(state=RUNNING).terminal
        assert not make_job(state=INTERRUPTED).terminal

    def test_paths_live_under_the_job_dir(self, tmp_path):
        job = make_job()
        root = job.job_dir(str(tmp_path))
        assert job.store_path(str(tmp_path)).startswith(root)
        assert job.events_path(str(tmp_path)).startswith(root)


class TestJobQueue:
    def queue(self, *tenants):
        return JobQueue(FairScheduler(2, tenants))

    def test_priority_then_fifo(self):
        queue = self.queue()
        low1 = queue.submit(make_job(priority=0))
        high = queue.submit(make_job(priority=5))
        low2 = queue.submit(make_job(priority=0))
        claimed = [queue.next_runnable().id for _ in range(3)]
        assert claimed == [high.id, low1.id, low2.id]
        assert queue.next_runnable() is None

    def test_max_running_quota_skips_but_serves_others(self):
        queue = self.queue(TenantConfig("alice", max_running=1),
                           TenantConfig("bob"))
        queue.submit(make_job("alice", priority=9))
        blocked = queue.submit(make_job("alice", priority=9))
        served = queue.submit(make_job("bob", priority=0))
        first = queue.next_runnable()
        assert first.tenant == "alice"
        # alice is at quota: her second (higher-priority) job waits,
        # bob's lower-priority job runs instead of convoying.
        second = queue.next_runnable()
        assert second.id == served.id
        assert queue.next_runnable() is None
        first.state = DONE
        assert queue.next_runnable().id == blocked.id

    def test_max_queued_quota_raises(self):
        queue = self.queue(TenantConfig("alice", max_queued=1))
        queue.submit(make_job("alice"))
        with pytest.raises(QuotaError, match="quota"):
            queue.submit(make_job("alice"))
        # Other tenants are unaffected.
        queue.submit(make_job("bob"))

    def test_duplicate_id_rejected(self):
        queue = self.queue()
        job = queue.submit(make_job(id="job-dup"))
        with pytest.raises(ServiceError, match="duplicate"):
            queue.submit(make_job(id="job-dup"))
        assert queue.get(job.id) is job

    def test_get_unknown_raises(self):
        with pytest.raises(ServiceError, match="unknown job"):
            self.queue().get("job-nope")

    def test_jobs_filters_by_tenant_in_seq_order(self):
        queue = self.queue()
        a1 = queue.submit(make_job("alice"))
        b1 = queue.submit(make_job("bob"))
        a2 = queue.submit(make_job("alice"))
        assert [job.id for job in queue.jobs("alice")] == [a1.id, a2.id]
        assert [job.id for job in queue.jobs()] == [a1.id, b1.id, a2.id]

    def test_counts(self):
        queue = self.queue()
        queue.submit(make_job("alice"))
        done = queue.submit(make_job("alice"))
        done.state = DONE
        counts = queue.counts("alice")
        assert counts[QUEUED] == 1 and counts[DONE] == 1

    def test_adopted_jobs_count_toward_quotas_after_recovery(
            self, tmp_path):
        """SIGKILL-then-recover must not forget quota accounting: a
        job that round-tripped through ``job.json`` and was adopted
        by a fresh queue counts toward ``max_queued`` and
        ``max_running`` exactly like a freshly submitted one."""
        data_dir = str(tmp_path)
        survivor = make_job("alice")
        survivor.save(data_dir)
        interrupted = make_job("alice", state=RUNNING)
        interrupted.save(data_dir)
        # The service process is SIGKILL'd here; a fresh queue adopts
        # from disk (recovery re-queues non-terminal jobs).
        queue = self.queue(TenantConfig("alice", max_queued=1,
                                        max_running=1))
        for name in sorted(os.listdir(os.path.join(data_dir, "jobs"))):
            job = Job.load(data_dir, name)
            if job.state == RUNNING:
                job.state = QUEUED
            queue.adopt(job)
        # Two adopted queued jobs: alice is over max_queued already,
        # so a new submission is refused instead of silently growing
        # the backlog past the quota.
        with pytest.raises(QuotaError):
            queue.submit(make_job("alice"))
        # max_running still paces admission of the adopted jobs.
        first = queue.next_runnable()
        assert first is not None and first.tenant == "alice"
        assert queue.next_runnable() is None
        first.state = DONE
        assert queue.next_runnable() is not None

    def test_adopt_skips_quota_and_orders_by_adoption(self):
        queue = self.queue(TenantConfig("alice", max_queued=1))
        recovered = make_job("alice")
        queue.adopt(recovered)
        queue.adopt(make_job("alice"))       # would violate max_queued
        assert queue.next_runnable().id == recovered.id
