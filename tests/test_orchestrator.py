"""Multi-shard orchestrator: merged equivalence, worker restart after
a kill, resume-from-stores, failure budgets and the session facade.

The headline fault-injection test kills one shard worker with SIGKILL
mid-campaign and asserts the driver restarts it from its store and the
merged result matches a single-session run key-for-key — the property
that makes unattended multi-host sweeps trustworthy.
"""

import json
import os
import signal

import pytest

from repro.campaign import (CampaignOrchestrator, CampaignSession,
                            CampaignSpec, ExecutionOptions,
                            SamplingPlan, TRIAL_FINISHED, aggregate,
                            cells_to_json, shard_store_path)
from repro.campaign.orchestrator import (CLI_MODE, SHARD_FINISHED,
                                         SHARD_HUNG, SHARD_RESTARTED,
                                         SHARD_STARTED, _run_shard)
from repro.errors import ConfigError, OrchestratorError
from repro.resilience import RetryPolicy


def orchestrated_spec(replicates=4, instructions=1_000,
                      name="orchestrated"):
    return CampaignSpec(name=name, workloads=("gcc",),
                        models=("SS-1", "SS-2"),
                        rates_per_million=(0.0, 3000.0),
                        replicates=replicates,
                        instructions=instructions)


def canonical(records):
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def single_session_result():
    """The 16-trial single-session baseline every merge is held to."""
    return CampaignSession(orchestrated_spec()).run()


class TestValidation:
    def test_rejects_shard_view(self, tmp_path):
        spec = orchestrated_spec()
        with pytest.raises(ConfigError):
            CampaignOrchestrator(spec.shard(0, 2), shards=2,
                                 store_dir=str(tmp_path))

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0}, {"shards": 1.5}, {"mode": "ssh"},
        {"poll_interval": 0.0}, {"max_restarts": -1},
    ])
    def test_bad_parameters_refused(self, kwargs, tmp_path):
        parameters = dict(shards=2, store_dir=str(tmp_path))
        parameters.update(kwargs)
        with pytest.raises(ConfigError):
            CampaignOrchestrator(orchestrated_spec(), **parameters)


class TestMergedEquivalence:
    def test_two_shards_match_single_session(self, tmp_path,
                                             single_session_result):
        spec = orchestrated_spec()
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05)
        events = []
        orchestrator.subscribe(events.append)
        result = orchestrator.run()
        assert canonical(result.records) \
            == canonical(single_session_result.records)
        assert cells_to_json(aggregate(result.records)) \
            == cells_to_json(aggregate(single_session_result.records))
        kinds = [event.kind for event in events]
        assert kinds.count(SHARD_STARTED) == 2
        assert kinds.count(SHARD_FINISHED) == 2
        assert kinds.count(TRIAL_FINISHED) == 16
        shards = {event.shard for event in events
                  if event.kind == TRIAL_FINISHED}
        assert shards == {0, 1}
        # Every shard store holds its own partition, disjointly.
        seen = [worker.seen for worker in orchestrator.workers]
        assert not (seen[0] & seen[1])
        assert len(seen[0] | seen[1]) == 16

    def test_session_orchestrate_facade(self, tmp_path,
                                        single_session_result):
        session = CampaignSession(orchestrated_spec())
        result = session.orchestrate(shards=2,
                                     store_dir=str(tmp_path),
                                     poll_interval=0.05)
        assert canonical(result.records) \
            == canonical(single_session_result.records)
        # After orchestrate the session behaves as after run().
        assert session.result is result
        assert cells_to_json(session.aggregate()) \
            == cells_to_json(aggregate(single_session_result.records))
        assert str(session.progress()) == "16/16 trials (100.0%)"

    def test_resumes_from_prior_shard_stores(self, tmp_path,
                                             single_session_result):
        """The orchestrator restarted after a crash of the *driver*:
        shard stores keep their records, only the gap is executed."""
        from repro.campaign import JSONLStore, shard_of_key
        spec = orchestrated_spec()
        prefix = single_session_result.records[:9]
        stores = [JSONLStore(shard_store_path(str(tmp_path), index, 2))
                  for index in range(2)]
        for record in prefix:
            stores[shard_of_key(record["key"], 2)].append(record)
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05)
        result = orchestrator.run()
        assert result.skipped == 9
        assert result.executed == 7
        assert canonical(result.records) \
            == canonical(single_session_result.records)

    def test_complete_shards_are_not_relaunched(self, tmp_path,
                                                single_session_result):
        """A fixed-plan shard whose store already covers its whole
        keyspace is marked finished at startup — no worker process is
        spawned just to resume into zero trials."""
        from repro.campaign import JSONLStore, shard_of_key
        stores = [JSONLStore(shard_store_path(str(tmp_path), index, 2))
                  for index in range(2)]
        for record in single_session_result.records:
            stores[shard_of_key(record["key"], 2)].append(record)
        orchestrator = CampaignOrchestrator(
            orchestrated_spec(), shards=2, store_dir=str(tmp_path),
            poll_interval=0.05)
        result = orchestrator.run()
        assert result.executed == 0
        assert result.skipped == 16
        assert all(worker.finished and worker.process is None
                   for worker in orchestrator.workers)
        assert canonical(result.records) \
            == canonical(single_session_result.records)


class TestKillAndRestart:
    def test_killed_worker_restarts_and_merges_key_for_key(
            self, tmp_path):
        """The ISSUE's fault-injection scenario: SIGKILL one shard
        worker mid-campaign; the driver must restart it from its store
        and the merged result must match a single-session run."""
        spec = orchestrated_spec(replicates=8, instructions=2_000,
                                 name="kill-test")
        single = CampaignSession(spec).run()
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05, max_restarts=2)
        killed = []

        @orchestrator.subscribe
        def assassin(event):
            # First flushed record: murder a still-running worker.
            if killed or event.kind != TRIAL_FINISHED:
                return
            for worker in orchestrator.workers:
                if worker.alive and not worker.finished:
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        continue      # lost the race; try the next
                    killed.append(worker.index)
                    return

        result = orchestrator.run()
        assert killed, "no worker was alive to kill mid-campaign"
        assert orchestrator.total_restarts >= 1
        restarted = orchestrator.workers[killed[0]]
        assert restarted.restarts >= 1
        assert restarted.finished
        # Key-for-key identical to the single-session run, byte for
        # byte — the restart resumed, it did not recompute differently
        # or drop the dead worker's flushed records.
        assert [r["key"] for r in result.records] \
            == [r["key"] for r in single.records]
        assert canonical(result.records) == canonical(single.records)

    def test_worker_dying_past_budget_fails_the_campaign(
            self, tmp_path):
        """A shard whose store path is unwritable dies on every
        launch; after max_restarts the orchestrator must raise (with
        the failing shard named), not hang or silently drop the
        shard."""
        spec = orchestrated_spec()
        # Make shard 0's store path a *directory*: the worker's very
        # first append crashes, deterministically, on every launch.
        os.makedirs(shard_store_path(str(tmp_path), 0, 2))
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05, max_restarts=1)
        events = []
        orchestrator.subscribe(events.append)
        with pytest.raises(OrchestratorError) as excinfo:
            orchestrator.run()
        assert "shard 0/2" in str(excinfo.value)
        assert sum(1 for event in events
                   if event.kind == SHARD_RESTARTED) == 1


class TestCrashLoopWindow:
    def test_uptime_past_min_uptime_earns_the_budget_back(
            self, tmp_path):
        """``max_restarts`` bounds crash *loops*, not total restarts
        over a long campaign: a worker killed twice — but healthy past
        ``min_uptime`` in between — must be forgiven both times, even
        with a budget of one."""
        spec = orchestrated_spec(replicates=8, instructions=2_000,
                                 name="crash-window")
        single = CampaignSession(spec).run()
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05, max_restarts=1, min_uptime=0.01,
            restart_backoff=RetryPolicy(attempts=1, base_delay=0.05,
                                        max_delay=0.1, jitter=0.0))
        kills = []

        @orchestrator.subscribe
        def assassin(event):
            # A shard-0 record landing proves the (re)launched worker
            # ran well past min_uptime before each kill.  Only strike
            # while the shard still has trials left, so every kill
            # forces a real relaunch (a kill after the final flush
            # just finishes the shard from its store).
            if len(kills) >= 2 or event.kind != TRIAL_FINISHED \
                    or event.shard != 0:
                return
            worker = orchestrator.workers[0]
            # One kill per launch: a poll batch can emit several
            # shard-0 records back-to-back, and a SIGKILL to an
            # already-dying pid would double-count as a second death.
            if worker.alive and not worker.finished \
                    and worker.pid not in kills \
                    and len(worker.store.load()) <= 10:
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    return
                kills.append(worker.pid)

        result = orchestrator.run()
        assert len(kills) == 2, "needed two kills of the same shard"
        assert orchestrator.total_restarts >= 2
        assert canonical(result.records) == canonical(single.records)


class TestHeartbeatLiveness:
    def test_sigstopped_worker_detected_and_recovered(self, tmp_path):
        """A SIGSTOPped worker is alive by every OS measure but makes
        no progress; only the heartbeat lease can tell.  The driver
        must declare it hung, SIGKILL it, and restart from its store
        with the merge still key-for-key identical."""
        spec = orchestrated_spec(replicates=8, instructions=2_000,
                                 name="stall-test")
        single = CampaignSession(spec).run()
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path),
            poll_interval=0.05, max_restarts=2, min_uptime=0.01,
            heartbeat_lease=1.0, heartbeat_interval=0.1,
            restart_backoff=RetryPolicy(attempts=1, base_delay=0.05,
                                        max_delay=0.1, jitter=0.0))
        stalled = []
        events = []
        orchestrator.subscribe(events.append)

        @orchestrator.subscribe
        def stopper(event):
            if stalled or event.kind != TRIAL_FINISHED:
                return
            for worker in orchestrator.workers:
                if worker.alive and not worker.finished:
                    try:
                        os.kill(worker.pid, signal.SIGSTOP)
                    except ProcessLookupError:
                        continue
                    stalled.append(worker.index)
                    return

        result = orchestrator.run()
        assert stalled, "no worker was alive to stall mid-campaign"
        assert orchestrator.total_hung >= 1
        assert any(event.kind == SHARD_HUNG for event in events)
        assert canonical(result.records) == canonical(single.records)


class TestCliMode:
    def test_cli_workers_match_single_session(self, tmp_path,
                                              single_session_result):
        orchestrator = CampaignOrchestrator(
            orchestrated_spec(), shards=2, store_dir=str(tmp_path),
            mode=CLI_MODE, poll_interval=0.05)
        result = orchestrator.run()
        assert canonical(result.records) \
            == canonical(single_session_result.records)
        # The worker command line and its output are kept for
        # post-mortems.
        assert os.path.exists(os.path.join(str(tmp_path),
                                           "shard-00.log"))


class TestMergedStorePreservation:
    def test_existing_merged_store_records_survive(self, tmp_path,
                                                   single_session_result):
        """A user-provided merged store holding unrelated records is
        appended to and compacted, never wiped (run() on a session
        would refuse such a store; the orchestrator must not silently
        destroy it either)."""
        from repro.campaign import JSONLStore
        merged = JSONLStore(str(tmp_path / "precious.jsonl"))
        foreign = {"key": "feedfacefeedface", "outcome": "masked",
                   "faults_injected": 0}
        merged.append(foreign)
        orchestrator = CampaignOrchestrator(
            orchestrated_spec(), shards=2,
            store_dir=str(tmp_path / "shards"), merged_store=merged,
            poll_interval=0.05)
        result = orchestrator.run()
        assert canonical(result.records) \
            == canonical(single_session_result.records)
        by_key = {r["key"]: r for r in merged.load()}
        assert by_key["feedfacefeedface"] == foreign
        assert len(by_key) == 17         # 16 campaign + 1 foreign


class TestAdaptiveOrchestration:
    def test_adaptive_shards_converge_early(self, tmp_path):
        from repro.harness.experiment import adaptive_demo_spec
        spec = adaptive_demo_spec(replicates=24,
                                  name="adaptive-orchestrated")
        options = ExecutionOptions(sampling=SamplingPlan.wilson(
            0.2, metric="sdc_rate", min_replicates=4))
        orchestrator = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path), options=options,
            poll_interval=0.05)
        result = orchestrator.run()
        # Each shard stops its converged cells early, so the merged
        # record set is a strict subset of the grid...
        assert 0 < len(result.records) < spec.grid_size
        # ...and still aggregates per cell (fewer n, same cells).
        cells = aggregate(result.records)
        assert {(c.workload, c.model, c.rate_per_million)
                for c in cells} \
            == {(w, m, r) for w in spec.workloads
                for m in spec.models for r in spec.rates_per_million}
        # The driver reconstructs a merged-view adaptive summary from
        # the merged records: every cell accounted for, n matching the
        # merged sample, verdicts from the merged interval.
        from repro.campaign.adaptive import (CONVERGED, EXHAUSTED,
                                             SHARD_LOCAL)
        summary = result.adaptive
        assert summary is not None
        assert len(summary.cells) == len(cells)
        by_cell = {(c.workload, c.model, c.rate_per_million): c.n
                   for c in cells}
        for cell in summary.cells:
            assert cell["n"] == by_cell[(cell["workload"],
                                         cell["model"],
                                         cell["rate_per_million"])]
            assert cell["closed"] in (CONVERGED, EXHAUSTED,
                                      SHARD_LOCAL)
        assert summary.total_skipped \
            == spec.grid_size - len(result.records)
        # Both summaries in the CLI output must agree on "executed".
        assert summary.total_executed == result.executed

    def test_adaptive_rerun_counts_resumed_not_executed(self,
                                                        tmp_path):
        """Re-orchestrating over complete adaptive shard stores: the
        merged summary must report the prior records as resumed, not
        freshly executed, matching the campaign result's split."""
        from repro.harness.experiment import adaptive_demo_spec
        spec = adaptive_demo_spec(replicates=16,
                                  name="adaptive-rerun")
        options = ExecutionOptions(sampling=SamplingPlan.wilson(
            0.2, metric="sdc_rate", min_replicates=4))
        first = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path), options=options,
            poll_interval=0.05).run()
        rerun = CampaignOrchestrator(
            spec, shards=2, store_dir=str(tmp_path), options=options,
            poll_interval=0.05).run()
        assert rerun.skipped == len(first.records)
        assert rerun.executed == rerun.adaptive.total_executed == 0


class TestShardWorkerEntry:
    def test_run_shard_runs_then_resumes(self, tmp_path):
        """The worker entry point used by process mode: fresh store ->
        run, populated store -> resume (the restart path)."""
        spec = orchestrated_spec(replicates=2)
        store_path = str(tmp_path / "worker.jsonl")
        _run_shard(spec.to_dict(), 0, 2, {}, store_path)
        from repro.campaign import JSONLStore
        first = JSONLStore(store_path).load()
        assert first
        # Second call must resume (a plain run() would refuse the
        # non-empty store) and add nothing.
        _run_shard(spec.to_dict(), 0, 2, {}, store_path)
        assert JSONLStore(store_path).load() == first
