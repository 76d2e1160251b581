"""Campaign execution end to end through :class:`CampaignSession`:
serial runs into a store, resume, refusal to clobber a non-empty store,
and worker-count determinism."""

import pytest

from repro.campaign import (TRIAL_FINISHED, CampaignSession,
                            CampaignSpec, ExecutionOptions, JSONLStore,
                            aggregate, cells_to_json)
from repro.campaign.outcome import OUTCOMES
from repro.errors import ConfigError


def small_spec(**overrides):
    kwargs = dict(workloads=("gcc",), models=("SS-1", "SS-2"),
                  rates_per_million=(0.0, 20_000.0), replicates=2,
                  instructions=600)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def run(spec, store=None, resume=False, workers=1):
    session = CampaignSession(spec, options=ExecutionOptions(
        workers=workers), store=store)
    return session.resume() if resume else session.run()


class TestSerialRun:
    def test_end_to_end_with_store(self, tmp_path):
        spec = small_spec()
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        result = run(spec, store=store)
        assert result.executed == spec.grid_size
        assert result.skipped == 0
        assert len(result.records) == spec.grid_size
        # Records come back in spec-expansion order...
        expected = [t.key for t in spec.trials()]
        assert [r["key"] for r in result.records] == expected
        # ...every outcome is a known class...
        assert all(r["outcome"] in OUTCOMES for r in result.records)
        # ...and the store holds one intact line per trial.
        assert store.completed_keys() == set(expected)

    def test_progress_callback(self):
        spec = small_spec(models=("SS-2",), replicates=1)
        seen = []
        session = CampaignSession(spec)
        session.subscribe(lambda event: seen.append(
            (event.done, event.total))
            if event.kind == TRIAL_FINISHED else None)
        session.run()
        assert seen == [(i + 1, spec.grid_size)
                        for i in range(spec.grid_size)]

    def test_aggregate_cells_cover_grid(self):
        spec = small_spec()
        cells = aggregate(run(spec).records)
        assert len(cells) == (len(spec.workloads) * len(spec.models)
                              * len(spec.rates_per_million))
        for cell in cells:
            assert cell.n == spec.replicates
            assert sum(cell.counts.values()) == cell.n

    def test_validation(self):
        with pytest.raises(ConfigError):
            run(small_spec(), workers=0)
        with pytest.raises(ConfigError):
            run(small_spec(), resume=True)  # no store


class TestResume:
    def test_killed_campaign_resumes_without_rerunning(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "r.jsonl")
        full = run(spec, store=JSONLStore(path))
        # Simulate a mid-run kill: keep only the first 3 completed
        # records (plus a torn tail from the dying writer).
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:3])
            handle.write(lines[3][:25])
        store = JSONLStore(path)
        assert len(store.completed_keys()) == 3
        resumed = run(spec, store=store, resume=True)
        assert resumed.skipped == 3
        assert resumed.executed == spec.grid_size - 3
        assert len(store.completed_keys()) == spec.grid_size
        # The resumed campaign reconstructs the exact same results.
        assert cells_to_json(aggregate(resumed.records)) \
            == cells_to_json(aggregate(full.records))

    def test_fresh_run_refuses_nonempty_store(self, tmp_path):
        # Completed records may be hours of work: without resume the
        # session refuses to clobber them instead of truncating.
        spec = small_spec(models=("SS-2",), replicates=1)
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        store.append({"key": "stale-key", "outcome": "masked"})
        with pytest.raises(ConfigError):
            run(spec, store=store)
        assert "stale-key" in store.completed_keys()

    def test_fresh_run_accepts_empty_or_missing_store(self, tmp_path):
        spec = small_spec(models=("SS-2",), replicates=1)
        missing = JSONLStore(str(tmp_path / "missing.jsonl"))
        result = run(spec, store=missing)
        assert result.executed == spec.grid_size
        # A store holding only garbage lines (no completed trials) is
        # safe to truncate too.
        garbage = JSONLStore(str(tmp_path / "garbage.jsonl"))
        with open(garbage.path, "w") as handle:
            handle.write("not json\n")
        result = run(spec, store=garbage)
        assert result.executed == spec.grid_size

    def test_fully_complete_campaign_runs_nothing(self, tmp_path):
        spec = small_spec(models=("SS-2",), replicates=1)
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        run(spec, store=store)
        again = run(spec, store=store, resume=True)
        assert again.executed == 0
        assert again.skipped == spec.grid_size


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        # workers=1 and workers=4 produce byte-identical aggregated
        # results (per-trial seeds derive from trial keys, never from
        # worker scheduling order).
        spec = small_spec()
        serial = run(spec, workers=1)
        parallel = run(spec, workers=4)
        assert [r["key"] for r in serial.records] \
            == [r["key"] for r in parallel.records]
        assert serial.records == parallel.records
        assert cells_to_json(aggregate(serial.records)) \
            == cells_to_json(aggregate(parallel.records))
