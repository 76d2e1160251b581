"""Per-process trial caches are bounded and observable.

PR-9 put every per-process cache on the spec -> trial -> record path
behind an LRU bound with hit/miss/eviction counters: the workload
program cache, the golden-trace cache, and the cell-checkpoint store.
These tests pin the eviction behaviour, the counter arithmetic, and
the reporting contract — counters reach ``stats.extras`` for
observability but never a persisted record.
"""

import pytest

import repro.program.cache as program_cache
from repro.campaign.checkpoint import (CheckpointStore,
                                       checkpoint_store_stats,
                                       clear_checkpoints, get_store)
from repro.campaign.golden import (cached_trace, clear_trace_cache,
                                   trace_cache_stats)
from repro.campaign.outcome import (_baseline_key, _cell_checkpoints,
                                    cache_stats, clear_result_caches,
                                    run_trial)
from repro.campaign.spec import CampaignSpec
from repro.program.cache import (cached_workload, clear_caches,
                                 workload_cache_stats)
from repro.workloads.generator import build_workload


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_caches()
    clear_trace_cache()
    clear_caches()
    yield
    clear_result_caches()
    clear_trace_cache()
    clear_caches()


class TestWorkloadCache:
    def test_hit_and_miss_counters(self):
        cached_workload("gcc")
        cached_workload("gcc")
        stats = workload_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1
        assert stats["evictions"] == 0

    def test_lru_eviction_over_limit(self, monkeypatch):
        monkeypatch.setattr(program_cache, "_WORKLOAD_CACHE_LIMIT", 2)
        cached_workload("gcc", seed=1)
        cached_workload("gcc", seed=2)
        cached_workload("gcc", seed=1)      # refresh 1: 2 is now LRU
        cached_workload("gcc", seed=3)      # evicts 2
        stats = workload_cache_stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        hits = stats["hits"]
        cached_workload("gcc", seed=1)      # survived the eviction
        assert workload_cache_stats()["hits"] == hits + 1
        cached_workload("gcc", seed=2)      # was evicted: a miss
        assert workload_cache_stats()["misses"] == 4

    def test_clear_resets_counters(self):
        cached_workload("gcc")
        clear_caches()
        stats = workload_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0,
                         "size": 0, "limit": stats["limit"]}


class TestTraceCache:
    def test_eviction_counter_past_limit(self):
        program = build_workload("gcc")
        limit = trace_cache_stats()["limit"]
        for index in range(limit + 2):
            cached_trace(("bound-probe", index), program)
        stats = trace_cache_stats()
        assert stats["size"] == limit
        assert stats["evictions"] == 2
        assert stats["misses"] == limit + 2
        cached_trace(("bound-probe", limit + 1), program)
        assert trace_cache_stats()["hits"] == 1


class TestCheckpointStore:
    def test_lru_eviction_and_counters(self):
        store = CheckpointStore(limit=2)
        store.put("a", "cell-a")
        store.put("b", "cell-b")
        assert store.get("a") == "cell-a"   # refresh: b is now LRU
        store.put("c", "cell-c")            # evicts b
        assert store.get("b") is None
        assert store.get("c") == "cell-c"
        stats = store.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["size"] == 2

    def test_stale_program_starts_the_ladder_over(self):
        # Snapshots share decoded metadata with the Program object, so
        # a workload-cache eviction must not leave the old ladder live.
        spec = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                            rates_per_million=(0.0,), replicates=1,
                            instructions=300)
        trial = next(iter(spec.trials()))
        run_trial(trial)
        cell = get_store().get(_baseline_key(trial))
        assert cell.snapshots
        clear_caches()
        fresh = _cell_checkpoints(trial)
        assert fresh is not cell and not fresh.snapshots
        assert fresh.program is cached_workload("gcc")
        assert get_store().get(_baseline_key(trial)) is fresh

    def test_module_store_clear(self):
        get_store().put("probe", "cell")
        assert checkpoint_store_stats()["size"] == 1
        clear_checkpoints()
        stats = checkpoint_store_stats()
        assert stats["size"] == 0
        assert stats["hits"] == stats["misses"] \
            == stats["evictions"] == 0


class TestReporting:
    def test_cache_stats_sections_and_keys(self):
        stats = cache_stats()
        assert set(stats) == {"golden_trace", "workload", "checkpoints"}
        for section in stats.values():
            assert {"hits", "misses", "evictions", "size",
                    "limit"} <= set(section)

    def test_counters_never_reach_records(self):
        spec = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                            rates_per_million=(3_000.0,),
                            replicates=1, instructions=300)
        trial = next(iter(spec.trials()))
        record = run_trial(trial).to_record()
        assert "cache_stats" not in str(record)
