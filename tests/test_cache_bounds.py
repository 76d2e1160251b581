"""Per-process trial caches are bounded and observable.

Every per-process cache on the spec -> trial -> record path is one
:class:`~repro.program.cache.LRUCache` with hit/miss/eviction
counters: the workload program cache, the golden-trace cache, and the
fault-free twin memo, which also reports the rungs its twins hold.
These tests pin the eviction behaviour, the counter arithmetic, and
the reporting contract — ``cache_stats()`` reads the counters from
outside the trial path, and no persisted record carries them.
"""

import pytest

import json

import repro.program.cache as program_cache
from repro.campaign.checkpoint import DIGEST_INTERVAL
from repro.campaign.golden import (cached_trace, clear_trace_cache,
                                   trace_cache_stats)
from repro.campaign.outcome import (cache_stats, clear_result_caches,
                                    run_trial)
from repro.campaign.spec import CampaignSpec
from repro.program.cache import (LRUCache, cached_workload,
                                 clear_caches, workload_cache_stats)
from repro.uarch.snapshot import ProcessorSnapshot
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
        monkeypatch.setattr(program_cache._WORKLOAD_CACHE, "limit", 2)
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

    def test_stale_trace_counts_as_a_miss(self):
        first = build_workload("gcc")
        cached_trace(("stale-probe",), first)
        rebuilt = build_workload("gcc")
        trace = cached_trace(("stale-probe",), rebuilt)
        assert trace.program is rebuilt
        stats = trace_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) \
            == (0, 2, 1)


class TestCheckpointStore:
    def test_lru_eviction_and_counters(self):
        store = LRUCache(limit=2)
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

    def test_rungs_restore_onto_a_rebuilt_program(self, monkeypatch):
        # A workload-cache eviction rebuilds the program as a new, equal
        # object; the twin's rungs decode onto its own decode table.
        spec = CampaignSpec(
            workloads=("gcc",), models=("SS-2",),
            rates_per_million=(0.0,), replicates=1, instructions=300,
            fault_sites={"late": {"policy": "site_list",
                                  "sites": [{"structure": "fu_result",
                                             "index": 250, "bit": 3}]}})
        (trial,) = spec.trials()
        first = json.dumps(run_trial(trial).to_record(), sort_keys=True)
        targets = []
        real = ProcessorSnapshot.restore_into

        def spying(rung, processor, shift=None):
            targets.append((rung.program, processor.program))
            return real(rung, processor, shift)
        monkeypatch.setattr(ProcessorSnapshot, "restore_into", spying)
        clear_caches()
        again = json.dumps(run_trial(trial).to_record(), sort_keys=True)
        assert again == first
        ((old, new),) = targets
        assert new is cached_workload("gcc")
        assert old is not new and old == new
        stats = cache_stats()["fault_free"]
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_module_store_clear(self):
        spec = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                            rates_per_million=(0.0,), replicates=1,
                            instructions=300)
        run_trial(next(iter(spec.trials())))
        stats = cache_stats()["fault_free"]
        assert stats["size"] == 1
        assert stats["rungs"] == 300 // DIGEST_INTERVAL - 1
        assert stats["rung_bytes"] > 0
        clear_result_caches()
        stats = cache_stats()["fault_free"]
        assert stats["size"] == stats["rungs"] == stats["rung_bytes"] == 0
        assert stats["hits"] == stats["misses"] \
            == stats["evictions"] == 0


class TestReporting:
    def test_one_lru_class_backs_every_cache(self):
        import repro.campaign.golden as golden
        import repro.campaign.outcome as outcome
        for cache in (program_cache._WORKLOAD_CACHE, golden._TRACE_CACHE,
                      outcome._FAULTFREE_CACHE):
            assert type(cache) is LRUCache
        stats = cache_stats()
        assert (stats["workload"]["limit"], stats["golden_trace"]["limit"],
                stats["fault_free"]["limit"]) == (32, 8, 16)

    def test_cache_stats_sections_and_keys(self):
        stats = cache_stats()
        assert set(stats) == {"golden_trace", "workload", "fault_free"}
        assert {"rungs", "rung_bytes"} <= set(stats["fault_free"])
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
