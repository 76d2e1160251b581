"""Parallel Monte Carlo fault-injection campaigns.

Turns one-off ``run_on_model`` simulations into resumable, parallel,
statistically aggregated injection campaigns:

* :mod:`~repro.campaign.spec` — declarative grid of (workload x model x
  machine-override x fault rate x kind mix x replicate), expanded into
  content-keyed trials; ``spec.shard(i, n)`` partitions the keyspace
  deterministically for multi-host runs;
* :mod:`~repro.campaign.api` — the :class:`CampaignSession` facade:
  spec + :class:`ExecutionOptions` + store backend + typed
  :class:`CampaignEvent` stream, with ``run`` / ``resume`` /
  ``progress`` / ``aggregate``;
* :mod:`~repro.campaign.outcome` — per-trial golden-reference
  classification (masked / detected_recovered / sdc / timeout);
* :mod:`~repro.campaign.golden` — memoized, seekable golden traces and
  store-footprint state comparison shared by all trials of a cell;
* :mod:`~repro.campaign.store` — pluggable result stores behind
  :class:`StoreBackend`: single-file JSONL, indexed SQLite and sharded
  JSONL, selected by URL-style path (``out.jsonl`` /
  ``sqlite:campaign.db`` / ``shard:dir/``), mergeable via
  :func:`merge_stores`, compactable via ``StoreBackend.compact``;
* :mod:`~repro.campaign.aggregate` — per-cell coverage / SDC-rate / IPC
  statistics with Wilson confidence intervals;
* :mod:`~repro.campaign.adaptive` — :class:`SamplingPlan` adaptive
  sampling: stop a cell once its Wilson interval is tight enough and
  spend the freed replicate budget on the widest open interval
  (``ExecutionOptions(sampling=SamplingPlan.wilson(0.05))``).

A multi-host campaign runs ``repro-ft campaign --shard i/N --store …``
on each host, merges the shard stores with :func:`merge_stores`, and
aggregates the merged store through ``CampaignSession(spec,
store=merged).aggregate()``.

Quickstart::

    from repro.campaign import CampaignSession, CampaignSpec, ExecutionOptions

    spec = CampaignSpec(workloads=("gcc",), models=("SS-1", "SS-2"),
                        rates_per_million=(0.0, 3000.0), replicates=8,
                        instructions=2_000)
    session = CampaignSession(spec,
                              options=ExecutionOptions(workers=4),
                              store="sqlite:campaign.db")
    session.run()                        # or .resume() after a kill
    for cell in session.aggregate():
        print(cell.workload, cell.model, cell.rate_per_million,
              cell.counts, cell.coverage)
"""

from .adaptive import (AdaptiveScheduler, AdaptiveSummary,
                       SamplingPlan, merged_adaptive_summary,
                       wilson_halfwidth)
from .aggregate import (CellStats, StructureStats, aggregate,
                        aggregate_structures, cells_to_json,
                        structures_to_json, wilson_interval)
from .api import (CAMPAIGN_FINISHED, CELL_CONVERGED, CELL_FINISHED,
                  EVENT_KINDS, TRIAL_FINISHED, TRIAL_STARTED,
                  CampaignEvent, CampaignProgress, CampaignResult,
                  CampaignSession, ExecutionOptions,
                  execute_trial_payload)
from .golden import (GoldenTrace, cached_trace, clear_trace_cache,
                     compare_with_golden)
from .outcome import (DETECTED_RECOVERED, MASKED, OUTCOMES, SDC,
                      TIMEOUT, TrialResult, clear_result_caches,
                      run_trial)
from .spec import CampaignShard, CampaignSpec, Trial
from .store import (JSONLStore, RetryingStore, ShardedJSONLStore,
                    SQLiteStore, StoreBackend, merge_stores, open_store,
                    shard_of_key)

__all__ = [
    "AdaptiveScheduler", "AdaptiveSummary", "SamplingPlan",
    "merged_adaptive_summary", "wilson_halfwidth",
    "CellStats", "StructureStats", "aggregate", "aggregate_structures",
    "cells_to_json", "structures_to_json", "wilson_interval",
    "CAMPAIGN_FINISHED", "CELL_CONVERGED", "CELL_FINISHED",
    "EVENT_KINDS", "TRIAL_FINISHED", "TRIAL_STARTED", "CampaignEvent",
    "CampaignProgress", "CampaignResult", "CampaignSession",
    "ExecutionOptions", "execute_trial_payload",
    "GoldenTrace", "cached_trace", "clear_trace_cache",
    "compare_with_golden",
    "DETECTED_RECOVERED", "MASKED", "OUTCOMES", "SDC", "TIMEOUT",
    "TrialResult", "clear_result_caches", "run_trial",
    "CampaignShard", "CampaignSpec", "Trial",
    "JSONLStore", "RetryingStore", "ShardedJSONLStore", "SQLiteStore",
    "StoreBackend", "merge_stores", "open_store", "shard_of_key",
]
