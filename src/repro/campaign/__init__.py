"""Parallel Monte Carlo fault-injection campaigns.

Turns one-off ``run_on_model`` simulations into resumable, parallel,
statistically aggregated injection campaigns:

* :mod:`~repro.campaign.spec` — declarative grid of (workload x model x
  machine-override x fault rate x kind mix x replicate), expanded into
  content-keyed trials;
* :mod:`~repro.campaign.api` — the :class:`CampaignSession` facade:
  spec + :class:`ExecutionOptions` + result store + typed
  :class:`CampaignEvent` stream, with ``run`` / ``resume`` /
  ``progress`` / ``aggregate``;
* :mod:`~repro.campaign.outcome` — per-trial golden-reference
  classification (masked / detected_recovered / sdc / timeout);
* :mod:`~repro.campaign.golden` — memoized, seekable golden traces and
  store-footprint state comparison shared by all trials of a cell;
* :mod:`~repro.campaign.store` — the result store,
  :class:`JSONLStore`: one fsynced line per trial record, torn tails
  skipped, compactable via ``JSONLStore.compact``;
* :mod:`~repro.campaign.aggregate` — per-cell coverage / SDC-rate / IPC
  statistics with Wilson confidence intervals;
* :mod:`~repro.campaign.adaptive` — :class:`SamplingPlan` adaptive
  sampling: stop a cell once its Wilson interval is tight enough and
  spend the freed replicate budget on the widest open interval
  (``ExecutionOptions(sampling=SamplingPlan.wilson(0.05))``).

A trial's key depends only on the trial (and the spec's name and
seed), so a grid split by an axis (one ``--workloads`` value per host,
same ``--name`` and ``--seed``) runs the full grid's trials, and each
host's store aggregates to final cells.

Quickstart::

    from repro.campaign import CampaignSession, CampaignSpec, ExecutionOptions

    spec = CampaignSpec(workloads=("gcc",), models=("SS-1", "SS-2"),
                        rates_per_million=(0.0, 3000.0), replicates=8,
                        instructions=2_000)
    session = CampaignSession(spec,
                              options=ExecutionOptions(workers=4),
                              store="campaign.jsonl")
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
from .spec import CampaignSpec, Trial
from .store import JSONLStore, RetryingStore, open_store

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
    "CampaignSpec", "Trial",
    "JSONLStore", "RetryingStore", "open_store",
]
