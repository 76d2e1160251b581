"""Correctness checks on a workload's records, run outside timed regions.

* :func:`records_digest` — sha256 over records in spec order, keys
  sorted; on the default seed it must equal ``digests.json``.
* :func:`reference_mismatches` — re-simulates a deterministic sample of
  executed rate trials on the frozen ``ReferenceProcessor`` and on a
  fresh ``Processor(..., policy=RatePolicy(...))``, both through
  ``run_windowed``; each record's cycle, instruction, fault, rewind and
  majority-commit counts must match both.  This is an equality oracle
  between two engines, not a validation against hardware: the model is
  unvalidated, so the benchmark reports no accuracy figure.
"""

import hashlib
import json
import os
import random

#: Record fields the reference re-simulation must reproduce.
ORACLE_FIELDS = ("cycles", "instructions", "faults_injected",
                 "faults_detected", "rewinds", "majority_commits")

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def records_digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def committed_digest(workload):
    with open(DIGESTS_FILE) as handle:
        return json.load(handle).get(workload)


def sample_rate_records(records, seed, struck, silent):
    """A deterministic sample of rate trials: ``struck`` that injected
    faults and ``silent`` that drew none."""
    rate = [record for record in records
            if record["trial"]["rate_per_million"] > 0
            and not record["trial"].get("sites")]
    hit = [record for record in rate if record["faults_injected"]]
    quiet = [record for record in rate if not record["faults_injected"]]
    rng = random.Random(seed)
    return (rng.sample(hit, min(struck, len(hit)))
            + rng.sample(quiet, min(silent, len(quiet))))


def reference_mismatches(records):
    """``(trial key, description)`` for every field of a sampled record
    that an engine disagrees with (empty when all match)."""
    from repro.campaign.spec import Trial
    from repro.errors import SimulationError
    from repro.faults.policy import RatePolicy
    from repro.harness.experiment import cycle_budget, run_windowed
    from repro.uarch.processor import Processor
    from repro.uarch.reference import ReferenceProcessor
    from repro.workloads.generator import build_workload

    programs = {}
    problems = []
    for record in records:
        trial = Trial.from_dict(record["trial"])
        key = (trial.workload, trial.workload_seed)
        if key not in programs:
            programs[key] = build_workload(trial.workload,
                                           seed=trial.workload_seed)
        program = programs[key]
        model = trial.resolve_model()
        max_cycles = trial.max_cycles or cycle_budget(trial.instructions,
                                                      trial.warmup)
        engines = {
            "reference": ReferenceProcessor(
                program, config=model.config, ft=model.ft,
                fault_config=trial.fault_config()),
            "policy": Processor(
                program, config=model.config, ft=model.ft,
                policy=RatePolicy(trial.fault_config())),
        }
        for name, processor in engines.items():
            try:
                stats = run_windowed(processor, trial.instructions,
                                     trial.warmup, max_cycles)[0]
            except SimulationError:
                stats = processor.stats
                stats.cycles = processor.cycle
            for field in ORACLE_FIELDS:
                if getattr(stats, field) != record[field]:
                    problems.append((trial.key, "%s %s=%r, record has %r"
                                     % (name, field, getattr(stats, field),
                                        record[field])))
    return problems
