"""Simulator performance benchmark: optimized engine vs the frozen
pre-overhaul reference, with results persisted to ``BENCH_simulator.json``.

Two measurements, both run through :func:`run_bench` (the ``repro-ft
bench`` subcommand):

* **engine** — single simulations per (workload, model): wall time and
  cycles/second for the :class:`~repro.uarch.reference.
  ReferenceProcessor` and the optimized :class:`~repro.uarch.processor.
  Processor`, with a byte-identical :class:`PipelineStats` check per
  pair;
* **campaign** — the paper's Figure-6 fault-sweep grid (fpppp on the
  R=2 and R=3 machines across the figure's fault-rate ladder, 64
  trials) executed twice: once on the bench's own unoptimized path
  (:func:`run_unoptimized` — the reference engine, no fault-free
  reuse, a fresh functional golden run per trial) and once through a
  :class:`~repro.campaign.api.CampaignSession` (cycle skipping,
  decoded-program cache, memoized golden traces, fault-free result
  reuse).  Both classify through
  :func:`repro.campaign.outcome.finish_trial`.  The two record lists
  must be byte-identical; wall times, trials/second and the speedup
  are recorded.

Divergence between the two paths raises :class:`BenchDivergence` — the
CI smoke job relies on that to fail the build.  Absolute timings are
recorded, never asserted in-process (shared runners are noisy); the
committed ``BENCH_simulator.json`` documents the measured trajectory
per host, and ``repro.perf`` (``repro-ft bench --diff/--check``) turns
that history into statistically-gated regression detection — each
entry stores *per-repeat* wall-time samples per phase (schema v3) so
comparisons have a distribution, not a point.
"""

from __future__ import annotations

import contextlib
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from ..campaign import checkpoint, outcome
from ..campaign.api import CampaignSession, ExecutionOptions
from ..campaign.golden import GoldenTrace, clear_trace_cache
from ..campaign.outcome import (cache_stats, clear_result_caches,
                                finish_trial)
from ..campaign.spec import CampaignSpec, Trial
from ..functional.checker import compare_states
from ..functional.simulator import FunctionalSimulator
from ..models.presets import get_model
from ..perf.history import (SCHEMA_VERSION, BenchHistory,
                            host_fingerprint)
from ..program.cache import cached_workload
from ..uarch.processor import Processor
from ..uarch.reference import ReferenceProcessor
from .experiment import FIGURE6_RATES, STORM_RATE

#: v2 made the written file an append-per-PR history (top level = the
#: latest entry, prior entries under ``history``); v3 adds per-repeat
#: wall-time samples per phase and a host fingerprint to every new
#: entry.  See :mod:`repro.perf.history` for the authoritative schema.
BENCH_VERSION = SCHEMA_VERSION
DEFAULT_OUT = "BENCH_simulator.json"

#: Campaign-path timing repeats when the caller does not say (the
#: quick CI grids keep a single repeat unless --repeats is explicit).
DEFAULT_REPEATS = 3

#: Single-simulation grid: paper-canonical workloads on the baseline
#: and the dual-redundant machine.
ENGINE_WORKLOADS = ("gcc", "go", "fpppp", "ammp")
ENGINE_MODELS = ("SS-1", "SS-2")
ENGINE_INSTRUCTIONS = 1_500

#: The Figure-6 fault-frequency ladder below the rewind storm (faults
#: per million instructions) — the campaign bench sweeps it end to end.
FIGURE6_BENCH_RATES = tuple(rate for rate in FIGURE6_RATES
                            if rate < STORM_RATE)

#: Where the optimized repeats time each phase: ``(phase, owner,
#: attribute)`` of trial-path functions, none of which calls another,
#: so the phases are disjoint.  ``finish_trial`` binds
#: ``outcome._trace_golden`` as a default argument, so the golden and
#: classify points are the functions that one calls.
PHASE_POINTS = (
    ("decode", outcome, "_build_processor"),
    ("simulate", checkpoint, "run_checkpointed"),
    ("golden", outcome, "cached_trace"),
    ("golden", GoldenTrace, "seek"),
    ("classify", outcome, "compare_with_golden"),
    ("classify", outcome, "_verdict"),
)


class BenchDivergence(AssertionError):
    """Optimized and reference execution paths disagreed."""


def campaign_bench_spec(quick=False):
    """The campaign grid the bench times (64 trials; 8 with --quick)."""
    if quick:
        return CampaignSpec(
            name="bench-hotpath-quick",
            workloads=("fpppp",),
            models=("SS-2",),
            rates_per_million=(0.0, 300.0, 3_000.0, 30_000.0),
            replicates=2,
            instructions=600)
    return CampaignSpec(
        name="bench-hotpath",
        workloads=("fpppp",),
        models=("SS-2", "SS-3"),
        rates_per_million=FIGURE6_BENCH_RATES,
        replicates=4,
        instructions=1_500)


def _fresh_golden(processor, committed):
    """A fresh in-order run to ``committed`` instructions and its
    full-state diff against the processor's committed state."""
    golden = FunctionalSimulator(processor.program,
                                 mem_size=processor.config.mem_size_words)
    for _ in range(committed):
        if not golden.step():
            break
    return golden.state, compare_states(processor.arch, golden.state)


def run_unoptimized_trial(trial_dict):
    """One trial on the unoptimized path; returns its record.

    The frozen :class:`~repro.uarch.reference.ReferenceProcessor`
    simulates every trial (no fault-free reuse), a fresh functional run
    is the golden reference, and the same verdict code as
    :func:`~repro.campaign.outcome.run_trial` classifies the run.
    Plain dicts in and out, so a process pool can run it.
    """
    trial = Trial.from_dict(trial_dict)
    program = cached_workload(trial.workload, trial.workload_seed)
    model = trial.resolve_model()
    processor = ReferenceProcessor(program, config=model.config,
                                   ft=model.ft,
                                   fault_config=trial.fault_config())
    result, _ = finish_trial(trial, processor, golden=_fresh_golden)
    return result.to_record()


def run_unoptimized(spec, workers=1):
    """Every trial of ``spec`` on the unoptimized path, in spec order."""
    trials = [trial.to_dict() for trial in spec.trials()]
    if workers == 1:
        return [run_unoptimized_trial(trial) for trial in trials]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_unoptimized_trial, trials))


def _run_engine_once(processor_class, program, model,
                     instructions):
    start = time.perf_counter()
    processor = processor_class(program, config=model.config,
                                ft=model.ft)
    processor.run(max_instructions=instructions, max_cycles=400_000)
    elapsed = time.perf_counter() - start
    return elapsed, processor.stats


def bench_engine(workloads=ENGINE_WORKLOADS, models=ENGINE_MODELS,
                 instructions=ENGINE_INSTRUCTIONS, repeats=2):
    """Single-simulation A/B grid; returns a JSON-ready dict."""
    rows = []
    for workload in workloads:
        program = cached_workload(workload)
        for model_name in models:
            model = get_model(model_name)
            best = {"reference": None, "optimized": None}
            stats = {}
            for label, cls in (("reference", ReferenceProcessor),
                               ("optimized", Processor)):
                for _ in range(repeats):
                    elapsed, run_stats = _run_engine_once(
                        cls, program, model, instructions)
                    if best[label] is None or elapsed < best[label]:
                        best[label] = elapsed
                stats[label] = run_stats.as_dict()
            if stats["reference"] != stats["optimized"]:
                raise BenchDivergence(
                    "engine divergence on %s/%s: reference and "
                    "optimized PipelineStats differ"
                    % (workload, model_name))
            cycles = stats["optimized"]["cycles"]
            rows.append({
                "workload": workload,
                "model": model_name,
                "instructions": instructions,
                "cycles": cycles,
                "reference_seconds": round(best["reference"], 6),
                "optimized_seconds": round(best["optimized"], 6),
                "reference_cycles_per_sec":
                    round(cycles / best["reference"], 1),
                "optimized_cycles_per_sec":
                    round(cycles / best["optimized"], 1),
                "speedup": round(best["reference"] / best["optimized"],
                                 3),
            })
    return {"instructions": instructions, "rows": rows}


@contextlib.contextmanager
def timed_phases(seconds):
    """Add each :data:`PHASE_POINTS` call's wall time to
    ``seconds[phase]`` while the block runs, wrapping the functions
    from outside; every one is put back on exit, also on an error."""
    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - started
        return wrapper

    originals = []
    try:
        for phase, owner, name in PHASE_POINTS:
            fn = getattr(owner, name)
            originals.append((owner, name, fn))
            setattr(owner, name, timed(phase, fn))
        yield
    finally:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)


def bench_campaign(quick=False, workers=1, repeats=None):
    """Campaign-path A/B run; returns a JSON-ready dict.

    Each path is timed ``repeats`` times (``None``: 3, or 1 with
    ``quick``).  The headline numbers keep the *best* wall clock
    (scheduler noise only ever adds time), and every repeat's wall
    time is additionally recorded — ``reference_sample_seconds`` /
    ``optimized_sample_seconds``, plus a per-phase sample matrix
    ``optimized_phase_sample_seconds`` — so ``repro-ft bench --diff``
    has a distribution to test, not a point.  The optimized side runs
    checkpointed fast-forward like every campaign, so the divergence
    check covers it.  The optimized side's best run also reports a
    per-phase wall-time breakdown (decode / golden / simulate /
    classify, timed by :func:`timed_phases`) and the trial-cache
    counters; phases are measured in-process, so they read zero when
    ``workers > 1`` moves trial execution into pool children.  Raises
    :class:`BenchDivergence` unless the optimized path's records are
    byte-identical to the unoptimized path's.
    """
    spec = campaign_bench_spec(quick=quick)
    if repeats is None:
        repeats = 1 if quick else DEFAULT_REPEATS
    if repeats < 1:
        raise ValueError("repeats must be >= 1, got %d" % repeats)
    optimized_options = ExecutionOptions(workers=workers)
    reference = optimized = None
    reference_samples = []
    optimized_samples = []
    phase_samples = {phase: [] for phase, _owner, _name in PHASE_POINTS}
    for _ in range(repeats):
        clear_result_caches()
        clear_trace_cache()
        start = time.perf_counter()
        reference = run_unoptimized(spec, workers=workers)
        reference_samples.append(time.perf_counter() - start)
    phases = caches = None
    optimized_seconds = None
    for _ in range(repeats):
        clear_result_caches()
        clear_trace_cache()
        run_phases = dict.fromkeys(phase_samples, 0.0)
        with timed_phases(run_phases):
            start = time.perf_counter()
            optimized = CampaignSession(spec,
                                        options=optimized_options).run()
            elapsed = time.perf_counter() - start
        optimized_samples.append(elapsed)
        for name, seconds in run_phases.items():
            phase_samples[name].append(seconds)
        if optimized_seconds is None or elapsed < optimized_seconds:
            optimized_seconds = elapsed
            phases = run_phases
            caches = cache_stats()
    if reference != optimized.records:
        differing = [left["key"] for left, right
                     in zip(reference, optimized.records)
                     if left != right]
        raise BenchDivergence(
            "campaign divergence: %d of %d trial records differ "
            "between the optimized and unoptimized paths (keys: %s)"
            % (len(differing), len(reference),
               ", ".join(differing[:8])))
    trials = len(reference)
    reference_seconds = min(reference_samples)
    return {
        "spec": spec.to_dict(),
        "trials": trials,
        "workers": workers,
        "repeats": repeats,
        "identical_records": True,
        "optimized_phase_seconds": {
            name: round(seconds, 3)
            for name, seconds in sorted(phases.items())},
        "optimized_phase_sample_seconds": {
            name: [round(seconds, 6) for seconds in samples]
            for name, samples in sorted(phase_samples.items())},
        "optimized_cache_stats": caches,
        "reference_seconds": round(reference_seconds, 3),
        "optimized_seconds": round(optimized_seconds, 3),
        "reference_sample_seconds": [round(seconds, 6)
                                     for seconds in reference_samples],
        "optimized_sample_seconds": [round(seconds, 6)
                                     for seconds in optimized_samples],
        "reference_trials_per_sec": round(trials / reference_seconds,
                                          3),
        "optimized_trials_per_sec": round(trials / optimized_seconds,
                                          3),
        "speedup": round(reference_seconds / optimized_seconds, 3),
    }


def run_bench(quick=False, out=DEFAULT_OUT, workers=1, note="",
              repeats=None):
    """Run both benches; write ``out`` (unless empty); return the dict.

    ``out`` is an append-per-PR history (see
    :class:`repro.perf.history.BenchHistory` for the schema): the new
    measurement becomes the file's top level (schema-compatible with
    the v1 single-entry file and the CI divergence check), and every
    earlier entry is preserved, oldest first, under ``history``.  A
    missing ``out`` starts a fresh history; a *corrupt* one raises
    :class:`~repro.errors.HistoryError` instead of silently dropping
    the recorded trajectory.  ``note`` is a free-form label recorded
    with the entry (what this measurement demonstrates — e.g. which
    PR's overhead claim it pins); ``repeats`` is the campaign-path
    sample count per side (``None``: 3 full / 1 quick).
    """
    if quick:
        engine = bench_engine(workloads=("gcc", "fpppp"),
                              instructions=600, repeats=1)
    else:
        engine = bench_engine()
    campaign = bench_campaign(quick=quick, workers=workers,
                              repeats=repeats)
    host_platform = platform.platform()
    host_python = sys.version.split()[0]
    payload = {
        "version": BENCH_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "host": {
            "platform": host_platform,
            "python": host_python,
            "fingerprint": host_fingerprint(host_platform,
                                            host_python),
        },
        "engine": engine,
        "campaign": campaign,
    }
    if note:
        payload["note"] = note
    if out:
        history = BenchHistory.load(out)
        history.append(payload)
        history.save(out)
        payload = history.to_payload()
    return payload


def format_bench_summary(payload):
    """Readable multi-line summary of a bench payload."""
    lines = ["simulator hot-path benchmark (%s)"
             % payload["generated_at"],
             "",
             "engine (single simulations, %d instructions):"
             % payload["engine"]["instructions"]]
    for row in payload["engine"]["rows"]:
        lines.append(
            "  %-7s %-5s reference %8.1f cyc/s   optimized %9.1f "
            "cyc/s   speedup %.2fx"
            % (row["workload"], row["model"],
               row["reference_cycles_per_sec"],
               row["optimized_cycles_per_sec"], row["speedup"]))
    campaign = payload["campaign"]
    lines += [
        "",
        "campaign (%d trials, %d worker%s):"
        % (campaign["trials"], campaign["workers"],
           "" if campaign["workers"] == 1 else "s"),
        "  unoptimized path  %7.2fs  (%.2f trials/s)"
        % (campaign["reference_seconds"],
           campaign["reference_trials_per_sec"]),
        "  optimized path    %7.2fs  (%.2f trials/s)"
        % (campaign["optimized_seconds"],
           campaign["optimized_trials_per_sec"]),
        "  speedup           %6.2fx  (records byte-identical)"
        % campaign["speedup"],
    ]
    phases = campaign.get("optimized_phase_seconds") or {}
    if any(phases.values()):
        lines.append(
            "  phases            " + "  ".join(
                "%s %.2fs" % (name, phases[name])
                for name in ("decode", "golden", "simulate",
                             "classify") if name in phases))
    return "\n".join(lines)
