"""Run one trial and classify what the machine did with its faults.

Every trial is compared against the paper's golden reference (Section
5.1.1): an in-order functional simulation of the same program advanced
by exactly as many instructions as the out-of-order machine committed.
The in-order state comes from the cell's memoized
:class:`~repro.campaign.golden.GoldenTrace`, and
:func:`~repro.campaign.golden.compare_with_golden` compares the full
architectural state (registers + memory) plus the committed next-PC.

Outcome classes:

* ``masked`` — committed state matches the golden reference and no
  fault was ever detected (either none was injected, or the corrupted
  copy lost the cross-check race without reaching committed state);
* ``detected_recovered`` — state matches and the machine paid for it:
  at least one detection, rewind or majority commit occurred;
* ``sdc`` — silent data corruption: the run completed but committed
  state diverges from the golden reference;
* ``timeout`` — the run did not complete its instruction budget
  (crash off the program text, deadlock, or cycle budget exhausted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import SimulationError
from ..faults.policy import WALK_CHUNK
from ..harness.experiment import cycle_budget, run_windowed
from ..program.cache import cached_workload as _cached_workload
from ..program.cache import workload_cache_stats
from ..uarch.processor import Processor
from . import checkpoint as _checkpoint
from .golden import cached_trace, compare_with_golden, trace_cache_stats

MASKED = "masked"
DETECTED_RECOVERED = "detected_recovered"
SDC = "sdc"
TIMEOUT = "timeout"

OUTCOMES = (MASKED, DETECTED_RECOVERED, SDC, TIMEOUT)

#: Per-process memo of fault-free trial results: with no injector the
#: simulation is a pure function of (workload, model, budgets), so all
#: replicates of a rate-0 cell share one execution.
_FAULTFREE_CACHE = {}

#: Optional monotonic clock injected by the bench harness (see
#: :func:`set_phase_clock`); ``None`` — the default — keeps this
#: module free of wall-clock reads, which the determinism lint bans.
_PHASE_CLOCK = None

#: Accumulated seconds per execution phase while a clock is installed.
_PHASE_TIMES = {"decode": 0.0, "golden": 0.0, "simulate": 0.0,
                "classify": 0.0}


def set_phase_clock(clock):
    """Install (or with ``None`` remove) the phase-timing clock.

    ``clock`` is a zero-argument callable returning seconds (the bench
    passes ``time.perf_counter``).  While installed, trial execution
    accumulates per-phase wall time into :func:`phase_times`; the
    default ``None`` costs one predicate per phase and keeps the
    module deterministic.
    """
    global _PHASE_CLOCK
    _PHASE_CLOCK = clock


def phase_times():
    """A copy of the accumulated per-phase seconds."""
    return dict(_PHASE_TIMES)


def reset_phase_times():
    for name in _PHASE_TIMES:
        _PHASE_TIMES[name] = 0.0


@dataclass
class TrialResult:
    """The classified outcome and metrics of one executed trial."""

    trial: dict                     # Trial.to_dict() of the trial run
    outcome: str
    detail: str = ""
    ipc: float = 0.0
    cycles: int = 0
    instructions: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    rewinds: int = 0
    majority_commits: int = 0
    pc_continuity_violations: int = 0
    silent_commits: int = 0
    avg_recovery_penalty: float = 0.0
    reg_mismatches: int = 0
    mem_mismatches: int = 0
    #: Applied strikes per addressable structure (fault-site trials
    #: only; empty — and absent from records — on the rate path, so
    #: legacy records stay byte-identical).
    site_strikes: dict = field(default_factory=dict)

    @property
    def key(self):
        return self.trial["key"]

    def to_record(self):
        """Flat JSON-serialisable record for the result store."""
        record = {name: getattr(self, name) for name in (
            "outcome", "detail", "ipc", "cycles", "instructions",
            "faults_injected", "faults_detected", "rewinds",
            "majority_commits", "pc_continuity_violations",
            "silent_commits", "avg_recovery_penalty",
            "reg_mismatches", "mem_mismatches")}
        record["key"] = self.key
        record["trial"] = dict(self.trial)
        if self.site_strikes:
            record["site_strikes"] = dict(self.site_strikes)
        return record

    @classmethod
    def from_record(cls, record):
        kwargs = {name: record[name] for name in (
            "outcome", "detail", "ipc", "cycles", "instructions",
            "faults_injected", "faults_detected", "rewinds",
            "majority_commits", "pc_continuity_violations",
            "silent_commits", "avg_recovery_penalty",
            "reg_mismatches", "mem_mismatches")}
        return cls(trial=dict(record["trial"]),
                   site_strikes=dict(record.get("site_strikes", {})),
                   **kwargs)


def run_trial(trial):
    """Execute one :class:`~repro.campaign.spec.Trial` and classify it.

    All replicates of a fault-free cell share one execution.  A struck
    trial first asks its policy for its first strike
    (:meth:`~repro.faults.policy.InjectionPolicy.look_ahead`), before
    the processor is built, because building resets the policy.  When
    the first strike is at or past the fault-free run's dispatched-group
    count, the trial is that run and reuses it.  Every other struck
    trial fast-forwards to the latest snapshot of its cell's checkpoint
    ladder at or before its first strike and simulates only the suffix,
    filling the ladder's missing marks from its own clean prefix on the
    way (:mod:`repro.campaign.checkpoint`).  A cell without a baseline
    looks at most ``WALK_CHUNK`` groups ahead for the first strike;
    past that, the first strike is a safe lower bound.
    """
    policy = trial.injection_policy()
    baseline_key = _baseline_key(trial)
    entry = _FAULTFREE_CACHE.get(baseline_key)
    if entry is None and _worth_baseline(trial, policy):
        entry = _run_baseline(trial, baseline_key)
    if policy is None:
        return replace(entry[0], trial=trial.to_dict())
    if entry is None:
        first_strike = policy.look_ahead(WALK_CHUNK)
    else:
        result, groups = entry
        first_strike = policy.look_ahead(groups)
        if first_strike >= groups:
            # Nothing strikes before the fault-free run ends: the trial
            # is the fault-free run.
            return replace(result, trial=trial.to_dict())
    processor = _build_processor(trial, policy)
    return _finish_checkpointed(trial, processor, first_strike)[0]


def _baseline_key(trial):
    """The fault-free cell of ``trial``: everything but rate and seed."""
    return (trial.workload, trial.workload_seed, trial.model,
            trial.machine_overrides, trial.instructions, trial.warmup,
            trial.max_cycles)


def _cell_checkpoints(trial):
    """This cell's snapshot ladder, identity-checked against the live
    program object (snapshots share decoded metadata with it, so a
    workload-cache eviction starts the ladder over)."""
    store = _checkpoint.get_store()
    key = _baseline_key(trial)
    program = _cached_workload(trial.workload, trial.workload_seed)
    cell = store.get(key)
    if cell is None or cell.program is not program:
        cell = _checkpoint.CellCheckpoints(program)
        store.put(key, cell)
    return cell


def _finish_checkpointed(trial, processor, first_strike):
    """:func:`finish_trial` through
    :func:`repro.campaign.checkpoint.run_checkpointed` on the cell's
    ladder."""
    cell = _cell_checkpoints(trial)

    def runner(proc, max_cycles):
        return _checkpoint.run_checkpointed(
            proc, cell, first_strike, trial.instructions, trial.warmup,
            max_cycles)

    return finish_trial(trial, processor, runner=runner)


def _run_baseline(trial, baseline_key):
    """Run and memoize the fault-free twin of ``trial``, filling the
    cell's ladder on the way (stats and classification stay
    byte-identical to the straight run)."""
    processor = _build_processor(trial, None)
    entry = _finish_checkpointed(trial, processor, math.inf)
    _FAULTFREE_CACHE[baseline_key] = entry
    return entry


def _worth_baseline(trial, policy):
    """Is computing the fault-free baseline likely to pay off?

    Pure performance heuristic (never affects results): a fault-free
    trial is its own baseline, and a site trial never pays for one.
    For a rate trial, estimate the probability that it draws no fault
    at all; only spend a baseline simulation when silent trials are
    likely enough to be reused by this cell's replicates.
    """
    if policy is None:
        return True
    if trial.sites:
        return False
    model = trial.resolve_model()
    draws_per_group = model.ft.redundancy + 1
    estimated_groups = 2.5 * (trial.instructions + trial.warmup)
    p_silent = math.exp(-policy.config.rate * draws_per_group
                        * estimated_groups)
    return p_silent >= 0.3


def _build_processor(trial, policy):
    """The trial's machine, armed with ``policy`` (``None``: fault-free)."""
    clock = _PHASE_CLOCK
    started = clock() if clock is not None else 0.0
    program = _cached_workload(trial.workload, trial.workload_seed)
    model = trial.resolve_model()
    processor = Processor(program, config=model.config, ft=model.ft,
                          policy=policy)
    if clock is not None:
        _PHASE_TIMES["decode"] += clock() - started
    return processor


def _trace_golden(processor, committed):
    """The memoized in-order state after ``committed`` instructions and
    its store-footprint diff against the processor's committed state."""
    clock = _PHASE_CLOCK
    started = clock() if clock is not None else 0.0
    program = processor.program
    mem_size = processor.config.mem_size_words
    trace = cached_trace((program.name, id(program), mem_size), program,
                         mem_size=mem_size)
    golden_state = trace.seek(committed)
    if clock is not None:
        _PHASE_TIMES["golden"] += clock() - started
    return golden_state, compare_with_golden(processor.arch,
                                             golden_state)


def finish_trial(trial, processor, runner=None, golden=_trace_golden):
    """Run ``processor`` through ``runner`` and classify the outcome.

    Returns ``(TrialResult, dispatched groups)``.  ``runner(processor,
    max_cycles)`` must return ``(stats, warm_cycles,
    warm_instructions)`` following the
    :func:`~repro.harness.experiment.run_windowed` protocol (the
    default) — the straight run and the checkpointed run both classify
    through this single path.  ``golden(processor, committed)`` returns the in-order state
    after ``committed`` instructions and its
    :class:`~repro.functional.checker.StateDiff` against the
    processor's committed state; the default reads the memoized golden
    trace, and the bench's unoptimized baseline passes a fresh
    functional run.
    """
    budget = trial.instructions + trial.warmup
    max_cycles = trial.max_cycles
    if max_cycles is None:
        max_cycles = cycle_budget(trial.instructions, trial.warmup)
    if runner is None:
        def runner(proc, max_cycles):
            return run_windowed(proc, trial.instructions, trial.warmup,
                                max_cycles)
    result = TrialResult(trial=trial.to_dict(), outcome=TIMEOUT)
    clock = _PHASE_CLOCK
    started = clock() if clock is not None else 0.0
    try:
        stats, warm_cycles, warm_instructions = runner(processor,
                                                       max_cycles)
    except SimulationError as exc:
        stats = processor.stats
        stats.cycles = processor.cycle
        _fill_counters(result, stats,
                       stats.extras.get("warmup_cycles", 0),
                       stats.extras.get("warmup_instructions", 0))
        result.detail = "simulation error: %s" % exc
        return result, stats.dispatched_groups
    finally:
        if clock is not None:
            _PHASE_TIMES["simulate"] += clock() - started
    _fill_counters(result, stats, warm_cycles, warm_instructions)
    committed = stats.instructions
    if stats.crashed:
        result.detail = "committed control flow left the program"
        return result, stats.dispatched_groups
    if committed < budget and not processor.halted:
        result.detail = ("cycle budget exhausted: %d/%d instructions "
                         "in %d cycles" % (committed, budget, stats.cycles))
        return result, stats.dispatched_groups
    started = clock() if clock is not None else 0.0
    golden_state, diff = golden(processor, committed)
    result.outcome, result.detail = _verdict(processor, golden_state,
                                             diff, result)
    if clock is not None:
        _PHASE_TIMES["classify"] += clock() - started
    if processor.halted and committed < budget:
        # HALT committed before the budget: either the program really
        # ends here (golden agrees: masked/recovered) or a fault
        # steered control flow into the HALT (golden diverges: sdc).
        result.detail = ("halted after %d/%d instructions%s"
                         % (committed, budget,
                            "; " + result.detail if result.detail
                            else ""))
    return result, stats.dispatched_groups


def clear_result_caches():
    """Drop the fault-free result memo and the cell checkpoints (for
    tests and bench repeats)."""
    _FAULTFREE_CACHE.clear()
    _checkpoint.clear_checkpoints()


def cache_stats():
    """Hit/miss/eviction counters of every per-process trial cache.

    Covers the golden-trace LRU, the workload-program LRU and the
    cell-checkpoint store.  Also stamped into each executed trial's
    ``stats.extras["cache_stats"]`` (never into records — only
    ``site_strikes`` crosses from extras into records).
    """
    return {"golden_trace": trace_cache_stats(),
            "workload": workload_cache_stats(),
            "checkpoints": _checkpoint.checkpoint_store_stats()}


def _fill_counters(result, stats, warm_cycles, warm_instructions):
    """Copy run counters; IPC refers to the post-warmup window."""
    stats.extras["cache_stats"] = cache_stats()
    cycles = stats.cycles - warm_cycles
    instructions = stats.instructions - warm_instructions
    result.cycles = stats.cycles
    result.instructions = stats.instructions
    result.ipc = instructions / cycles if cycles else 0.0
    result.faults_injected = stats.faults_injected
    result.faults_detected = stats.faults_detected
    result.rewinds = stats.rewinds
    result.majority_commits = stats.majority_commits
    result.pc_continuity_violations = stats.pc_continuity_violations
    result.silent_commits = stats.silent_commits
    result.avg_recovery_penalty = stats.avg_recovery_penalty
    strikes = stats.extras.get("site_strikes")
    if strikes:
        result.site_strikes = dict(strikes)


def _verdict(processor, golden_state, diff, result):
    """Classify a completed run from its diff against the in-order
    reference (registers + memory, plus the committed next-PC)."""
    pc_clean = (processor.committed_next_pc == golden_state.pc
                or golden_state.halted)
    result.reg_mismatches = len(diff.reg_mismatches)
    result.mem_mismatches = len(diff.mem_mismatches)
    if not diff.clean or not pc_clean:
        detail = diff.summary()
        if not pc_clean:
            detail = ("next-pc %d != golden %d; %s"
                      % (processor.committed_next_pc, golden_state.pc,
                         detail))
        return SDC, detail
    stats = processor.stats
    paid = (stats.faults_detected or stats.rewinds
            or stats.majority_commits or stats.pc_continuity_violations)
    if paid:
        return DETECTED_RECOVERED, ""
    return MASKED, ""
