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
from ..harness.experiment import cycle_budget, run_windowed
from ..program.cache import LRUCache, workload_cache_stats
from ..program.cache import cached_workload as _cached_workload
from ..uarch.processor import Processor
from . import checkpoint as _checkpoint
from .golden import cached_trace, compare_with_golden, trace_cache_stats

MASKED = "masked"
DETECTED_RECOVERED = "detected_recovered"
SDC = "sdc"
TIMEOUT = "timeout"

OUTCOMES = (MASKED, DETECTED_RECOVERED, SDC, TIMEOUT)

#: Per-process LRU memo of each cell's fault-free twin
#: (:class:`~repro.campaign.checkpoint.FaultFreeTwin`): with no
#: injector the simulation is a pure function of (workload, model,
#: budgets), so all replicates of a rate-0 cell share one execution,
#: and every struck trial of the cell restores from its rungs and
#: compares against its marks.  Bounded so a long-lived service worker
#: does not keep a twin for every cell it ever ran: at most 16 cells
#: x ``checkpoint.RUNGS_PER_CELL`` rungs (a few KiB each) are held; an
#: evicted twin is simply run again.
_FAULTFREE_CACHE = LRUCache(limit=16)


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

    Every cell runs its fault-free twin once per process, and all
    replicates of a fault-free cell share that execution.  A struck
    trial first asks its policy for its first strike
    (:meth:`~repro.faults.policy.InjectionPolicy.look_ahead`), before
    the processor is built, because building resets the policy.  When
    the first strike is at or past the twin's dispatched-group count,
    the trial is the twin and reuses it.  Every other struck trial
    restores the twin's latest rung at or before its first strike (a
    compact snapshot kept at a digest mark, so at most one mark before
    the strike), simulates from there, re-enters the twin between
    strikes and stops early once its state re-converges with the
    twin's for good (:mod:`repro.campaign.checkpoint`).
    """
    policy = trial.injection_policy()
    twin = _fault_free_twin(trial)
    if policy is None:
        return replace(twin.result, trial=trial.to_dict())
    first_strike = policy.look_ahead(twin.groups)
    if first_strike >= twin.groups:
        # Nothing strikes before the fault-free run ends: the trial is
        # the fault-free run.
        return replace(twin.result, trial=trial.to_dict())
    processor = _build_processor(trial, policy)
    return _finish_checkpointed(trial, processor, first_strike, twin)[0]


def _baseline_key(trial):
    """The fault-free cell of ``trial``: everything but rate and seed."""
    return (trial.workload, trial.workload_seed, trial.model,
            trial.machine_overrides, trial.instructions, trial.warmup,
            trial.max_cycles)


def _finish_checkpointed(trial, processor, first_strike, twin):
    """:func:`finish_trial` through
    :func:`repro.campaign.checkpoint.run_checkpointed` on the cell's
    twin."""
    def runner(proc, max_cycles):
        return _checkpoint.run_checkpointed(
            proc, twin, first_strike, trial.instructions, trial.warmup,
            max_cycles)

    return finish_trial(trial, processor, runner=runner)


def _fault_free_twin(trial):
    """The memoized fault-free twin of ``trial``'s cell."""
    key = _baseline_key(trial)
    twin = _FAULTFREE_CACHE.get(key)
    if twin is None:
        twin = _run_twin(trial, _build_processor(trial, None))
        _FAULTFREE_CACHE.put(key, twin)
    return twin


def _run_twin(trial, processor):
    """Run the fault-free ``processor`` as the twin of ``trial``'s cell,
    recording the twin's digest marks and rungs on the way (its stats
    and classification stay byte-identical to the straight run)."""
    twin = _checkpoint.FaultFreeTwin()
    twin.result, twin.groups = _finish_checkpointed(
        trial, processor, math.inf, twin)
    twin.exits = twin.result.outcome in (MASKED, DETECTED_RECOVERED)
    return twin


def _build_processor(trial, policy):
    """The trial's machine, armed with ``policy`` (``None``: fault-free)."""
    program = _cached_workload(trial.workload, trial.workload_seed)
    model = trial.resolve_model()
    return Processor(program, config=model.config, ft=model.ft,
                     policy=policy)


def _trace_golden(processor, committed):
    """The memoized in-order state after ``committed`` instructions and
    its store-footprint diff against the processor's committed state."""
    program = processor.program
    mem_size = processor.config.mem_size_words
    trace = cached_trace((program.name, id(program), mem_size), program,
                         mem_size=mem_size)
    golden_state = trace.seek(committed)
    return golden_state, compare_with_golden(processor.arch,
                                             golden_state)


def finish_trial(trial, processor, runner=None, golden=_trace_golden):
    """Run ``processor`` through ``runner`` and classify the outcome.

    Returns ``(TrialResult, dispatched groups)``.  ``runner(processor,
    max_cycles)`` must return ``(stats, warm_cycles, warm_instructions,
    twin)`` following the
    :func:`~repro.harness.experiment.run_windowed` protocol (the
    default runs it straight), where ``twin`` is the fault-free twin
    the run re-converged with and stopped at, or ``None``.  The
    straight and the checkpointed run both classify through this
    single path.  ``golden(processor, committed)`` returns the in-order
    state after ``committed`` instructions and its
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
                                max_cycles) + (None,)
    result = TrialResult(trial=trial.to_dict(), outcome=TIMEOUT)
    try:
        stats, warm_cycles, warm_instructions, twin = runner(processor,
                                                             max_cycles)
    except SimulationError as exc:
        stats = processor.stats
        stats.cycles = processor.cycle
        _fill_counters(result, stats,
                       stats.extras.get("warmup_cycles", 0),
                       stats.extras.get("warmup_instructions", 0))
        result.detail = "simulation error: %s" % exc
        return result, stats.dispatched_groups
    _fill_counters(result, stats, warm_cycles, warm_instructions)
    if twin is not None:
        # The run stopped where its state re-converged with the twin's,
        # so its final state is the twin's: the twin's clean verdict
        # holds, and only whether the run paid depends on its own
        # (spliced) counters.
        result.outcome = DETECTED_RECOVERED if _paid(stats) else MASKED
        result.detail = twin.result.detail
        return result, stats.dispatched_groups
    committed = stats.instructions
    if stats.crashed:
        result.detail = "committed control flow left the program"
        return result, stats.dispatched_groups
    if committed < budget and not processor.halted:
        result.detail = ("cycle budget exhausted: %d/%d instructions "
                         "in %d cycles" % (committed, budget, stats.cycles))
        return result, stats.dispatched_groups
    golden_state, diff = golden(processor, committed)
    result.outcome, result.detail = _verdict(processor, golden_state,
                                             diff, result)
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
    """Drop the fault-free twin memo (for tests and bench repeats)."""
    _FAULTFREE_CACHE.clear()


def cache_stats():
    """Hit/miss/eviction counters of every per-process trial cache.

    Covers the golden-trace LRU, the workload-program LRU and the
    fault-free twin memo, whose section also counts the rungs its
    twins hold and their bytes.  Read from outside the trial path
    (``repro-ft bench`` records it); no trial or record carries it.
    """
    fault_free = _FAULTFREE_CACHE.stats()
    rungs = [rung for twin in _FAULTFREE_CACHE.values()
             for rung in twin.rungs]
    fault_free["rungs"] = len(rungs)
    fault_free["rung_bytes"] = sum(len(rung.blob) for rung in rungs)
    return {"golden_trace": trace_cache_stats(),
            "workload": workload_cache_stats(),
            "fault_free": fault_free}


def _fill_counters(result, stats, warm_cycles, warm_instructions):
    """Copy run counters; IPC refers to the post-warmup window."""
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
    if _paid(processor.stats):
        return DETECTED_RECOVERED, ""
    return MASKED, ""


def _paid(stats):
    """Did the machine pay for a fault: a detection, rewind or
    majority commit?"""
    return bool(stats.faults_detected or stats.rewinds
                or stats.majority_commits
                or stats.pc_continuity_violations)
