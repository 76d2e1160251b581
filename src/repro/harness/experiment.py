"""Experiment runners for every table and figure in the paper.

Each function returns plain result objects that the report module can
format and the benchmark suite can assert on.  Instruction budgets are
parameters: the paper simulated 10^9 instructions per run; steady-state
IPC of the loop-structured synthetic workloads converges within a few
tens of thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.config import FTConfig
from ..core.faults import FaultConfig
from ..faults.policy import RatePolicy
from ..models.presets import MachineModel, get_model, ss2, ss3
from ..models.scaling import (factor_for_label, scale_functional_units,
                              scale_window)
from ..uarch.processor import Processor
from ..workloads.generator import build_workload
from ..workloads.mix import measure_mix
from ..workloads.profiles import BENCHMARK_ORDER

DEFAULT_INSTRUCTIONS = 20_000
#: Figure-6 x-axis: fault frequencies in faults per million instructions.
FIGURE6_RATES = (0.0, 10.0, 100.0, 300.0, 1000.0, 3000.0, 10_000.0,
                 30_000.0, 100_000.0)
#: From this fault frequency on the machine lives in a rewind storm;
#: warming caches first is meaningless (and nearly impossible), so
#: Figure 6 runs these points without warmup.
STORM_RATE = 50_000.0


@dataclass
class RunResult:
    """One (benchmark, machine model) simulation."""

    benchmark: str
    model: str
    ipc: float
    cycles: int
    instructions: int
    branch_accuracy: float
    rewinds: int = 0
    faults_injected: int = 0
    faults_detected: int = 0
    majority_commits: int = 0
    avg_recovery_penalty: float = 0.0

    @classmethod
    def from_stats(cls, benchmark, model, stats):
        return cls(benchmark=benchmark, model=model, ipc=stats.ipc,
                   cycles=stats.cycles, instructions=stats.instructions,
                   branch_accuracy=stats.branch_accuracy,
                   rewinds=stats.rewinds,
                   faults_injected=stats.faults_injected,
                   faults_detected=stats.faults_detected,
                   majority_commits=stats.majority_commits,
                   avg_recovery_penalty=stats.avg_recovery_penalty)


def cycle_budget(instructions, warmup=0):
    """Default cycle allowance for a windowed run of that many commits."""
    return max(200_000, (instructions + warmup) * 60)


def run_windowed(processor, max_instructions, warmup_instructions=0,
                 max_cycles=None):
    """The warmup-then-measure protocol on an existing processor.

    ``warmup_instructions`` commits that many instructions before the
    measurement window, so caches and predictors reach steady state —
    the small-budget stand-in for the paper's "skip the first billion
    instructions" methodology.  Returns ``(stats, warm_cycles,
    warm_instructions)``; stats counters are run totals, the warm
    figures let callers compute window-relative metrics.
    """
    if max_cycles is None:
        max_cycles = cycle_budget(max_instructions, warmup_instructions)
    warm_cycles = warm_instructions = 0
    if warmup_instructions:
        processor.run(max_instructions=warmup_instructions,
                      max_cycles=max_cycles)
        warm_cycles = processor.cycle
        warm_instructions = processor.stats.instructions
        # Also stamped on the stats so callers that lose the return
        # value (a SimulationError mid-window) can still separate the
        # warmup phase from the measurement window.
        processor.stats.extras["warmup_cycles"] = warm_cycles
        processor.stats.extras["warmup_instructions"] = warm_instructions
    stats = processor.run(max_instructions=max_instructions,
                          max_cycles=max_cycles)
    return stats, warm_cycles, warm_instructions


def run_on_model(program, model, max_instructions=DEFAULT_INSTRUCTIONS,
                 fault_config=None, lockstep=False, max_cycles=None,
                 warmup_instructions=0):
    """Simulate ``program`` on one machine model.

    IPC/cycles/instructions refer to the post-warmup window only (see
    :func:`run_windowed`).
    """
    processor = Processor(program, config=model.config, ft=model.ft,
                          policy=RatePolicy(fault_config)
                          if fault_config is not None else None)
    if lockstep:
        processor.enable_lockstep_check()
    stats, warm_cycles, warm_instructions = run_windowed(
        processor, max_instructions, warmup_instructions, max_cycles)
    result = RunResult.from_stats(program.name, model.name, stats)
    if warmup_instructions:
        cycles = stats.cycles - warm_cycles
        instructions = stats.instructions - warm_instructions
        result.cycles = cycles
        result.instructions = instructions
        result.ipc = instructions / cycles if cycles else 0.0
    return result


# -- Table 2 ---------------------------------------------------------------

def table2_rows(benchmarks=BENCHMARK_ORDER,
                instructions=DEFAULT_INSTRUCTIONS):
    """Measured dynamic instruction mixes for the benchmark suite."""
    return [measure_mix(build_workload(name), instructions=instructions)
            for name in benchmarks]


# -- Figure 5 --------------------------------------------------------------

@dataclass
class Figure5Row:
    """Per-benchmark steady-state IPC of SS-1 / Static-2 / SS-2."""

    benchmark: str
    results: dict = field(default_factory=dict)  # model name -> RunResult

    def ipc(self, model):
        return self.results[model].ipc

    @property
    def ss2_penalty(self):
        """Fractional IPC loss of SS-2 relative to SS-1."""
        return 1.0 - self.ipc("SS-2") / self.ipc("SS-1")


def figure5_rows(benchmarks=BENCHMARK_ORDER,
                 instructions=DEFAULT_INSTRUCTIONS,
                 model_names=("SS-1", "Static-2", "SS-2"),
                 warmup=2_000):
    """Reproduce Figure 5: steady-state IPC comparison."""
    rows = []
    for name in benchmarks:
        program = build_workload(name)
        row = Figure5Row(benchmark=name)
        for model_name in model_names:
            model = get_model(model_name)
            row.results[model.name] = run_on_model(
                program, model, max_instructions=instructions,
                warmup_instructions=warmup)
        rows.append(row)
    return rows


# -- Figure 6 --------------------------------------------------------------

@dataclass
class Figure6Point:
    """IPC of the R=2 and R=3 designs at one fault frequency."""

    rate_per_million: float
    results: dict = field(default_factory=dict)  # design name -> RunResult


def figure6_points(benchmark="fpppp", rates=FIGURE6_RATES,
                   instructions=DEFAULT_INSTRUCTIONS, seed=20010,
                   warmup=2_000):
    """Reproduce Figure 6: IPC vs fault frequency for fpppp.

    Designs: 'R=2' (rewind recovery) and 'R=3' (2-of-3 majority
    election), both on the Table-1 datapath.
    """
    program = build_workload(benchmark)
    designs = (("R=2", ss2()), ("R=3", ss3(majority=True)))
    points = []
    for rate in rates:
        point = Figure6Point(rate_per_million=rate)
        effective_warmup = warmup if rate < STORM_RATE else 0
        for design_name, model in designs:
            fault_config = None
            if rate > 0:
                fault_config = FaultConfig(rate_per_million=rate,
                                           seed=seed + int(rate))
            point.results[design_name] = run_on_model(
                program, model, max_instructions=instructions,
                fault_config=fault_config,
                warmup_instructions=effective_warmup)
        points.append(point)
    return points


# -- Section 5.2 sensitivity study ------------------------------------------

@dataclass
class SensitivityRow:
    """IPC of one benchmark across resource scalings of the baseline."""

    benchmark: str
    base_ipc: float
    fu_ipc: dict = field(default_factory=dict)    # label -> ipc
    ruu_ipc: dict = field(default_factory=dict)   # label -> ipc

    @property
    def fu_limited(self):
        """Doubling FUs helps noticeably => FU-limited baseline."""
        return self.fu_ipc["2x"] > 1.10 * self.base_ipc

    @property
    def ruu_limited(self):
        return self.ruu_ipc["2x"] > 1.10 * self.base_ipc

    @property
    def ilp_limited(self):
        """Insensitive to both => limited by program parallelism."""
        return not self.fu_limited and not self.ruu_limited


def sensitivity_rows(benchmarks=BENCHMARK_ORDER,
                     instructions=DEFAULT_INSTRUCTIONS,
                     labels=("0.5x", "2x", "inf"), warmup=2_000):
    """The Section-5.2 resource-sensitivity experiment on SS-1."""
    rows = []
    for name in benchmarks:
        program = build_workload(name)
        base_model = get_model("SS-1")
        base = run_on_model(program, base_model,
                            max_instructions=instructions,
                            warmup_instructions=warmup)
        row = SensitivityRow(benchmark=name, base_ipc=base.ipc)
        for label in labels:
            factor = factor_for_label(label)
            fu_config = scale_functional_units(base_model.config, factor)
            row.fu_ipc[label] = run_on_model(
                program, MachineModel("SS-1", fu_config, base_model.ft),
                max_instructions=instructions,
                warmup_instructions=warmup).ipc
            ruu_config = scale_window(base_model.config, factor)
            row.ruu_ipc[label] = run_on_model(
                program, MachineModel("SS-1", ruu_config, base_model.ft),
                max_instructions=instructions,
                warmup_instructions=warmup).ipc
        rows.append(row)
    return rows


def sensitivity_campaign_spec(benchmarks=("gcc",), model="SS-2",
                              rates=(0.0, 3000.0), replicates=4,
                              instructions=2_000, labels=("2x",),
                              name="sensitivity-campaign"):
    """The Section-5.2 resource sweep as a campaign design-space grid.

    Expresses the FU / RUU scalings as ``machine_overrides`` cells of a
    :class:`~repro.campaign.spec.CampaignSpec`, so the sensitivity
    study runs through the campaign engine — resumable, parallel and
    statistically aggregated — instead of the one-off
    :func:`sensitivity_rows` loop.  Returns the spec; run it with a
    :class:`~repro.campaign.api.CampaignSession`.
    """
    # Local import: repro.campaign.outcome imports this module.
    from ..campaign.spec import CampaignSpec
    base = get_model(model).config
    machine_overrides = {"base": {}}
    for label in labels:
        factor = factor_for_label(label)
        fu = scale_functional_units(base, factor)
        machine_overrides["fu-%s" % label] = {
            "int_alu": fu.int_alu, "int_mult": fu.int_mult,
            "fp_add": fu.fp_add, "fp_mult": fu.fp_mult,
            "mem_ports": fu.mem_ports}
        ruu = scale_window(base, factor)
        machine_overrides["ruu-%s" % label] = {
            "rob_size": ruu.rob_size, "lsq_size": ruu.lsq_size}
    return CampaignSpec(
        name=name,
        workloads=tuple(benchmarks),
        models=(model,),
        rates_per_million=tuple(rates),
        machine_overrides=machine_overrides,
        replicates=replicates,
        instructions=instructions)


def adaptive_demo_spec(benchmarks=("gcc",), models=("SS-1", "SS-2"),
                       rates=(0.0, 20_000.0), replicates=24,
                       instructions=250, name="adaptive-demo"):
    """A deliberately high-contrast grid for adaptive sampling.

    Rate-0 cells never produce an SDC and the 20k-faults/M cells sit
    near a proportion extreme on both machines (SS-1 mostly silent
    corruptions, SS-2 mostly detected+recovered), so under
    ``SamplingPlan.wilson(..., metric="sdc_rate")`` every cell's
    interval collapses long before the replicate budget runs out —
    the spec the adaptive tests and the CI smoke use to show the
    scheduler stopping cells early.  Returns the spec; attach the plan
    through :class:`~repro.campaign.api.ExecutionOptions`.
    """
    from ..campaign.spec import CampaignSpec
    return CampaignSpec(
        name=name,
        workloads=tuple(benchmarks),
        models=tuple(models),
        rates_per_million=tuple(rates),
        replicates=replicates,
        instructions=instructions)


def structure_sweep_cells(structures, strikes=1):
    """One ``fault_sites`` sweep cell per structure.

    The single definition of the ``sweep-<structure>`` cell shape: the
    cell name and policy spec feed trial-key material, so the CLI
    (``--sites``) and :func:`site_sensitivity_spec` must build them
    identically or CLI-run and API-run campaigns stop sharing stores.
    """
    return {
        "sweep-%s" % structure: {"policy": "structure_sweep",
                                 "structure": structure,
                                 "strikes": strikes}
        for structure in structures}


def site_sensitivity_spec(benchmarks=("gcc",), model="SS-2",
                          structures=None, strikes=1, replicates=16,
                          instructions=2_000,
                          name="site-sensitivity"):
    """A per-structure fault-sensitivity study as a campaign grid.

    One :class:`~repro.faults.policy.StructureSweepPolicy` cell per
    addressable structure: every replicate strikes ``strikes``
    uniformly sampled sites of that structure (targets drawn per trial
    from the trial's content-derived seed), and the aggregate answers
    *which structure is sensitive* — coverage, SDC rate and masked rate
    per structure with Wilson CIs
    (:func:`repro.campaign.aggregate.aggregate_structures`).  This is
    the "Not All Faults Are Equal" per-site characterisation the
    ROADMAP names, run on the paper's machinery.  Returns the spec; run
    it with a :class:`~repro.campaign.api.CampaignSession` or
    ``repro-ft campaign --sites all``.
    """
    from ..campaign.spec import CampaignSpec
    from ..faults.sites import STRUCTURES
    if structures is None:
        structures = STRUCTURES
    fault_sites = structure_sweep_cells(structures, strikes=strikes)
    return CampaignSpec(
        name=name,
        workloads=tuple(benchmarks),
        models=(model,),
        rates_per_million=(0.0,),
        fault_sites=fault_sites,
        replicates=replicates,
        instructions=instructions)


# -- recovery cost (Section 5.3 in-text) -------------------------------------

def recovery_cost(benchmark="fpppp", rate_per_million=200.0,
                  instructions=DEFAULT_INSTRUCTIONS, seed=42,
                  warmup=2_000):
    """Measure the observed rewind penalty Y (paper: ~30 cycles)."""
    program = build_workload(benchmark)
    fault_config = FaultConfig(rate_per_million=rate_per_million,
                               seed=seed)
    return run_on_model(program, ss2(), max_instructions=instructions,
                        fault_config=fault_config,
                        warmup_instructions=warmup)


# -- Section 3.2 physical-register-pool ablation -----------------------------

def physreg_ablation(benchmarks=("gcc", "fpppp", "go"),
                     instructions=DEFAULT_INSTRUCTIONS, warmup=2_000):
    """SS-2 vs SS-2 with a shared physical register pool.

    The paper predicts the shared-pool variant is "slightly lower"
    because corroboration costs R extra register-file reads per retiring
    instruction.
    """
    rows = []
    for name in benchmarks:
        program = build_workload(name)
        split = run_on_model(program, ss2(),
                             max_instructions=instructions,
                             warmup_instructions=warmup)
        shared_model = ss2(shared_physical_regfile=True)
        shared = run_on_model(program, shared_model,
                              max_instructions=instructions,
                              warmup_instructions=warmup)
        rows.append((name, split.ipc, shared.ipc))
    return rows


# -- rename-scheme equivalence (Section 3.1 design alternative) --------------

def rename_scheme_comparison(benchmark="vortex",
                             instructions=5_000):
    """Map-table vs associative-search renaming must agree exactly."""
    program = build_workload(benchmark)
    results = {}
    for scheme in ("map", "associative"):
        model = ss2(rename_scheme=scheme)
        results[scheme] = run_on_model(program, model,
                                       max_instructions=instructions)
    return results
