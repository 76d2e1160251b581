"""repro: a reproduction of "Dual Use of Superscalar Datapath for
Transient-Fault Detection and Recovery" (Ray, Hoe & Falsafi, MICRO 2001).

The package implements, from scratch and in pure Python:

* a cycle-level out-of-order superscalar simulator (:mod:`repro.uarch`)
  with the paper's Table-1 machine configuration;
* the paper's dual-use fault-tolerance extensions (:mod:`repro.core`):
  dynamic instruction replication, commit-stage cross-checking, rewind
  and majority-election recovery, and fault injection;
* all supporting substrates: ISA + assembler (:mod:`repro.isa`),
  in-order golden-model simulation (:mod:`repro.functional`), cache
  hierarchy (:mod:`repro.memory`), branch prediction
  (:mod:`repro.branch`), Hamming-SECDED ECC (:mod:`repro.ecc`);
* synthetic SPEC-like workloads calibrated to the paper's Table 2
  (:mod:`repro.workloads`) and machine-model presets
  (:mod:`repro.models`);
* the Section-4 analytical model (:mod:`repro.analytical`) and an
  experiment harness regenerating every table and figure
  (:mod:`repro.harness`);
* resumable, parallel Monte Carlo fault-injection campaigns with
  outcome classification and Wilson confidence intervals
  (:mod:`repro.campaign`).

Quickstart::

    from repro import build_workload, run_on_model, ss1, ss2

    program = build_workload("gcc")
    for model in (ss1(), ss2()):
        result = run_on_model(program, model, max_instructions=10_000)
        print(model.name, result.ipc)
"""

from .campaign import CampaignSession, CampaignSpec, ExecutionOptions
from .core.config import (DUAL_REDUNDANT, TRIPLE_MAJORITY, TRIPLE_REWIND,
                          UNPROTECTED, FTConfig)
from .core.faults import FaultConfig, FaultInjector
from .faults.policy import RatePolicy
from .harness.experiment import run_on_model
from .isa.assembler import assemble
from .isa.builder import ProgramBuilder
from .models.presets import (MachineModel, baseline_config, get_model,
                             ss1, ss2, ss3, static2)
from .program.image import Program
from .uarch.config import MachineConfig
from .uarch.processor import Processor, simulate
from .workloads.generator import build_workload

__version__ = "1.1.0"

__all__ = [
    "CampaignSession", "CampaignSpec", "ExecutionOptions",
    "DUAL_REDUNDANT", "TRIPLE_MAJORITY", "TRIPLE_REWIND", "UNPROTECTED",
    "FTConfig", "FaultConfig", "FaultInjector", "RatePolicy",
    "run_on_model",
    "assemble", "ProgramBuilder", "MachineModel", "baseline_config",
    "get_model", "ss1", "ss2", "ss3", "static2", "Program",
    "MachineConfig", "Processor", "simulate", "build_workload",
    "__version__",
]
