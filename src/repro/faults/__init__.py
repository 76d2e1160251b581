"""Addressable fault-site subsystem.

Splits transient-fault injection into two orthogonal questions:

* **Where can a fault land?** — :mod:`repro.faults.sites`: the
  :class:`FaultSite` address (structure x dynamic target x copy x bit
  x cycle window) over the taxonomy of pipeline structures;
* **Which faults strike this run?** — :mod:`repro.faults.policy`: the
  :class:`InjectionPolicy` strike schedule (``next_group`` plus
  ``strike``) with the Monte Carlo :class:`RatePolicy` (the frozen
  :class:`~repro.core.faults.FaultInjector` draw order), directed
  :class:`SiteListPolicy` strikes, and per-structure
  :class:`StructureSweepPolicy` sampling.

Every strike of a run is decided by its one policy.
"""

from .policy import (InjectionPolicy, POLICY_REGISTRY, RatePolicy,
                     SITE_POLICY_NAMES, SiteListPolicy,
                     StructureSweepPolicy, build_policy)
from .sites import (COPY_STRUCTURES, FaultSite, GROUP_STRUCTURES,
                    OPERAND_STRUCTURES, STRUCTURES,
                    STRUCTURE_DESCRIPTIONS, STRUCTURE_WIDTHS,
                    count_strike, structure_applies, structure_width)

__all__ = [
    "InjectionPolicy", "POLICY_REGISTRY", "RatePolicy",
    "SITE_POLICY_NAMES", "SiteListPolicy", "StructureSweepPolicy",
    "build_policy",
    "COPY_STRUCTURES", "FaultSite", "GROUP_STRUCTURES",
    "OPERAND_STRUCTURES", "STRUCTURES", "STRUCTURE_DESCRIPTIONS",
    "STRUCTURE_WIDTHS", "count_strike", "structure_applies",
    "structure_width",
]
