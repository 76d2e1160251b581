"""Machine configuration for the superscalar out-of-order engine.

Defaults reproduce Table 1 of the paper (the SS-1 baseline):

* 8-wide fetch/decode/dispatch/issue/commit
* 128-entry RUU (modelled as a ROB with rename registers in the
  entries) and 64-entry LSQ
* combined branch predictor (2K bimodal + 2-level with 10-bit history,
  1024-entry L2, 1-bit xor), one prediction per cycle
* 64 KB/2-way L1I, 32 KB/2-way L1D with 2 ports, 512 KB/4-way L2
* 4 integer ALUs, 2 integer multipliers, 2 FP adders, 1 FP mult/div;
  all operations pipelined except division
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError
from ..isa.opcodes import FuClass, Op
from ..memory.hierarchy import HierarchyParams

#: Stand-in for "infinite" resources in sensitivity studies.
UNLIMITED = 1 << 20


@dataclass(frozen=True)
class BranchPredictorParams:
    """Combined-predictor and BTB/RAS geometry (Table 1)."""

    bimodal_size: int = 2048
    l1_size: int = 2
    l2_size: int = 1024
    history_bits: int = 10
    use_xor: bool = True
    meta_size: int = 1024
    btb_sets: int = 512
    btb_assoc: int = 4
    ras_depth: int = 8


@dataclass(frozen=True)
class MachineConfig:
    """All parameters of one simulated machine."""

    name: str = "ss-1"
    # Pipeline widths (instructions per cycle; redundant copies each
    # consume one unit of dispatch/issue/commit bandwidth).
    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    ifq_size: int = 16
    # Window sizes.
    rob_size: int = 128
    lsq_size: int = 64
    # Functional units.
    int_alu: int = 4
    int_mult: int = 2
    fp_add: int = 2
    fp_mult: int = 1
    mem_ports: int = 2
    #: Outstanding-miss (MSHR) limit for loads; None = unbounded, the
    #: paper's implicit assumption and this package's default.
    mshr_count: Optional[int] = None
    # Operation latencies (cycles).
    lat_int_alu: int = 1
    lat_int_mult: int = 3
    lat_int_div: int = 20
    lat_fp_add: int = 2
    lat_fp_mult: int = 4
    lat_fp_div: int = 13
    lat_fp_sqrt: int = 26
    lat_agen: int = 1
    # Extra front-end cycles after a branch-misprediction redirect
    # (decode/rename refill beyond the naturally modelled refetch).
    redirect_penalty: int = 2
    # Front end.
    branch: BranchPredictorParams = field(
        default_factory=BranchPredictorParams)
    # Memory hierarchy.
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)
    mem_size_words: int = 1 << 16
    # Variant flags (Section 3.2 design alternatives).
    #: Rename via associative search of the ROB's logical-destination
    #: column instead of a map table ("map" or "associative").
    rename_scheme: str = "map"
    #: Model committed+rename registers in one physical pool: costs R
    #: extra register-file reads per retiring instruction, charged
    #: against commit bandwidth.
    shared_physical_regfile: bool = False
    #: Section 3.5: steer redundant copies of the same instruction onto
    #: different physical functional units whenever possible, exposing
    #: slow-transient (multi-cycle) faults to the cross-check.
    co_schedule_copies: bool = True
    #: Watchdog: abort if no instruction commits for this many cycles.
    deadlock_cycles: int = 50_000

    def __post_init__(self):
        for attr in ("fetch_width", "dispatch_width", "issue_width",
                     "commit_width", "ifq_size", "rob_size", "lsq_size",
                     "mem_ports", "int_alu"):
            if getattr(self, attr) < 1:
                raise ConfigError("%s must be >= 1" % attr)
        for attr in ("int_mult", "fp_add", "fp_mult"):
            if getattr(self, attr) < 0:
                raise ConfigError("%s must be >= 0" % attr)
        if self.rename_scheme not in ("map", "associative"):
            raise ConfigError("unknown rename scheme %r"
                              % self.rename_scheme)
        # Hot-loop lookup tables, resolved once per config (the
        # dataclass is frozen, so they can never go stale).  Stored via
        # object.__setattr__ to get past the immutability guard.
        object.__setattr__(self, "_op_latency", {
            op: fn(self) for op, fn in _LATENCY_TABLE.items()})
        object.__setattr__(self, "_fu_counts", {
            FuClass.INT_ALU: self.int_alu,
            FuClass.INT_MULT: self.int_mult,
            FuClass.FP_ADD: self.fp_add,
            FuClass.FP_MULT: self.fp_mult,
            FuClass.MEM_PORT: self.mem_ports,
        })

    def fu_count(self, fu_class):
        """Number of units of one functional-unit class."""
        return self._fu_counts[fu_class]

    def op_latency(self, op):
        """Execution latency of ``op`` in cycles."""
        return self._op_latency[op]

    def derive(self, **changes):
        """A modified copy (convenience wrapper over dataclasses.replace)."""
        return replace(self, **changes)


def _latency_table():
    table = {}
    int_mult_ops = {Op.MUL, Op.MULH}
    int_div_ops = {Op.DIV, Op.REM}
    fp_add_ops = {Op.FADD, Op.FSUB, Op.FNEG, Op.FABS, Op.FMOV, Op.CVTIF,
                  Op.CVTFI, Op.FCMPEQ, Op.FCMPLT, Op.FCMPLE}
    for op in Op:
        if op in int_mult_ops:
            table[op] = lambda c: c.lat_int_mult
        elif op in int_div_ops:
            table[op] = lambda c: c.lat_int_div
        elif op in fp_add_ops:
            table[op] = lambda c: c.lat_fp_add
        elif op == Op.FMUL:
            table[op] = lambda c: c.lat_fp_mult
        elif op == Op.FDIV:
            table[op] = lambda c: c.lat_fp_div
        elif op == Op.FSQRT:
            table[op] = lambda c: c.lat_fp_sqrt
        elif op in (Op.LW, Op.SW, Op.FLW, Op.FSW):
            table[op] = lambda c: c.lat_agen
        else:
            table[op] = lambda c: c.lat_int_alu
    return table


_LATENCY_TABLE = _latency_table()
