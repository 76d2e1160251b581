"""Addressable fault sites: *which* structure, entry, bit and when.

The legacy injector (:mod:`repro.core.faults`) models *how often* a
fault strikes; this module models *where*.  A :class:`FaultSite` names
one single-event upset precisely enough to replay it::

    structure x dynamic target x redundant copy x bit x cycle window

``structure`` is one of the microarchitectural structures of the
paper's datapath (Section 5.1.1 injects "at any stage of the
pipeline"); the dynamic target is the Nth dispatched group of the run
(speculative groups included — squashed targets simply never commit
their corruption), so a site is deterministic across re-runs of the
same trial.

Structure taxonomy and strike semantics:

=================  =====  =====  ==========================================
structure          scope  width  what the flipped bit corrupts
=================  =====  =====  ==========================================
``fu_result``      copy   64     the result leaving a functional unit —
                                 dependents *and* the committed value see it
``rob_entry``      copy   64     the result at rest in the ROB entry —
                                 dependents already captured the clean
                                 value; only commit (and the cross-check)
                                 sees the corruption
``lsq_address``    copy   64     the computed effective address of a
                                 memory op in the LSQ
``branch_outcome`` copy   16     the resolved control-flow outcome
                                 (direction for branches, target bits for
                                 jumps)
``pc``             group  16     the fetched PC shared by all copies
                                 (only PC-continuity checking catches it)
``rename_tag``     copy   64     the operand captured through the rename
                                 tag — the copy computes on a wrong source
``iq_entry``       copy   64     the operand latched in the issue-queue
                                 entry while waiting to issue
=================  =====  =====  ==========================================

``rename_tag`` and ``iq_entry`` address different physical latches but
share one architectural consequence (a corrupted source operand at
execute), exactly as ``fu_result`` and ``rob_entry`` share a corrupted
result — the split is what lets a campaign attribute sensitivity to the
structure, not to the consequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigError
from ..isa.opcodes import Kind
from ..wire import Wire, integer, optional, pair, text, wire

#: Every addressable structure, in taxonomy order.
STRUCTURES = ("fu_result", "rob_entry", "lsq_address", "branch_outcome",
              "pc", "rename_tag", "iq_entry")

#: Structures whose strike lands on one redundant copy.
COPY_STRUCTURES = ("fu_result", "rob_entry", "lsq_address",
                   "branch_outcome", "rename_tag", "iq_entry")

#: Structures whose strike corrupts the whole group.
GROUP_STRUCTURES = ("pc",)

#: Structures struck through a source-operand latch.
OPERAND_STRUCTURES = ("rename_tag", "iq_entry")

#: Struck-field width in bits, per structure.
STRUCTURE_WIDTHS = {
    "fu_result": 64,
    "rob_entry": 64,
    "lsq_address": 64,
    "branch_outcome": 16,
    "pc": 16,
    "rename_tag": 64,
    "iq_entry": 64,
}

#: One-line description per structure (``repro-ft faults --list``).
STRUCTURE_DESCRIPTIONS = {
    "fu_result": "result leaving a functional unit (dependents see it)",
    "rob_entry": "result at rest in the ROB entry (commit-visible only)",
    "lsq_address": "effective address of a memory op in the LSQ",
    "branch_outcome": "resolved control-flow outcome of a branch/jump",
    "pc": "fetched PC shared by all copies of a group",
    "rename_tag": "operand captured through the rename tag",
    "iq_entry": "operand latched in the issue-queue entry",
}


def structure_width(structure):
    """Bit width of the field a strike on ``structure`` flips."""
    try:
        return STRUCTURE_WIDTHS[structure]
    except (KeyError, TypeError):        # TypeError: unhashable name
        raise ConfigError(
            "unknown fault structure %r (choose from %s)"
            % (structure, ", ".join(STRUCTURES))) from None


def structure_applies(structure, inst, operand=0):
    """Does ``structure`` physically exist for this instruction?

    Strict — unlike the legacy kind-weight injector there is no
    fallback to a different site: a directed strike against a structure
    the instruction does not have simply waits for the next applicable
    instruction (see :class:`~repro.faults.policy.SiteListPolicy`).
    """
    info = inst.info
    if structure == "pc":
        return True
    if structure == "lsq_address":
        return info.is_mem
    if structure == "branch_outcome":
        return inst.is_control
    if structure == "fu_result":
        return info.writes_reg or info.kind == Kind.STORE
    if structure == "rob_entry":
        return info.writes_reg
    if structure == "rename_tag" or structure == "iq_entry":
        return info.reads_rs2 if operand else info.reads_rs1
    raise ConfigError("unknown fault structure %r (choose from %s)"
                      % (structure, ", ".join(STRUCTURES)))


@dataclass(frozen=True)
class FaultSite(Wire):
    """One fully addressed single-event upset.

    ``index`` is the dynamic target: the strike arms for the first
    *applicable* dispatched group whose group sequence number is
    ``>= index`` (dispatch order counts speculative groups).  ``copy``
    selects the redundant copy for copy-scope structures; ``operand``
    the source-operand slot for :data:`OPERAND_STRUCTURES`.  ``window``
    is an optional ``[start, end)`` dispatch-cycle gate — a site whose
    window closes before it lands expires instead of striking.
    """

    structure: str = wire(text(STRUCTURES))
    index: int = wire(integer(0), 0)
    copy: int = wire(integer(0), 0)
    bit: int = wire(integer(0), 0)
    operand: int = wire(integer(0, 1), 0, omit=True)
    window: Optional[Tuple[int, int]] = wire(
        optional(pair(integer(0), integer(0))), None, omit=True)

    def __post_init__(self):
        self.check()
        width = STRUCTURE_WIDTHS[self.structure]
        if self.bit >= width:
            raise ConfigError(
                "fault site bit %d out of range for %s (field width %d)"
                % (self.bit, self.structure, width))
        if self.window is not None and self.window[1] <= self.window[0]:
            raise ConfigError("fault site window must satisfy start < "
                              "end, got %r" % (self.window,))

    @property
    def is_group_scope(self):
        return self.structure in GROUP_STRUCTURES

    def in_window(self, cycle):
        """Is ``cycle`` inside this site's strike window?"""
        if self.window is None:
            return True
        return self.window[0] <= cycle < self.window[1]

    def expired(self, cycle):
        """Has the strike window closed without a strike?"""
        return self.window is not None and cycle >= self.window[1]


def count_strike(stats, structure):
    """Record one applied strike in the per-structure stats ledger.

    Lives in ``stats.extras['site_strikes']`` so legacy rate runs (which
    never call this) keep byte-identical :class:`PipelineStats`.
    """
    strikes = stats.extras.get("site_strikes")
    if strikes is None:
        strikes = stats.extras["site_strikes"] = {}
    strikes[structure] = strikes.get(structure, 0) + 1
