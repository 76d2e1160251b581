"""Transient-fault injection.

Reproduces the paper's methodology: "we also introduced a 'fault
injection' module that can randomly corrupt some instructions based on a
user-specified probability distribution function. ... our fault
injection module may decide to corrupt some part of an instruction at
any stage of the pipeline" (Section 5.1.1).

A fault strikes *one redundant copy* of an in-flight instruction (the
sphere of replication covers speculative state only; committed state is
ECC-protected and assumed immune).  Kinds model where the single-event
upset lands:

* ``value``   — the copy's result value (in an FU or its ROB slot);
* ``address`` — the copy's computed effective address (memory ops);
* ``branch``  — the copy's resolved branch outcome;
* ``pc``      — the instruction's fetched PC *shared by all copies*
  (models an upset in the unprotected PC register; only the committed
  next-PC continuity check can catch this one — Section 3.4).

Rates follow Section 4.2: the per-copy fault probability is ``lambda``
per instruction, so an R-redundant machine sees a group corrupted at
roughly ``R * lambda`` per architectural instruction.  Figure 6 expresses
``lambda`` in faults per one million instructions, which is the unit
used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..isa.opcodes import Kind

FAULT_KINDS = ("value", "address", "branch", "pc")

#: Default mix of fault sites: mostly datapath values, some address
#: calculation, some control.
DEFAULT_KIND_WEIGHTS = {"value": 0.70, "address": 0.15, "branch": 0.10,
                        "pc": 0.05}

#: Named kind-weight mixes for injection campaigns.  Each preset skews
#: the site distribution toward one structural class so per-fault-kind
#: sensitivity can be swept as a campaign axis.
KIND_MIX_PRESETS = {
    "default": DEFAULT_KIND_WEIGHTS,
    "value-only": {"value": 1.0},
    "address-heavy": {"value": 0.30, "address": 0.60, "branch": 0.05,
                      "pc": 0.05},
    "control-heavy": {"value": 0.25, "address": 0.05, "branch": 0.55,
                      "pc": 0.15},
    "pc-heavy": {"value": 0.40, "address": 0.10, "branch": 0.10,
                 "pc": 0.40},
}


def get_kind_mix(name):
    """Look up a named kind-weight preset (a fresh copy)."""
    try:
        return dict(KIND_MIX_PRESETS[name])
    except (KeyError, TypeError):        # TypeError: unhashable name
        raise ConfigError(
            "unknown fault kind mix %r (choose from %s)"
            % (name, ", ".join(sorted(KIND_MIX_PRESETS)))) from None


#: Width of the field each fault kind flips a bit of: values and
#: addresses are 64-bit datapath quantities, the PC register is 16 bits
#: wide in this ISA.
KIND_FIELD_WIDTHS = {"value": 64, "address": 64, "branch": 64, "pc": 16}


@dataclass(frozen=True)
class FaultPlan:
    """A fault scheduled against one copy (or one group for ``pc``)."""

    kind: str
    bit: int

    def __post_init__(self):
        width = KIND_FIELD_WIDTHS.get(self.kind)
        if width is None:
            raise ConfigError("unknown fault kind %r (choose from %s)"
                              % (self.kind, ", ".join(FAULT_KINDS)))
        if not isinstance(self.bit, int) or isinstance(self.bit, bool) \
                or not 0 <= self.bit < width:
            raise ConfigError(
                "fault bit %r out of range for a %s fault (the struck "
                "field is %d bits wide)" % (self.bit, self.kind, width))


@dataclass
class FaultConfig:
    """Injection rate and site distribution."""

    #: Per-copy fault probability, in faults per million instructions.
    rate_per_million: float = 0.0
    seed: int = 12345
    kind_weights: dict = field(
        default_factory=lambda: dict(DEFAULT_KIND_WEIGHTS))

    def __post_init__(self):
        if self.rate_per_million < 0:
            raise ConfigError("fault rate must be >= 0")
        total = sum(self.kind_weights.values())
        if total <= 0:
            raise ConfigError("fault kind weights must sum to > 0")
        unknown = set(self.kind_weights) - set(FAULT_KINDS)
        if unknown:
            raise ConfigError("unknown fault kinds: %s" % sorted(unknown))

    @property
    def rate(self):
        """Per-copy probability per instruction."""
        return self.rate_per_million / 1e6


class FaultInjector:
    """Draws fault plans for dispatched copies, deterministically."""

    def __init__(self, config=None):
        self.config = config or FaultConfig()
        self._rng = random.Random(self.config.seed)
        self._kinds = list(self.config.kind_weights.keys())
        self._weights = list(self.config.kind_weights.values())
        self.planned = 0
        # Per-dispatch hot path: resolve the per-copy rate and the
        # group-level pc share once (they are pure functions of the
        # immutable-by-convention config).
        self._rate = self.config.rate
        weights = self.config.kind_weights
        self._pc_rate = self._rate * (weights.get("pc", 0.0)
                                      / sum(weights.values()))

    def reset(self):
        self._rng = random.Random(self.config.seed)
        self.planned = 0

    def plan_for_copy(self, inst):
        """Plan (or not) a fault against one dispatched copy of ``inst``.

        Returns a :class:`FaultPlan` with kind in {value, address,
        branch} or ``None``.  ``pc`` faults are group-level; see
        :meth:`plan_for_group`.
        """
        rate = self._rate
        if rate <= 0 or self._rng.random() >= rate:
            return None
        return self.plan_for_copy_hit(inst)

    def plan_for_copy_hit(self, inst):
        """Continuation of :meth:`plan_for_copy` after its rate draw hit.

        Exposed so :class:`~repro.faults.policy.RatePolicy` can walk the
        (almost always missing) rate draws ahead of dispatch and only
        pay for a plan on a hit; the RNG consumption is identical to
        calling :meth:`plan_for_copy`.
        """
        kind = self._draw_kind()
        kind = self._fit_kind_to_inst(kind, inst)
        if kind is None:
            return None
        self.planned += 1
        return FaultPlan(kind=kind, bit=self._rng.randrange(64))

    def plan_for_group(self, inst):
        """Plan (or not) a group-level ``pc`` fault for one instruction."""
        rate = self._pc_rate
        if rate <= 0 or self._rng.random() >= rate:
            return None
        return self.plan_for_group_hit()

    def plan_for_group_hit(self):
        """Continuation of :meth:`plan_for_group` after its draw hit."""
        self.planned += 1
        return FaultPlan(kind="pc", bit=self._rng.randrange(16))

    def _draw_kind(self):
        choices = self._rng.choices(self._kinds, weights=self._weights)
        return choices[0]

    def _fit_kind_to_inst(self, kind, inst):
        """Map the drawn kind onto a site that exists for ``inst``."""
        info = inst.info
        if kind == "pc":
            # The pc share of the budget is spent at group level
            # (plan_for_group); drawing it here produces no copy fault,
            # otherwise pc faults would be double-counted.
            return None
        if kind == "address" and not info.is_mem:
            kind = "value"
        if kind == "branch" and not inst.is_control:
            kind = "value"
        if kind == "value":
            if info.writes_reg or info.kind == Kind.STORE:
                return "value"
            if inst.is_control:
                return "branch"
            return None  # nop/halt: no architectural site to corrupt
        return kind


def check_mix_applicability(kind_weights, program):
    """Refuse a kind mix that can never strike ``program``.

    Mirrors :meth:`FaultInjector._fit_kind_to_inst` exactly, including
    its fallbacks (``address`` on a non-memory instruction falls to
    ``value``, ``value`` on a control instruction to ``branch``): the
    mix is rejected only when *every* nonzero-weight kind maps to no
    site in the program, which would otherwise plan nothing, silently,
    for the whole campaign.  ``pc`` faults strike the fetch PC and are
    always applicable.
    """
    nonzero = sorted(kind for kind, weight in kind_weights.items()
                     if weight > 0)
    if "pc" in nonzero:
        return
    has_value_site = has_mem = has_control = False
    for inst in program.text:
        info = inst.info
        if info.writes_reg or info.kind == Kind.STORE:
            has_value_site = True
        if info.is_mem:
            has_mem = True
        if inst.is_control:
            has_control = True
        if has_value_site and has_mem and has_control:
            break
    value_ok = has_value_site or has_control
    applicable = {"value": value_ok,
                  "address": has_mem or value_ok,
                  "branch": has_control or value_ok}
    if not any(applicable.get(kind, False) for kind in nonzero):
        raise ConfigError(
            "fault kind mix %r can never strike workload %r: the "
            "program has no %s site (and no fallback applies); the "
            "injector would silently plan nothing"
            % (dict(kind_weights), program.name,
               "/".join(nonzero)))
