"""Pluggable injection policies: *when and where* faults strike.

An :class:`InjectionPolicy` is the one schedule of a run's strikes.
The pipeline drives it through two members:

* ``next_group`` — the smallest dispatched-group index at which the
  policy can strike, or ``math.inf`` once it is spent;
* :meth:`~InjectionPolicy.strike` — called when a group whose index
  has reached ``next_group`` dispatches.  It applies the group's
  strikes: a ``pc`` flip lands on the group itself, and copy-scope
  strikes come back as arms for the replicator to set on the copies.

So a group below ``next_group`` costs the dispatch loop one integer
compare, and a campaign reads the first strike of a trial before it
simulates anything.  Three policies ship:

* :class:`RatePolicy` — the Monte Carlo injector of Section 5.1.1.  It
  walks its RNG ahead to the next hit in the frozen draw order of
  :class:`~repro.core.faults.FaultInjector`, so every trial key,
  record and aggregate stays byte-identical.
* :class:`SiteListPolicy` — a deterministic list of addressed
  :class:`~repro.faults.sites.FaultSite` strikes for directed
  experiments: "flip bit 12 of the ROB entry of the 4000th dispatched
  group's copy 1".
* :class:`StructureSweepPolicy` — uniform sampling *within one
  structure* (target index, copy, operand slot and bit drawn from a
  seeded RNG), the per-structure sensitivity-campaign workhorse.

:func:`build_policy` constructs a site policy from a plain JSON-able
spec dict, which is how campaign trials carry them across process-pool
workers.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from ..core.faults import FaultConfig, FaultInjector
from ..errors import ConfigError, SkippedStrikeError
from ..wire import integer, items, nested, text
from .sites import (FaultSite, OPERAND_STRUCTURES, STRUCTURES,
                    count_strike, structure_applies, structure_width)

#: How far past the group being dispatched a live rate run walks its
#: draw stream at a time.  At 10 faults/M the next hit is tens of
#: thousands of groups away, far past the end of a typical run.
WALK_CHUNK = 1024

#: The most strikes one structure sweep may sample.  The sample is
#: built eagerly (and on every campaign submit, to validate it), so an
#: unbounded count would let one spec stall the process.
MAX_SWEEP_STRIKES = 4096

#: The engine's fault channel per result/address/outcome structure;
#: the operand structures ride ``op_fault`` instead.
_FAULT_KINDS = {"fu_result": "value", "rob_entry": "rob_value",
                "lsq_address": "address", "branch_outcome": "branch"}


class InjectionPolicy(ABC):
    """Decides which faults strike which dispatched groups.

    The pipeline calls :meth:`bind` and :meth:`reset` once, at
    processor construction, then :meth:`strike` for every dispatched
    group whose index is at least :attr:`next_group`.
    """

    #: Registry name; subclasses override.
    name = "?"

    #: The smallest dispatched-group index at which this policy can
    #: strike; ``math.inf`` once it is spent.
    next_group = math.inf

    def bind(self, redundancy):
        """Late-bind machine facts (called once per processor)."""

    @abstractmethod
    def reset(self):
        """Rewind to the initial state (fresh RNG, re-armed sites)."""

    def look_ahead(self, limit):
        """Make :attr:`next_group` exact below dispatched group
        ``limit`` and return it.

        A value ``>= limit`` means nothing strikes before ``limit``.
        Site policies know their next group outright; the rate policy
        walks its draw stream here.
        """
        return self.next_group

    @abstractmethod
    def strike(self, group, cycle, stats):
        """Apply the strikes of ``group``, dispatched at ``cycle``.

        A group-scope strike lands on ``group`` here and is counted in
        ``stats``.  Copy-scope strikes are returned as a list of arms
        ``(copy, fault_kind, fault_bit, op_fault, site)``, the values
        of the struck copy's ROB-entry fields.  Advances
        :attr:`next_group`.
        """

    def describe(self):
        """One-line human description of this policy instance."""
        doc = (type(self).__doc__ or "").strip()
        return doc.splitlines()[0] if doc else type(self).__name__


def _first_hit(random_draw, rate, pc_rate, redundancy, group, limit):
    """The first hit among the rate draws of groups ``[group, limit)``.

    Returns ``(group, draw)``: ``draw`` is ``-1`` for the group's
    ``pc`` draw, ``k`` for copy ``k``'s draw, and ``None`` (with the
    group at ``limit``) when every draw misses.
    """
    while group < limit:
        if pc_rate > 0 and random_draw() < pc_rate:
            return group, -1
        for copy in range(redundancy):
            if random_draw() < rate:
                return group, copy
        group += 1
    return group, None


class RatePolicy(InjectionPolicy):
    """Monte Carlo strikes at a per-copy rate (Section 5.1.1).

    Draws from a :class:`~repro.core.faults.FaultInjector`'s RNG in its
    frozen order: per dispatched group one ``pc`` draw when the kind
    mix gives ``pc`` weight, then one rate draw per redundant copy,
    and a hit's kind and bit draws right after its rate draw.  Rate
    draws need no machine state, so the policy walks them ahead of
    dispatch to its next hit; the kind and bit draws depend on the
    struck instruction, so they wait until the hit's group dispatches.
    The walk is keyed by group index alone: a run restored from a
    snapshot taken at or before the first hit replays the same stream
    (``tests/test_injector_rng_freeze.py`` pins the order).
    """

    name = "rate"

    def __init__(self, config=None):
        self.config = config or FaultConfig()
        self.injector = FaultInjector(self.config)
        self._redundancy = 1
        self.reset()

    def bind(self, redundancy):
        self._redundancy = redundancy

    def reset(self):
        self.injector.reset()
        # The hit draw at next_group, once the walk has found one.
        self._draw = None
        self.next_group = 0 if self.injector._rate > 0 else math.inf

    def look_ahead(self, limit):
        if self._draw is None and self.next_group < limit:
            injector = self.injector
            self.next_group, self._draw = _first_hit(
                injector._rng.random, injector._rate, injector._pc_rate,
                self._redundancy, self.next_group, limit)
        return self.next_group

    def strike(self, group, cycle, stats):
        gseq = group.gseq
        if self.look_ahead(gseq + WALK_CHUNK) != gseq:
            if self.next_group < gseq:
                raise SkippedStrikeError(
                    "rate strike in dispatched group %d skipped: the "
                    "run is dispatching group %d"
                    % (self.next_group, gseq))
            return None
        injector = self.injector
        draw = self._draw
        if draw < 0:
            # Upset in the (unprotected) PC register: all copies see
            # the same wrong PC; only PC-continuity checking catches
            # it (Section 3.4).
            group.pc ^= 1 << injector.plan_for_group_hit().bit
            stats.faults_injected += 1
        random_draw = injector._rng.random
        rate = injector._rate
        arms = []
        for copy in range(max(draw, 0), self._redundancy):
            if copy != draw and random_draw() >= rate:
                continue
            plan = injector.plan_for_copy_hit(group.inst)
            if plan is not None:
                arms.append((copy, plan.kind, plan.bit, None, None))
        self._draw = None
        self.next_group = gseq + 1
        self.look_ahead(gseq + WALK_CHUNK)
        return arms

    def describe(self):
        return ("Monte Carlo rate injector: %.6g faults/M instructions "
                "per copy, kind weights %r"
                % (self.config.rate_per_million,
                   dict(self.config.kind_weights)))


def _arm(copy, site):
    """The ROB-entry fields a copy-scope ``site`` strike sets."""
    kind = _FAULT_KINDS.get(site.structure)
    if kind is None:
        # Operand structures corrupt a source operand at issue.
        return (copy, None, 0, (site.operand, site.bit), site.structure)
    return (copy, kind, site.bit, None, site.structure)


class SiteListPolicy(InjectionPolicy):
    """Deterministic directed strikes against an explicit site list.

    Each :class:`~repro.faults.sites.FaultSite` arms independently and
    fires at the first applicable dispatch at-or-after its ``index``
    (copy-scope sites additionally wait for their ``copy``); a site
    whose cycle ``window`` closes first expires.  ``next_group`` is
    the smallest pending index.  After the run, :attr:`landed` /
    :attr:`expired` / :attr:`pending` account for every site.
    """

    name = "site_list"

    def __init__(self, sites):
        sites = tuple(sites)
        if not sites:
            raise ConfigError("site_list policy needs >= 1 fault site")
        for site in sites:
            if not isinstance(site, FaultSite):
                raise ConfigError("site_list entries must be FaultSite "
                                  "objects, got %r" % (site,))
        self.sites = sites
        self._redundancy = 1
        self.reset()

    def bind(self, redundancy):
        for site in self.sites:
            if not site.is_group_scope and site.copy >= redundancy:
                # It could never land, and its pending index would keep
                # every trial of the cell from exiting early.
                raise ConfigError(
                    "fault site %s copy %d does not exist on a machine "
                    "with redundancy %d"
                    % (site.structure, site.copy, redundancy))
        self._redundancy = redundancy

    def reset(self):
        self._group_sites = [site for site in self.sites
                             if site.is_group_scope]
        self._copy_sites = [site for site in self.sites
                            if not site.is_group_scope]
        self.landed = []
        self.expired = []
        self._settle()

    def _settle(self):
        self.next_group = min((site.index for site in self.pending),
                              default=math.inf)

    @property
    def pending(self):
        """Sites that neither landed nor expired (yet)."""
        return tuple(self._group_sites) + tuple(self._copy_sites)

    def _sweep_expired(self, sites, cycle):
        live = [site for site in sites if not site.expired(cycle)]
        if len(live) != len(sites):
            self.expired.extend(site for site in sites
                                if site.expired(cycle))
        return live

    def strike(self, group, cycle, stats):
        gseq = group.gseq
        sites = self._group_sites = self._sweep_expired(
            self._group_sites, cycle)
        for position, site in enumerate(sites):
            if gseq >= site.index and site.in_window(cycle):
                del sites[position]
                self.landed.append(site)
                # The corrupted fetch PC is what every copy carries.
                group.pc ^= 1 << site.bit
                stats.faults_injected += 1
                count_strike(stats, site.structure)
                break
        sites = self._copy_sites = self._sweep_expired(
            self._copy_sites, cycle)
        inst = group.inst
        arms = []
        for copy in range(self._redundancy):
            for position, site in enumerate(sites):
                if (gseq >= site.index and copy == site.copy
                        and site.in_window(cycle)
                        and structure_applies(site.structure, inst,
                                              site.operand)):
                    del sites[position]
                    self.landed.append(site)
                    arms.append(_arm(copy, site))
                    break
        self._settle()
        return arms

    def describe(self):
        return ("directed strikes: %d site%s (%s)"
                % (len(self.sites), "" if len(self.sites) == 1 else "s",
                   ", ".join(sorted({site.structure
                                     for site in self.sites}))))


class StructureSweepPolicy(SiteListPolicy):
    """Uniform site sampling within one structure.

    Draws ``strikes`` sites from a seeded RNG — target index uniform
    over ``[0, horizon)`` dispatched groups, copy uniform over the
    machine's redundancy (late-bound), bit uniform over the structure's
    field width, operand slot uniform for operand structures — then
    strikes exactly like a :class:`SiteListPolicy` over that sample.
    The same (structure, seed, horizon, redundancy) always sweeps the
    same sites, which is what makes sweep trials content-addressable.
    """

    name = "structure_sweep"

    def __init__(self, structure, strikes=1, horizon=1_000, seed=0):
        self.structure = text(STRUCTURES).load(structure,
                                               "structure_sweep structure")
        self.strikes = integer(1, MAX_SWEEP_STRIKES).load(
            strikes, "structure_sweep strikes")
        self.horizon = integer(1).load(horizon, "structure_sweep horizon")
        self.seed = integer().load(seed, "structure_sweep seed")
        self._redundancy = 1
        self._sample()

    def bind(self, redundancy):
        if redundancy != self._redundancy:
            self._redundancy = redundancy
            self._sample()

    def _sample(self):
        rng = random.Random(self.seed)
        width = structure_width(self.structure)
        operand_scope = self.structure in OPERAND_STRUCTURES
        self.sites = tuple(
            FaultSite(structure=self.structure,
                      index=rng.randrange(self.horizon),
                      copy=rng.randrange(self._redundancy),
                      bit=rng.randrange(width),
                      operand=rng.randrange(2) if operand_scope else 0)
            for _ in range(self.strikes))
        self.reset()

    def describe(self):
        return ("uniform sweep of %s: %d strike%s over %d dispatched "
                "groups (seed %d)"
                % (self.structure, self.strikes,
                   "" if self.strikes == 1 else "s", self.horizon,
                   self.seed))


#: Registered policies, by name (``repro-ft faults --list``).
POLICY_REGISTRY = {
    RatePolicy.name: RatePolicy,
    SiteListPolicy.name: SiteListPolicy,
    StructureSweepPolicy.name: StructureSweepPolicy,
}

#: Policies constructible from a campaign ``fault_sites`` axis cell.
SITE_POLICY_NAMES = (SiteListPolicy.name, StructureSweepPolicy.name)


def build_policy(spec, seed=0, horizon=None):
    """Construct a site policy from a plain JSON-able spec dict.

    ``spec`` is one ``fault_sites`` axis cell, e.g.::

        {"policy": "structure_sweep", "structure": "rob_entry",
         "strikes": 1}
        {"policy": "site_list",
         "sites": [{"structure": "fu_result", "index": 40, "bit": 7}]}

    ``seed`` (normally the trial's content-derived fault seed) feeds
    sampling policies; ``horizon`` supplies a default sweep horizon
    when the spec does not fix one (normally the trial's instruction
    budget).
    """
    if not isinstance(spec, dict):
        raise ConfigError("fault-site policy spec must be a dict, "
                          "got %r" % (spec,))
    kind = spec.get("policy")
    if kind == SiteListPolicy.name:
        unknown = set(spec) - {"policy", "sites"}
        if unknown:
            raise ConfigError("unknown site_list fields: %s"
                              % sorted(unknown))
        return SiteListPolicy(items(nested(FaultSite), nonempty=True)
                              .load(spec.get("sites"), "site_list sites"))
    if kind == StructureSweepPolicy.name:
        unknown = set(spec) - {"policy", "structure", "strikes",
                               "horizon", "seed"}
        if unknown:
            raise ConfigError("unknown structure_sweep fields: %s"
                              % sorted(unknown))
        sweep_horizon = spec.get("horizon")
        if sweep_horizon is None:
            sweep_horizon = horizon if horizon is not None else 1_000
        return StructureSweepPolicy(
            structure=spec.get("structure"),
            strikes=spec.get("strikes", 1),
            horizon=sweep_horizon,
            seed=spec.get("seed", seed))
    raise ConfigError(
        "unknown fault-site policy %r (choose from %s)"
        % (kind, ", ".join(SITE_POLICY_NAMES)))
