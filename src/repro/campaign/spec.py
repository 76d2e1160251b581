"""Declarative campaign specifications and their trial expansion.

A :class:`CampaignSpec` names the axes of a Monte Carlo fault-injection
study — workloads, machine models, machine-config overrides, fault
rates, kind-weight mixes and seed replicates — and expands their cross
product into individually keyed :class:`Trial` objects.  The key is a
content hash of everything that defines the trial, so

* the same spec always expands to the same trials, in the same order;
* each trial's fault seed is derived from its own key, never from the
  position it happens to run at (workers=1 and workers=N agree);
* a persisted result can be matched back to its trial after a crash,
  which is what makes campaigns resumable;
* a trial's key depends only on the trial, never on the rest of the
  grid: a spec narrowed to one value of an axis (one workload, say,
  with the same name and seed) expands to exactly the full grid's
  trials at that value, so hosts can split a grid by axis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..core.faults import DEFAULT_KIND_WEIGHTS, FaultConfig, get_kind_mix
from ..errors import ConfigError
from ..faults.policy import RatePolicy, build_policy
from ..models.presets import derive_model, get_model
from ..wire import (Wire, integer, items, mapping, naming, number,
                    optional, pair, registered, scalar, text, wire)
from ..workloads.profiles import get_profile

#: Spec-hash prefix length; 16 hex chars = 64 bits, collision-safe for
#: any campaign size this engine will see.
KEY_LENGTH = 16

#: Upper bounds on the work one spec (and so one trial) may ask for.
#: Every campaign this engine runs is far below them; they keep a
#: submitted spec from holding its tenant's slots for ever.
MAX_REPLICATES = 100_000
MAX_INSTRUCTIONS = 10_000_000
MAX_WARMUP = 10_000_000


@dataclass(frozen=True)
class Trial(Wire):
    """One fully resolved simulation: a single point of the campaign grid.

    ``kind_weights`` (and ``machine_overrides``) are sorted tuples of
    pairs so the trial stays hashable and picklable for process-pool
    workers.  ``machine``/``machine_overrides`` are only populated when
    the spec carries a ``machine_overrides`` axis; the empty defaults
    keep the keys and records of trials without that axis unchanged.

    Construction does not check the fields (``spec.trials()`` builds
    one Trial per grid point from a checked spec); :meth:`from_dict`
    does.
    """

    key: str = wire(text())
    workload: str = wire(text())
    model: str = wire(text())
    rate_per_million: float = wire(number(0))
    mix: str = wire(text())
    kind_weights: Tuple[Tuple[str, float], ...] = wire(
        items(pair(text(), number(0))))
    replicate: int = wire(integer(0, MAX_REPLICATES - 1))
    instructions: int = wire(integer(1, MAX_INSTRUCTIONS))
    warmup: int = wire(integer(0, MAX_WARMUP))
    fault_seed: int = wire(integer())
    workload_seed: int = wire(integer())
    max_cycles: Optional[int] = wire(optional(integer(1)), None, omit=True)
    machine: str = wire(text(), "", omit=True)
    machine_overrides: Tuple[Tuple[str, object], ...] = wire(
        items(pair(text(), scalar())), (), omit=True)
    #: ``fault_sites`` axis cell: the cell name and the canonical JSON
    #: of its policy spec.  Empty for rate-only campaigns, keeping all
    #: pre-axis trial keys and records byte-identical.
    sites: str = wire(text(), "", omit=True)
    site_config: str = wire(text(), "", omit=True)

    def fault_config(self) -> Optional[FaultConfig]:
        """The injector configuration for this trial (None if rate 0)."""
        if self.rate_per_million <= 0:
            return None
        return FaultConfig(rate_per_million=self.rate_per_million,
                           seed=self.fault_seed,
                           kind_weights=dict(self.kind_weights))

    def injection_policy(self):
        """This trial's injection policy, bound to its machine's
        redundancy, or ``None`` for a fault-free trial.

        A site trial's policy comes from its ``fault_sites`` cell; its
        sampling policies are seeded from the trial's content-derived
        ``fault_seed`` and default their horizon to the instruction
        budget, so the same trial always sweeps the same sites.  A rate
        trial gets a :class:`~repro.faults.policy.RatePolicy` over
        :meth:`fault_config`.
        """
        if self.sites:
            policy = build_policy(json.loads(self.site_config),
                                  seed=self.fault_seed,
                                  horizon=self.instructions + self.warmup)
        else:
            config = self.fault_config()
            if config is None:
                return None
            policy = RatePolicy(config)
        policy.bind(self.resolve_model().ft.redundancy)
        return policy

    def resolve_model(self):
        """The machine model of this trial, overrides applied."""
        if not self.machine_overrides:
            return get_model(self.model)
        return derive_model(self.model, dict(self.machine_overrides))

    def to_dict(self) -> dict:
        data = super().to_dict()
        # machine_overrides rides with machine even when empty (a
        # "base": {} cell), and site_config goes out as its dict.
        if self.machine:
            data["machine_overrides"] = [
                list(override) for override in self.machine_overrides]
        if self.sites:
            data["site_config"] = json.loads(self.site_config)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Trial":
        if isinstance(data, dict) and "site_config" in data:
            config = data["site_config"]
            if not isinstance(config, dict) or not data.get("sites"):
                raise ConfigError(
                    "site_config must be a policy object beside a sites "
                    "cell name, got %r" % (config,))
            data = dict(data, site_config=_canonical_site_config(config))
        trial = super().from_dict(data)
        if trial.sites and not trial.site_config:
            raise ConfigError("trial sites %r needs a site_config"
                              % (trial.sites,))
        return trial


def _trial_key_and_seed(material):
    """Hash the canonical trial material into (key, fault seed)."""
    blob = json.dumps(material, sort_keys=True,
                      separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).digest()
    key = digest.hex()[:KEY_LENGTH]
    # An independent slice of the digest seeds the fault injector, so
    # the seed is a pure function of the trial identity.
    seed = int.from_bytes(digest[16:24], "big") & 0x7FFFFFFF
    return key, seed


def _canonical_site_config(config):
    """Canonical JSON of one ``fault_sites`` policy spec dict.

    The canonical string both rides on the (hashable, picklable) Trial
    and feeds the key material, so a spec hashes identically however
    its JSON arrived formatted.
    """
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _canonical_override_value(value):
    """Collapse integral floats to int (64.0 -> 64) so the same logical
    override hashes — and simulates — identically whether its value
    arrived as a JSON int, a JSON float or a CLI string; the same
    reason trials() canonicalizes rates and mix weights, in the
    opposite direction because MachineConfig fields are integers."""
    if isinstance(value, float) and not isinstance(value, bool) \
            and value.is_integer():
        return int(value)
    return value


@dataclass(frozen=True)
class CampaignSpec(Wire):
    """The declarative description of one injection campaign."""

    name: str = wire(text(), "campaign")
    workloads: Tuple[str, ...] = wire(
        items(registered(get_profile), unique=True, nonempty=True),
        ("gcc",))
    models: Tuple[str, ...] = wire(
        items(registered(get_model), unique=True, nonempty=True),
        ("SS-2",))
    rates_per_million: Tuple[float, ...] = wire(
        items(number(0), unique=True, nonempty=True), (0.0, 1000.0))
    #: mix name -> kind-weight dict; names become a grid axis.
    mixes: Dict[str, dict] = wire(
        mapping(mapping(number(0)), nonempty=True),
        default_factory=lambda: {"default": dict(DEFAULT_KIND_WEIGHTS)})
    #: override name -> MachineConfig field overrides; when non-empty
    #: the names become a design-space grid axis (every model of the
    #: spec is derived once per override set — FU counts, ROB size,
    #: IFQ depth, any flat MachineConfig field).
    machine_overrides: Dict[str, dict] = wire(
        mapping(mapping(scalar())), default_factory=dict, omit=True)
    #: cell name -> fault-site policy spec (see
    #: :func:`repro.faults.policy.build_policy`); when non-empty the
    #: names become an addressable-injection grid axis and the spec's
    #: rates must all be 0 (site strikes replace the rate injector).
    fault_sites: Dict[str, dict] = wire(
        mapping(mapping()), default_factory=dict, omit=True)
    replicates: int = wire(integer(1, MAX_REPLICATES), 8)
    instructions: int = wire(integer(1, MAX_INSTRUCTIONS), 2_000)
    warmup: int = wire(integer(0, MAX_WARMUP), 0)
    base_seed: int = wire(integer(), 2001)
    workload_seed: int = wire(integer(), 1_000_003)
    max_cycles: Optional[int] = wire(optional(integer(1)), None)

    def __post_init__(self):
        self.check()
        for name, weights in self.mixes.items():
            with naming("mixes[%r]" % name):
                # Borrow FaultConfig's weight validation.
                FaultConfig(rate_per_million=1.0, kind_weights=weights)
        for name, overrides in self.machine_overrides.items():
            with naming("machine_overrides[%r]" % name):
                for model in self.models:
                    # derive_model validates field names and re-runs
                    # the MachineConfig invariants, so a bad override
                    # dies here instead of mid-campaign.
                    derive_model(model, overrides)
        if self.fault_sites and any(self.rates_per_million):
            raise ConfigError(
                "rates_per_million must all be 0 in a fault_sites "
                "campaign (site policies replace the rate injector), "
                "got %r" % (self.rates_per_million,))
        for name, config in self.fault_sites.items():
            with naming("fault_sites[%r]" % name):
                # build_policy validates the spec shape, structure
                # names, site bounds and windows, and binding checks
                # each site's copy against every model.
                policy = build_policy(
                    config, seed=0, horizon=self.instructions + self.warmup)
                for model in self.models:
                    policy.bind(get_model(model).ft.redundancy)

    @property
    def grid_size(self) -> int:
        """Number of trials the spec expands to."""
        return (len(self.workloads) * len(self.models)
                * max(1, len(self.machine_overrides))
                * len(self.rates_per_million) * len(self.mixes)
                * max(1, len(self.fault_sites))
                * self.replicates)

    def trials(self) -> Iterator[Trial]:
        """Expand the grid into Trials, in deterministic order."""
        machine_axis = self._machine_axis()
        sites_axis = self._sites_axis()
        for workload in self.workloads:
            for model in self.models:
                for machine_name, machine_pairs in machine_axis:
                    for rate in self.rates_per_million:
                        rate = float(rate)
                        for mix_name in sorted(self.mixes):
                            # Canonicalize numbers to float so the same
                            # logical spec hashes identically whether
                            # its values arrived as ints (JSON spec
                            # file) or floats (CLI flags) — otherwise
                            # resume would silently match nothing.
                            weights = tuple(sorted(
                                (kind, float(weight)) for kind, weight
                                in self.mixes[mix_name].items()))
                            for sites_name, site_config in sites_axis:
                                for replicate in range(self.replicates):
                                    yield self._make_trial(
                                        workload, model, machine_name,
                                        machine_pairs, rate, mix_name,
                                        weights, sites_name,
                                        site_config, replicate)

    def _machine_axis(self):
        """The (name, override pairs) axis; [("", ())] when absent.

        The empty sentinel keeps trial material — and therefore every
        pre-existing trial key — byte-identical for specs without the
        axis.
        """
        if not self.machine_overrides:
            return [("", ())]
        return [(name,
                 tuple(sorted((key, _canonical_override_value(value))
                              for key, value
                              in self.machine_overrides[name].items())))
                for name in sorted(self.machine_overrides)]

    def _sites_axis(self):
        """The (name, canonical policy JSON) axis; [("", "")] when
        absent — the same empty sentinel trick as the machine axis."""
        if not self.fault_sites:
            return [("", "")]
        return [(name, _canonical_site_config(self.fault_sites[name]))
                for name in sorted(self.fault_sites)]

    def _make_trial(self, workload, model, machine_name, machine_pairs,
                    rate, mix_name, weights, sites_name, site_config,
                    replicate):
        material = {
            "campaign": self.name,
            "base_seed": self.base_seed,
            "workload": workload,
            "workload_seed": self.workload_seed,
            "model": model,
            "rate_per_million": rate,
            "mix": mix_name,
            "kind_weights": list(list(pair) for pair in weights),
            "replicate": replicate,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "max_cycles": self.max_cycles,
        }
        if machine_name:
            material["machine"] = machine_name
            material["machine_overrides"] = [
                list(pair) for pair in machine_pairs]
        if sites_name:
            material["sites"] = sites_name
            material["site_config"] = site_config
        key, fault_seed = _trial_key_and_seed(material)
        return Trial(key=key, workload=workload, model=model,
                     rate_per_million=rate, mix=mix_name,
                     kind_weights=weights, replicate=replicate,
                     instructions=self.instructions, warmup=self.warmup,
                     fault_seed=fault_seed,
                     workload_seed=self.workload_seed,
                     max_cycles=self.max_cycles,
                     machine=machine_name,
                     machine_overrides=machine_pairs,
                     sites=sites_name, site_config=site_config)

    # -- serialisation -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        Mixes may be given as a dict of weight dicts or as a list of
        preset names from :data:`~repro.core.faults.KIND_MIX_PRESETS`.
        Any malformed input raises :class:`~repro.errors.ConfigError`.
        """
        mixes = data.get("mixes") if isinstance(data, dict) else None
        if isinstance(mixes, str):
            mixes = [mixes]          # single preset name
        if isinstance(mixes, (list, tuple)):
            with naming("mixes"):
                data = dict(data, mixes={name: get_kind_mix(name)
                                         for name in mixes})
        return super().from_dict(data)

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
