"""Campaign spec expansion: grids, keys, seeds, serialisation."""

import json

import pytest

from repro.campaign import CampaignSession
from repro.campaign.spec import CampaignSpec, Trial
from repro.core.faults import KIND_MIX_PRESETS
from repro.errors import ConfigError


def small_spec(**overrides):
    kwargs = dict(workloads=("gcc", "go"), models=("SS-1", "SS-2"),
                  rates_per_million=(0.0, 1000.0), replicates=2,
                  instructions=500)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestExpansion:
    def test_grid_size_matches_trials(self):
        spec = small_spec()
        trials = list(spec.trials())
        assert spec.grid_size == 2 * 2 * 2 * 1 * 2
        assert len(trials) == spec.grid_size

    def test_keys_unique(self):
        trials = list(small_spec().trials())
        assert len({t.key for t in trials}) == len(trials)

    def test_expansion_is_deterministic(self):
        spec = small_spec()
        first = [(t.key, t.fault_seed) for t in spec.trials()]
        second = [(t.key, t.fault_seed) for t in spec.trials()]
        assert first == second

    def test_replicates_get_distinct_seeds(self):
        spec = small_spec(workloads=("gcc",), models=("SS-2",),
                          rates_per_million=(1000.0,), replicates=8)
        seeds = [t.fault_seed for t in spec.trials()]
        assert len(set(seeds)) == len(seeds)

    def test_int_and_float_specs_hash_identically(self):
        # A JSON spec file naturally carries ints where CLI flags
        # produce floats; both must expand to the same trial keys or
        # --resume silently matches nothing.
        as_int = CampaignSpec.from_dict(
            {"workloads": ["gcc"], "rates_per_million": [0, 3000],
             "mixes": {"m": {"value": 1}}})
        as_float = CampaignSpec.from_dict(
            {"workloads": ["gcc"], "rates_per_million": [0.0, 3000.0],
             "mixes": {"m": {"value": 1.0}}})
        assert [t.key for t in as_int.trials()] \
            == [t.key for t in as_float.trials()]

    def test_max_cycles_changes_keys(self):
        # max_cycles changes timeout classification, so records from a
        # different cycle budget must not satisfy --resume.
        default = {t.key for t in small_spec().trials()}
        bounded = {t.key for t in small_spec(max_cycles=10_000).trials()}
        assert default.isdisjoint(bounded)

    def test_base_seed_changes_keys(self):
        keys_a = {t.key for t in small_spec(base_seed=1).trials()}
        keys_b = {t.key for t in small_spec(base_seed=2).trials()}
        assert keys_a.isdisjoint(keys_b)

    def test_seed_is_function_of_trial_not_order(self):
        spec = small_spec()
        by_key = {t.key: t.fault_seed for t in spec.trials()}
        # A narrower spec covering a subset of the same grid points
        # must derive identical seeds for the shared trials.
        narrow = small_spec(workloads=("go",), models=("SS-2",))
        for trial in narrow.trials():
            assert by_key[trial.key] == trial.fault_seed

    def test_split_by_axis_covers_the_grid_once(self):
        # The multi-host recipe: one workload per host, same name and
        # seed, runs exactly the full grid's trials between them.
        full = [t.to_dict() for t in small_spec().trials()]
        hosts = [[t.to_dict() for t in
                  small_spec(workloads=(workload,)).trials()]
                 for workload in ("gcc", "go")]
        assert sorted(hosts[0] + hosts[1], key=lambda t: t["key"]) \
            == sorted(full, key=lambda t: t["key"])


class TestMachineOverrides:
    def axis_spec(self, **overrides):
        kwargs = dict(machine_overrides={"base": {},
                                         "rob64": {"rob_size": 64},
                                         "alu8": {"int_alu": 8}})
        kwargs.update(overrides)
        return small_spec(**kwargs)

    def test_axis_multiplies_grid(self):
        spec = self.axis_spec()
        assert spec.grid_size == small_spec().grid_size * 3
        trials = list(spec.trials())
        assert len(trials) == spec.grid_size
        assert len({t.key for t in trials}) == len(trials)
        assert {t.machine for t in trials} == {"base", "rob64", "alu8"}

    def test_empty_override_cell_record_keeps_its_overrides(self):
        # A "base": {} cell (sensitivity_campaign_spec has one) keeps
        # "machine_overrides": [] beside its machine name in records.
        spec = small_spec(workloads=("gcc",), models=("SS-2",),
                          rates_per_million=(0.0,), replicates=1,
                          instructions=200,
                          machine_overrides={"base": {}})
        record = CampaignSession(spec).run().records[0]
        assert record["trial"]["machine"] == "base"
        assert record["trial"]["machine_overrides"] == []

    def test_absent_axis_keeps_trials_bare(self):
        # No machine_overrides: trial keys, dicts and spec dicts stay
        # byte-identical to the pre-axis schema.
        trial = next(small_spec().trials())
        assert trial.machine == ""
        assert trial.machine_overrides == ()
        assert "machine" not in trial.to_dict()
        assert "machine_overrides" not in small_spec().to_dict()

    def test_axis_changes_keys(self):
        bare = {t.key for t in small_spec().trials()}
        with_axis = {t.key for t in
                     small_spec(machine_overrides={"base": {}}).trials()}
        assert bare.isdisjoint(with_axis)

    def test_spec_round_trip_with_axis(self):
        spec = self.axis_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert [t.key for t in clone.trials()] \
            == [t.key for t in spec.trials()]

    def test_trial_round_trip_with_axis(self):
        trial = next(self.axis_spec().trials())
        clone = Trial.from_dict(trial.to_dict())
        assert clone == trial

    def test_integral_float_override_values_hash_identically(self):
        # A JSON spec file spelling rob_size as 64.0 must expand to the
        # same trial keys (and the same applied config) as the CLI's
        # int 64 — otherwise --resume across the two spellings silently
        # matches nothing.
        as_int = small_spec(machine_overrides={"r": {"rob_size": 64}})
        as_float = small_spec(
            machine_overrides={"r": {"rob_size": 64.0}})
        assert [t.key for t in as_int.trials()] \
            == [t.key for t in as_float.trials()]
        trial = next(as_float.trials())
        assert trial.machine_overrides == (("rob_size", 64),)
        assert trial.resolve_model().config.rob_size == 64

    def test_resolve_model_applies_overrides(self):
        spec = small_spec(models=("SS-2",),
                          machine_overrides={"rob64": {"rob_size": 64}})
        trial = next(spec.trials())
        assert trial.resolve_model().config.rob_size == 64

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(machine_overrides={"bad": {"rob_szie": 64}})

    def test_invalid_override_value_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(machine_overrides={"bad": {"rob_size": 0}})

    def test_non_scalar_override_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(machine_overrides={"bad": {"rob_size": [64]}})

    def test_bad_axis_shapes_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(machine_overrides={"": {}})
        with pytest.raises(ConfigError):
            small_spec(machine_overrides={"bad": "rob_size=64"})
        with pytest.raises(ConfigError):
            small_spec(machine_overrides=["rob64"])


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="nosuch"):
            small_spec(workloads=("nosuch",))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="SS-9"):
            small_spec(models=("SS-9",))

    def test_bad_replicates_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(replicates=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(rates_per_million=(-1.0,))

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(mixes={"broken": {"value": 0.0}})

    def test_non_numeric_spec_fields_rejected(self):
        # Spec files are arbitrary JSON: bad types must die as clean
        # ConfigErrors at construction, not TypeErrors mid-expansion.
        with pytest.raises(ConfigError):
            small_spec(rates_per_million=("0", "1000"))
        with pytest.raises(ConfigError):
            small_spec(replicates=2.5)
        with pytest.raises(ConfigError):
            small_spec(instructions="many")
        with pytest.raises(ConfigError):
            small_spec(max_cycles="lots")
        with pytest.raises(ConfigError):
            small_spec(mixes={"m": {"value": "heavy"}})

    def test_duplicate_axis_values_rejected(self):
        # Duplicates would double-count trials and fake tighter CIs.
        with pytest.raises(ConfigError):
            small_spec(rates_per_million=(0.0, 1000.0, 1000.0))
        with pytest.raises(ConfigError):
            small_spec(workloads=("gcc", "gcc"))
        with pytest.raises(ConfigError):
            # int/float aliases of the same rate are still duplicates.
            small_spec(rates_per_million=(0, 0.0))


class TestSerialisation:
    def test_spec_round_trip(self):
        spec = small_spec()
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert [t.key for t in clone.trials()] \
            == [t.key for t in spec.trials()]

    def test_mixes_as_preset_names(self):
        spec = CampaignSpec.from_dict(
            {"workloads": ["gcc"], "mixes": ["default", "value-only"]})
        assert spec.mixes["value-only"] \
            == KIND_MIX_PRESETS["value-only"]
        assert len(list(spec.trials())) == spec.grid_size

    def test_mixes_as_single_string(self):
        # The natural spec-file mistake "mixes": "default" resolves to
        # the one preset instead of an AttributeError traceback.
        spec = CampaignSpec.from_dict(
            {"workloads": ["gcc"], "mixes": "value-only"})
        assert list(spec.mixes) == ["value-only"]

    def test_mixes_bad_type_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict({"mixes": 42})
        with pytest.raises(ConfigError):
            small_spec(mixes={"m": "not-a-dict"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict({"bogus": 1})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"name": "filetest", "workloads": ["gcc"],
             "models": ["SS-2"], "rates_per_million": [0.0],
             "replicates": 3, "instructions": 400}))
        spec = CampaignSpec.from_json_file(str(path))
        assert spec.name == "filetest"
        assert spec.grid_size == 3

    def test_trial_round_trip(self):
        trial = next(iter(small_spec().trials()))
        clone = Trial.from_dict(trial.to_dict())
        assert clone == trial

    def test_trial_fault_config(self):
        spec = small_spec(workloads=("gcc",), models=("SS-2",),
                          rates_per_million=(0.0, 500.0), replicates=1)
        clean, faulty = spec.trials()
        assert clean.fault_config() is None
        config = faulty.fault_config()
        assert config.rate_per_million == 500.0
        assert config.seed == faulty.fault_seed
