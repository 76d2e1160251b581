"""The addressable fault-site model and its injection policies."""

import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SkippedStrikeError
from repro.faults import (FaultSite, InjectionPolicy, POLICY_REGISTRY,
                          RatePolicy, STRUCTURES, SiteListPolicy,
                          StructureSweepPolicy, build_policy,
                          structure_applies, structure_width)
from repro.models.presets import ss1, ss2
from repro.uarch.processor import Processor
from repro.uarch.stats import PipelineStats
from repro.workloads.generator import build_workload


def _group(gseq, inst=None, pc=100):
    """The Group fields a policy's ``strike`` reads and writes."""
    return types.SimpleNamespace(gseq=gseq, inst=inst, pc=pc)


def _insts():
    """An ALU, a memory and a control instruction from gcc."""
    program = build_workload("gcc")
    alu = next(inst for inst in program.text
               if inst.info.writes_reg and not inst.info.is_mem)
    mem = next(inst for inst in program.text if inst.info.is_mem)
    control = next(inst for inst in program.text if inst.is_control)
    return alu, mem, control


class TestFaultSite:
    def test_defaults_and_round_trip(self):
        site = FaultSite(structure="fu_result", index=40, copy=1, bit=7)
        assert FaultSite.from_dict(site.to_dict()) == site
        windowed = FaultSite(structure="pc", index=3, bit=2,
                             window=(10, 500))
        assert FaultSite.from_dict(windowed.to_dict()) == windowed

    def test_unknown_structure(self):
        with pytest.raises(ConfigError):
            FaultSite(structure="tlb_entry", bit=0)

    def test_bit_bounds_follow_structure_width(self):
        FaultSite(structure="rob_entry", bit=63)
        FaultSite(structure="pc", bit=15)
        FaultSite(structure="branch_outcome", bit=15)
        with pytest.raises(ConfigError):
            FaultSite(structure="pc", bit=16)
        with pytest.raises(ConfigError):
            FaultSite(structure="branch_outcome", bit=16)
        with pytest.raises(ConfigError):
            FaultSite(structure="fu_result", bit=64)
        with pytest.raises(ConfigError):
            FaultSite(structure="fu_result", bit=-1)

    def test_operand_and_window_validation(self):
        with pytest.raises(ConfigError):
            FaultSite(structure="rename_tag", operand=2)
        with pytest.raises(ConfigError):
            FaultSite(structure="pc", window=(5, 5))
        with pytest.raises(ConfigError):
            FaultSite(structure="pc", window=(-1, 5))
        with pytest.raises(ConfigError):
            FaultSite(structure="pc", window=(0,))

    def test_window_gates(self):
        site = FaultSite(structure="pc", window=(10, 20))
        assert not site.in_window(9)
        assert site.in_window(10)
        assert site.in_window(19)
        assert not site.in_window(20)
        assert site.expired(20)
        assert not site.expired(19)

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ConfigError):
            FaultSite.from_dict({"bit": 3})            # no structure
        with pytest.raises(ConfigError):
            FaultSite.from_dict({"structure": "pc", "depth": 1})
        with pytest.raises(ConfigError):
            FaultSite.from_dict("pc")

    def test_every_structure_has_width_and_description(self):
        from repro.faults import (STRUCTURE_DESCRIPTIONS,
                                  STRUCTURE_WIDTHS)
        assert set(STRUCTURE_WIDTHS) == set(STRUCTURES)
        assert set(STRUCTURE_DESCRIPTIONS) == set(STRUCTURES)
        for structure in STRUCTURES:
            assert structure_width(structure) in (16, 64)


class TestStructureApplies:
    @pytest.fixture(scope="class")
    def by_kind(self):
        """One instruction per interesting shape, from a real workload."""
        program = build_workload("gcc")
        found = {}
        for inst in program.text:
            info = inst.info
            if info.is_mem and "mem" not in found:
                found["mem"] = inst
            elif inst.is_control and "control" not in found:
                found["control"] = inst
            elif info.writes_reg and not info.is_mem \
                    and "alu" not in found:
                found["alu"] = inst
            elif not info.writes_reg and not inst.is_control \
                    and not info.is_mem and "inert" not in found:
                found["inert"] = inst
        return found

    def test_mem_structures(self, by_kind):
        assert structure_applies("lsq_address", by_kind["mem"])
        assert not structure_applies("lsq_address", by_kind["alu"])

    def test_control_structures(self, by_kind):
        assert structure_applies("branch_outcome", by_kind["control"])
        assert not structure_applies("branch_outcome", by_kind["alu"])

    def test_result_structures(self, by_kind):
        assert structure_applies("fu_result", by_kind["alu"])
        assert structure_applies("rob_entry", by_kind["alu"])
        if "inert" in by_kind:
            assert not structure_applies("fu_result", by_kind["inert"])

    def test_pc_always_applies(self, by_kind):
        for inst in by_kind.values():
            assert structure_applies("pc", inst)

    def test_unknown_structure_raises(self, by_kind):
        with pytest.raises(ConfigError):
            structure_applies("warp_core", by_kind["alu"])


class TestArmEntry:
    """A site strike comes back as the ROB-entry fields of its copy."""

    @staticmethod
    def arms(structure, inst, **fields):
        policy = SiteListPolicy([FaultSite(structure=structure,
                                           **fields)])
        return policy.strike(_group(0, inst), 1, PipelineStats())

    def test_result_structures_ride_fault_kind(self):
        alu, mem, control = _insts()
        assert self.arms("fu_result", alu, bit=9) \
            == [(0, "value", 9, None, "fu_result")]
        assert self.arms("rob_entry", alu, bit=3) \
            == [(0, "rob_value", 3, None, "rob_entry")]
        assert self.arms("lsq_address", mem, bit=1) \
            == [(0, "address", 1, None, "lsq_address")]
        assert self.arms("branch_outcome", control, bit=2) \
            == [(0, "branch", 2, None, "branch_outcome")]

    def test_operand_structures_ride_op_fault(self):
        alu, _, _ = _insts()
        operand = 1 if alu.info.reads_rs2 else 0
        assert self.arms("iq_entry", alu, bit=5, operand=operand) \
            == [(0, None, 0, (operand, 5), "iq_entry")]

    def test_group_scope_strike_rejected(self):
        # A pc strike is never armed on a copy: it lands on the group.
        group = _group(0, pc=100)
        stats = PipelineStats()
        policy = SiteListPolicy([FaultSite(structure="pc", bit=2)])
        assert policy.strike(group, 1, stats) == []
        assert group.pc == 100 ^ 4
        assert stats.faults_injected == 1
        assert stats.extras["site_strikes"] == {"pc": 1}


class TestSiteListPolicy:
    def test_needs_sites(self):
        with pytest.raises(ConfigError):
            SiteListPolicy([])
        with pytest.raises(ConfigError):
            SiteListPolicy([{"structure": "pc"}])      # not a FaultSite

    def test_strike_waits_for_applicable_target(self):
        alu, mem, _ = _insts()
        policy = SiteListPolicy([FaultSite(structure="lsq_address",
                                           index=5, copy=1, bit=4)])
        policy.bind(2)
        stats = PipelineStats()
        assert policy.next_group == 5
        assert policy.strike(_group(4, mem), 1, stats) == []   # early
        assert policy.strike(_group(5, alu), 1, stats) == []   # shape
        assert policy.next_group == 5                 # still waiting
        # Copy 0 of the same group is not the addressed copy.
        assert policy.strike(_group(7, mem), 1, stats) \
            == [(1, "address", 4, None, "lsq_address")]
        assert len(policy.landed) == 1 and not policy.pending
        assert policy.next_group == math.inf
        # One strike per site: it never fires twice.
        assert policy.strike(_group(8, mem), 1, stats) == []

    def test_window_expiry(self):
        alu, _, _ = _insts()
        policy = SiteListPolicy([FaultSite(structure="fu_result",
                                           index=0, copy=0, bit=1,
                                           window=(0, 10))])
        assert policy.strike(_group(0, alu), 10, PipelineStats()) == []
        assert len(policy.expired) == 1 and not policy.pending
        assert policy.next_group == math.inf

    def test_group_scope_sites_fire(self):
        policy = SiteListPolicy([FaultSite(structure="pc", index=3,
                                           bit=2)])
        stats = PipelineStats()
        assert policy.next_group == 3
        early = _group(2)
        assert policy.strike(early, 1, stats) == []
        assert early.pc == 100
        due = _group(3)
        assert policy.strike(due, 1, stats) == []
        assert due.pc == 100 ^ 4 and stats.faults_injected == 1

    def test_reset_rearms(self):
        policy = SiteListPolicy([FaultSite(structure="pc", bit=1)])
        stats = PipelineStats()
        policy.strike(_group(0), 1, stats)
        assert policy.next_group == math.inf
        policy.reset()
        assert policy.next_group == 0
        policy.strike(_group(0), 1, stats)
        assert stats.faults_injected == 2


class TestStructureSweepPolicy:
    def test_same_seed_same_sites(self):
        a = StructureSweepPolicy("rob_entry", strikes=3, horizon=500,
                                 seed=42)
        b = StructureSweepPolicy("rob_entry", strikes=3, horizon=500,
                                 seed=42)
        a.bind(2)
        b.bind(2)
        assert a.sites == b.sites
        assert all(site.structure == "rob_entry" for site in a.sites)
        assert all(0 <= site.index < 500 for site in a.sites)
        assert all(site.copy in (0, 1) for site in a.sites)

    def test_different_seed_different_sites(self):
        a = StructureSweepPolicy("rob_entry", strikes=4, horizon=500,
                                 seed=1)
        b = StructureSweepPolicy("rob_entry", strikes=4, horizon=500,
                                 seed=2)
        assert a.sites != b.sites

    def test_bind_resamples_copies_for_redundancy(self):
        policy = StructureSweepPolicy("fu_result", strikes=8,
                                      horizon=100, seed=9)
        assert all(site.copy == 0 for site in policy.sites)
        policy.bind(3)
        assert any(site.copy > 0 for site in policy.sites)

    def test_operand_structures_sample_operand_slots(self):
        policy = StructureSweepPolicy("rename_tag", strikes=16,
                                      horizon=100, seed=5)
        assert {site.operand for site in policy.sites} == {0, 1}

    def test_validation(self):
        with pytest.raises(ConfigError):
            StructureSweepPolicy("warp_core")
        with pytest.raises(ConfigError):
            StructureSweepPolicy("pc", strikes=0)
        with pytest.raises(ConfigError):
            StructureSweepPolicy("pc", horizon=0)
        for seed in ([1], True, 1.5, "7"):
            with pytest.raises(ConfigError):
                StructureSweepPolicy("pc", seed=seed)

    def test_next_group_is_the_smallest_pending_index(self):
        policy = StructureSweepPolicy("pc", strikes=3, horizon=500,
                                      seed=4)
        assert policy.next_group == min(site.index
                                        for site in policy.sites)


class TestBuildPolicyAndRegistry:
    def test_build_structure_sweep(self):
        policy = build_policy({"policy": "structure_sweep",
                               "structure": "iq_entry", "strikes": 2},
                              seed=7, horizon=300)
        assert isinstance(policy, StructureSweepPolicy)
        assert policy.seed == 7 and policy.horizon == 300

    def test_build_site_list(self):
        policy = build_policy({"policy": "site_list",
                               "sites": [{"structure": "pc", "bit": 3}]})
        assert isinstance(policy, SiteListPolicy)

    def test_build_rejects_junk(self):
        for bad in ({"policy": "nosuch"},
                    {"policy": "site_list", "sites": []},
                    {"policy": "site_list"},
                    {"policy": "structure_sweep"},
                    {"policy": "structure_sweep", "structure": "pc",
                     "surprise": 1},
                    "structure_sweep", 42):
            with pytest.raises(ConfigError):
                build_policy(bad)

    def test_registry_contents(self):
        assert set(POLICY_REGISTRY) >= {"rate", "site_list",
                                        "structure_sweep"}

    def test_every_policy_describes_itself(self):
        from repro.core.faults import FaultConfig
        policies = (RatePolicy(FaultConfig(rate_per_million=10.0)),
                    SiteListPolicy([FaultSite(structure="pc", bit=1)]),
                    StructureSweepPolicy("rob_entry", horizon=100))
        for policy in policies:
            text = policy.describe()
            assert isinstance(text, str) and text

        class Minimal(InjectionPolicy):
            name = "minimal"

            def reset(self):
                pass

            def strike(self, group, cycle, stats):
                return None

        # describe() has a working default: subclasses are not forced
        # to implement a method the harness may never call.
        assert Minimal().describe()


#: Strikes used by the engine-integration matrix: index 50 lands well
#: inside the gcc loop on every model.
_SITES = {
    "fu_result": FaultSite(structure="fu_result", index=50, copy=1,
                           bit=5),
    "rob_entry": FaultSite(structure="rob_entry", index=50, copy=1,
                           bit=5),
    "lsq_address": FaultSite(structure="lsq_address", index=50, copy=1,
                             bit=5),
    "branch_outcome": FaultSite(structure="branch_outcome", index=50,
                                copy=1, bit=5),
    "pc": FaultSite(structure="pc", index=50, bit=5),
    "rename_tag": FaultSite(structure="rename_tag", index=50, copy=1,
                            bit=5),
    "iq_entry": FaultSite(structure="iq_entry", index=50, copy=1,
                          bit=5, operand=0),
}


class TestEngineIntegration:
    @pytest.mark.parametrize("structure", sorted(_SITES))
    def test_every_structure_strikes_and_is_detected_on_ss2(
            self, structure):
        """One directed strike per structure: it applies exactly once,
        the R=2 machine detects it, and the run stays architecturally
        correct (commit cross-check or PC continuity catches it)."""
        program = build_workload("gcc")
        model = ss2()
        policy = SiteListPolicy([_SITES[structure]])
        processor = Processor(program, config=model.config, ft=model.ft,
                              policy=policy)
        processor.run(max_instructions=2_000, max_cycles=100_000)
        stats = processor.stats
        assert stats.faults_injected == 1
        assert stats.faults_detected >= 1
        assert stats.extras["site_strikes"] == {structure: 1}
        if structure == "pc":
            assert stats.pc_continuity_violations == 1

    def test_policy_must_be_an_injection_policy(self):
        program = build_workload("gcc")
        model = ss2()
        with pytest.raises(ConfigError):
            Processor(program, config=model.config, ft=model.ft,
                      policy="rate")

    def test_unprotected_machine_commits_silent_corruption(self):
        """The same rob_entry strike on SS-1: nothing detects it, the
        corrupted value (or nothing, if masked) simply commits."""
        program = build_workload("gcc")
        model = ss1()
        # copy=0: the R=1 machine has no second copy to strike.
        policy = SiteListPolicy([FaultSite(structure="rob_entry",
                                           index=50, copy=0, bit=5)])
        processor = Processor(program, config=model.config, ft=model.ft,
                              policy=policy)
        processor.run(max_instructions=2_000, max_cycles=100_000)
        stats = processor.stats
        assert stats.faults_injected == 1
        assert stats.faults_detected == 0
        assert stats.rewinds == 0
        assert stats.silent_commits == 1

    def test_rate_policy_matches_fault_config(self):
        """Processor(policy=RatePolicy(cfg)) matches the frozen
        ReferenceProcessor(fault_config=cfg): identical stats, byte for
        byte."""
        from repro.core.faults import FaultConfig
        from repro.uarch.reference import ReferenceProcessor
        program = build_workload("gcc")
        model = ss2()
        config = FaultConfig(rate_per_million=20_000.0, seed=4242)
        via_config = ReferenceProcessor(program, config=model.config,
                                        ft=model.ft, fault_config=config)
        via_config.run(max_instructions=1_500, max_cycles=100_000)
        via_policy = Processor(program, config=model.config,
                               ft=model.ft,
                               policy=RatePolicy(config))
        via_policy.run(max_instructions=1_500, max_cycles=100_000)
        assert via_config.stats.as_dict() == via_policy.stats.as_dict()

    def test_rate_strikes_carry_no_site(self):
        """Rate strikes leave ``entry.site`` unset, so rate runs (and
        their records) never gain a ``site_strikes`` ledger."""
        from repro.core.faults import FaultConfig
        program = build_workload("gcc")
        model = ss2()
        processor = Processor(
            program, config=model.config, ft=model.ft,
            policy=RatePolicy(FaultConfig(rate_per_million=20_000.0,
                                          seed=4242)))
        processor.run(max_instructions=1_500, max_cycles=100_000)
        assert processor.stats.faults_injected > 0
        assert "site_strikes" not in processor.stats.extras


class TestRateStrikeSchedule:
    def test_skipped_strike_fails_loudly(self):
        """A run that dispatches past the next hit without striking it
        (a restore past the first strike) is an error, not a record."""
        from repro.core.faults import FaultConfig
        policy = RatePolicy(FaultConfig(rate_per_million=50_000.0,
                                        seed=3))
        policy.bind(2)
        first = policy.look_ahead(10_000)
        alu, _, _ = _insts()
        with pytest.raises(SkippedStrikeError):
            policy.strike(_group(first + 1, alu), 1, PipelineStats())

    def test_zero_rate_never_strikes(self):
        from repro.core.faults import FaultConfig
        policy = RatePolicy(FaultConfig(rate_per_million=0.0))
        assert policy.look_ahead(10_000) == math.inf


#: Keys and values a fault-site spec uses, mixed into arbitrary JSON so
#: the fuzz reaches past the first shape check.
_SPEC_KEYS = st.sampled_from(
    ["policy", "sites", "structure", "strikes", "horizon", "seed",
     "index", "copy", "bit", "operand", "window"])
_SPEC_WORDS = st.sampled_from(
    ["site_list", "structure_sweep", "rate"] + list(STRUCTURES))
# Integers stay small: ``strikes`` samples that many sites eagerly.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-70, 3_000)
    | st.floats(allow_nan=True) | st.text(max_size=8) | _SPEC_WORDS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_SPEC_KEYS | st.text(max_size=6), children,
                      max_size=6),
    max_leaves=16)


class TestHostileSpecs:
    """Untrusted site specs fail only with ConfigError."""

    def test_unhashable_structure_is_a_config_error(self):
        with pytest.raises(ConfigError):
            FaultSite.from_dict({"structure": ["pc"]})
        with pytest.raises(ConfigError):
            build_policy({"policy": "site_list",
                          "sites": [{"structure": {"a": 1}}]})
        with pytest.raises(ConfigError):
            build_policy({"policy": "structure_sweep",
                          "structure": "pc", "seed": [1]})

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_fault_site_from_dict_fuzz(self, data):
        try:
            FaultSite.from_dict(data)
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_build_policy_fuzz(self, data):
        try:
            build_policy(data, seed=5, horizon=100)
        except ConfigError:
            pass
