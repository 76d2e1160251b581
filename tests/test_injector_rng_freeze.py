"""The injector RNG contract, frozen.

Trial keys, records, the silent-trial shortcut and checkpoint restores
all assume the rate injector consumes its RNG in one exact order: per
group, one ``pc``-rate draw (when the mix gives ``pc`` weight), then
one rate draw per redundant copy, with kind/bit draws only on a hit.
:class:`~repro.faults.policy.RatePolicy` walks the rate draws ahead of
dispatch and makes a hit's kind/bit draws when its group dispatches;
the stream must not notice.  ``tests/data/golden_injector_draws.json``
records the full plan sequence of a fixed (seed, rate, workload) walk
as generated by the pre-refactor injector; any refactor that shifts
the stream — reordering draws, consuming extra randomness, changing
the kind-fit rules — fails here before it can silently invalidate
every stored campaign.
"""

import json
import os
import types

import pytest

from repro.core.faults import (FaultConfig, FaultInjector, FaultPlan,
                               check_mix_applicability)
from repro.errors import ConfigError
from repro.faults.policy import RatePolicy
from repro.isa.builder import ProgramBuilder
from repro.uarch.stats import PipelineStats
from repro.workloads.generator import build_workload

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "golden_injector_draws.json")


def _fixture_insts(golden):
    """The fixture's dispatch stream: one instruction per group."""
    program = build_workload(golden["workload"])
    insts = [program.fetch(pc) for pc in
             range(program.entry, program.entry + 400)]
    return [inst for inst in insts if inst is not None] * golden["passes"]


def _walk_injector(injector, golden):
    """Replay the fixture's dispatch walk; return the plan log."""
    plans = []
    for n, inst in enumerate(_fixture_insts(golden)):
        plan = injector.plan_for_group(inst)
        if plan is not None:
            plans.append(["group", n, plan.kind, plan.bit])
        for copy in range(golden["redundancy"]):
            plan = injector.plan_for_copy(inst)
            if plan is not None:
                plans.append(["copy", n, copy, plan.kind, plan.bit])
    return plans


class TestGoldenDrawSequence:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURE) as handle:
            return json.load(handle)

    def test_plan_sequence_is_frozen(self, golden):
        injector = FaultInjector(FaultConfig(
            rate_per_million=golden["rate_per_million"],
            seed=golden["seed"]))
        plans = _walk_injector(injector, golden)
        assert plans == golden["plans"]
        assert injector.planned == golden["planned"]
        # The RNG must land in the exact same state: one more draw
        # matches the recorded continuation.
        assert injector._rng.random() == golden["tail_draw"]

    def test_rate_policy_wraps_the_same_stream(self, golden):
        """Driven through next_group/strike as the replicator drives
        it, RatePolicy makes the injector's plans, in order."""
        policy = RatePolicy(FaultConfig(
            rate_per_million=golden["rate_per_million"],
            seed=golden["seed"]))
        policy.bind(golden["redundancy"])
        policy.reset()
        stats = PipelineStats()
        plans = []
        for n, inst in enumerate(_fixture_insts(golden)):
            if n < policy.next_group:
                continue
            group = types.SimpleNamespace(gseq=n, inst=inst, pc=0)
            arms = policy.strike(group, 0, stats)
            if group.pc:
                plans.append(["group", n, "pc", group.pc.bit_length() - 1])
            for copy, kind, bit, op_fault, site in arms or ():
                assert op_fault is None and site is None
                plans.append(["copy", n, copy, kind, bit])
        assert plans == golden["plans"]
        assert policy.injector.planned == golden["planned"]
        assert stats.faults_injected == sum(
            1 for plan in golden["plans"] if plan[0] == "group")

    def test_reset_rewinds_the_stream(self, golden):
        injector = FaultInjector(FaultConfig(
            rate_per_million=golden["rate_per_million"],
            seed=golden["seed"]))
        first = _walk_injector(injector, golden)
        injector.reset()
        assert _walk_injector(injector, golden) == first


class TestFaultPlanBounds:
    def test_value_and_address_bits_are_64_wide(self):
        assert FaultPlan(kind="value", bit=63).bit == 63
        assert FaultPlan(kind="address", bit=0).bit == 0
        with pytest.raises(ConfigError):
            FaultPlan(kind="value", bit=64)
        with pytest.raises(ConfigError):
            FaultPlan(kind="address", bit=-1)

    def test_pc_bits_are_16_wide(self):
        assert FaultPlan(kind="pc", bit=15).bit == 15
        with pytest.raises(ConfigError):
            FaultPlan(kind="pc", bit=16)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(kind="cosmic", bit=0)

    def test_non_integer_bit_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(kind="value", bit=3.5)


def _nop_program():
    builder = ProgramBuilder(name="nops")
    for _ in range(4):
        builder.nop()
    builder.halt()
    return builder.build()


class TestMixApplicability:
    def test_inapplicable_mix_on_inert_program_raises(self):
        """A mix whose only sites don't exist in the program must fail
        loudly instead of silently planning nothing for the campaign."""
        program = _nop_program()
        for weights in ({"value": 1.0}, {"address": 1.0},
                        {"branch": 1.0},
                        {"value": 0.5, "address": 0.5}):
            with pytest.raises(ConfigError):
                check_mix_applicability(weights, program)

    def test_pc_weight_is_always_applicable(self):
        check_mix_applicability({"pc": 1.0}, _nop_program())
        check_mix_applicability({"value": 1.0, "pc": 0.1},
                                _nop_program())

    def test_real_workloads_pass_every_preset(self):
        from repro.core.faults import KIND_MIX_PRESETS
        program = build_workload("gcc")
        for weights in KIND_MIX_PRESETS.values():
            check_mix_applicability(weights, program)

    def test_processor_runs_the_check(self):
        from repro.faults.policy import RatePolicy
        from repro.models.presets import ss2
        from repro.uarch.processor import Processor
        model = ss2()
        config = FaultConfig(rate_per_million=1000.0,
                             kind_weights={"value": 1.0})
        with pytest.raises(ConfigError):
            Processor(_nop_program(), config=model.config, ft=model.ft,
                      policy=RatePolicy(config))
