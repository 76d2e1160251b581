"""Property: the early exit never changes a record byte.

A struck run that re-converges with its cell's fault-free twin stops
at the match and finishes its record by arithmetic
(:mod:`repro.campaign.checkpoint`).  Over generated programs, machines
with R in {1, 2, 3}, a one-site list or a rate policy, and the plain,
warmup and tight-``max_cycles`` protocols, that record must equal the
straight ``run_windowed`` record of the same trial, byte for byte.
Under warmup, half the site examples strike just before the warmup
crossing, where the struck run's commit overshoot may differ from the
twin's.

Generated programs commit about 50-150 instructions, so the digest
marks are placed every few instructions here instead of every 100: the
property must exercise real splices, and it asserts that at least 5%
of its examples did.
"""

import json
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import checkpoint, outcome
from repro.campaign.checkpoint import FaultFreeTwin
from repro.core.faults import FaultConfig
from repro.faults.policy import RatePolicy, SiteListPolicy
from repro.faults.sites import (OPERAND_STRUCTURES, STRUCTURES,
                                FaultSite, structure_width)
from repro.harness.experiment import run_windowed
from repro.uarch.processor import Processor
from test_property_equivalence import programs
from test_snapshot_properties import redundant_machines

_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MAX_CYCLES = 600_000


def record_line(result):
    return json.dumps(result.to_record(), sort_keys=True)


def early_exit_record(trial, program, config, ft, make_policy):
    """``trial`` the way a campaign runs it: the cell's twin first,
    then the struck run against the twin's rungs and marks."""
    twin = outcome._run_twin(trial, Processor(program, config=config,
                                              ft=ft))
    policy = make_policy()
    first_strike = policy.look_ahead(twin.groups)
    if first_strike >= twin.groups:
        return record_line(twin.result)
    processor = Processor(program, config=config, ft=ft, policy=policy)
    return record_line(outcome._finish_checkpointed(
        trial, processor, first_strike, twin)[0])


def test_early_exit_record_equals_straight_record(monkeypatch):
    monkeypatch.setattr(checkpoint, "DIGEST_INTERVAL", 2)
    splices = []
    real = FaultFreeTwin.splice

    def counting(twin, mark, processor):
        splices.append(mark)
        return real(twin, mark, processor)
    monkeypatch.setattr(FaultFreeTwin, "splice", counting)
    spliced = []

    @_SETTINGS
    @given(programs(), redundant_machines(),
           st.sampled_from(("site", "rate")),
           st.sampled_from(("plain", "warmup", "tight")), st.data())
    def check(program, machine, family, protocol, data):
        config, ft = machine
        probe = Processor(program, config=config, ft=ft)
        probe.run(max_cycles=_MAX_CYCLES)
        assert probe.halted
        total = probe.stats.instructions
        groups = probe.stats.dispatched_groups
        warmup = 0
        # In the first third, leaving the fault room to wash out before
        # the run ends.
        strikes = (0, groups // 3)
        if protocol == "warmup":
            warmup = data.draw(st.integers(min_value=1,
                                           max_value=total // 2))
            if family == "site" and data.draw(st.booleans()):
                # Just before the warmup crossing: a struck run may
                # cross it with another commit overshoot than the twin
                # and so head for another final count.
                crossing = Processor(program, config=config, ft=ft)
                crossing.run(max_instructions=warmup,
                             max_cycles=_MAX_CYCLES)
                warm_groups = crossing.stats.dispatched_groups
                strikes = (max(0, warm_groups - 6), warm_groups)
        instructions = data.draw(st.integers(
            min_value=max(1, total // 2 - warmup),
            max_value=total + 3 - warmup))
        max_cycles = None
        if protocol == "tight":
            # Around the twin's own end: some shifted struck ends fit
            # the budget, others must simulate on to their timeout.
            clean = Processor(program, config=config, ft=ft)
            end = run_windowed(clean, instructions, warmup,
                               _MAX_CYCLES)[0].cycles
            max_cycles = data.draw(st.integers(min_value=end - 5,
                                               max_value=end + 30))

        if family == "site":
            structure = data.draw(st.sampled_from(STRUCTURES))
            site = FaultSite(
                structure=structure,
                index=data.draw(st.integers(min_value=strikes[0],
                                            max_value=strikes[1])),
                copy=data.draw(st.integers(
                    min_value=0, max_value=ft.redundancy - 1)),
                bit=data.draw(st.integers(
                    min_value=0,
                    max_value=structure_width(structure) - 1)),
                operand=data.draw(st.integers(min_value=0, max_value=1))
                if structure in OPERAND_STRUCTURES else 0)

            def make_policy():
                policy = SiteListPolicy([site])
                policy.bind(ft.redundancy)
                return policy
        else:
            hits = data.draw(st.floats(min_value=0.3, max_value=1.2))
            rate = min(5e4, 1e6 * hits / (groups * (ft.redundancy + 1)))
            seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))

            def make_policy():
                policy = RatePolicy(FaultConfig(rate_per_million=rate,
                                                seed=seed))
                policy.bind(ft.redundancy)
                return policy

        trial = types.SimpleNamespace(
            instructions=instructions, warmup=warmup,
            max_cycles=max_cycles,
            to_dict=lambda: {"key": "generated-%s-%s" % (family,
                                                         protocol)})
        straight = record_line(outcome.finish_trial(
            trial, Processor(program, config=config, ft=ft,
                             policy=make_policy()))[0])
        before = len(splices)
        assert early_exit_record(trial, program, config, ft,
                                 make_policy) == straight
        spliced.append(len(splices) > before)

    check()
    # Not vacuous: a share of the examples stopped early.  Generated
    # programs are short and their windows large, so many runs end
    # before their fault washes out; over 100 examples the share
    # ranged from 9% to 67% across 64 seeds.
    assert sum(spliced) >= len(spliced) // 20, (sum(spliced),
                                                len(spliced))


@pytest.mark.parametrize("interval", [1, 3])
def test_marks_every_few_instructions_match_straight_runs(monkeypatch,
                                                          interval):
    # The same contract with a mark after almost every commit group,
    # on one fixed workload cell.
    from test_checkpoint_equivalence import (record_lines,
                                             site_sweep_spec,
                                             straight_lines)
    monkeypatch.setattr(checkpoint, "DIGEST_INTERVAL", interval)
    spec = site_sweep_spec(instructions=250, replicates=1)
    assert record_lines(spec) == straight_lines(spec)
