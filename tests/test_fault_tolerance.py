"""End-to-end fault-tolerance tests: detection, recovery, coverage.

These are the paper's core claims, exercised mechanically:

* with R >= 2, every injected transient fault is either masked (struck a
  dead value) or detected, and recovery restores architecturally correct
  execution — verified by lockstep comparison against the golden model;
* with R = 1 (protection off), the same faults silently corrupt state.
"""

import pytest

from repro.core.config import (DUAL_REDUNDANT, TRIPLE_MAJORITY,
                               TRIPLE_REWIND)
from repro.core.faults import FaultConfig
from repro.faults.policy import RatePolicy
from repro.functional.checker import compare_states
from repro.functional.simulator import run_functional
from repro.uarch.config import MachineConfig
from repro.uarch.processor import simulate
from repro.workloads.microbench import (dot_product, fibonacci,
                                        vector_sum)

R3_CONFIG = MachineConfig(rob_size=126)


def _faults(rate, seed=17, kinds=None):
    kwargs = {"rate_per_million": rate, "seed": seed}
    if kinds is not None:
        kwargs["kind_weights"] = kinds
    return RatePolicy(FaultConfig(**kwargs))


class TestDetectionAndRecovery:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_r2_recovers_exactly(self, seed):
        program = vector_sum(length=128)
        golden = run_functional(program)
        processor = simulate(program, ft=DUAL_REDUNDANT,
                             policy=_faults(3000, seed),
                             lockstep=True)
        assert processor.halted
        assert compare_states(processor.arch, golden.state).clean
        assert processor.stats.faults_detected >= 1

    @pytest.mark.parametrize("kind", ["value", "address", "branch"])
    def test_each_fault_kind_detected(self, kind):
        program = dot_product(length=64)
        golden = run_functional(program)
        processor = simulate(program, ft=DUAL_REDUNDANT,
                             policy=_faults(4000, seed=9,
                                            kinds={kind: 1.0}),
                             lockstep=True)
        assert compare_states(processor.arch, golden.state).clean
        assert processor.stats.faults_injected >= 1
        assert processor.stats.rewinds >= 1

    def test_pc_fault_caught_by_continuity_check(self):
        program = fibonacci(n=400)
        golden = run_functional(program)
        processor = simulate(program, ft=DUAL_REDUNDANT,
                             policy=_faults(3000, seed=23,
                                            kinds={"pc": 1.0}),
                             lockstep=True)
        assert compare_states(processor.arch, golden.state).clean
        assert processor.stats.pc_continuity_violations >= 1

    def test_recovery_penalty_is_tens_of_cycles(self):
        """The paper's Section 5.3: observed recovery cost ~30 cycles."""
        program = vector_sum(length=512)
        processor = simulate(program, ft=DUAL_REDUNDANT,
                             policy=_faults(2000, seed=4))
        assert processor.stats.rewinds >= 2
        assert 3 <= processor.stats.avg_recovery_penalty <= 120

    def test_throughput_barely_drops_at_low_rates(self):
        program = vector_sum(length=512)
        clean = simulate(program, ft=DUAL_REDUNDANT)
        faulty = simulate(program, ft=DUAL_REDUNDANT,
                          policy=_faults(100, seed=2))
        assert faulty.stats.ipc >= 0.95 * clean.stats.ipc


class TestUnprotectedCorruption:
    def test_r1_corrupts_silently(self):
        """The negative control: without redundancy faults slip through."""
        program = vector_sum(length=128)
        golden = run_functional(program)
        corrupted = 0
        for seed in range(6):
            processor = simulate(program,
                                 policy=_faults(4000, seed=seed))
            if not compare_states(processor.arch, golden.state).clean:
                corrupted += 1
        assert corrupted >= 3  # most seeds corrupt the final state

    def test_r1_counts_silent_commits(self):
        program = vector_sum(length=128)
        processor = simulate(program, policy=_faults(5000, seed=1))
        assert processor.stats.silent_commits >= 1
        assert processor.stats.faults_detected == 0


class TestTripleRedundancy:
    def test_majority_commits_through_single_faults(self):
        program = vector_sum(length=128)
        golden = run_functional(program)
        processor = simulate(program, config=R3_CONFIG,
                             ft=TRIPLE_MAJORITY,
                             policy=_faults(3000, seed=8),
                             lockstep=True)
        assert compare_states(processor.arch, golden.state).clean
        assert processor.stats.majority_commits >= 1
        # Majority election avoids most rewinds at this rate.
        assert processor.stats.rewinds <= processor.stats.majority_commits

    def test_rewind_only_r3_still_recovers(self):
        program = vector_sum(length=128)
        golden = run_functional(program)
        processor = simulate(program, config=R3_CONFIG, ft=TRIPLE_REWIND,
                             policy=_faults(3000, seed=8),
                             lockstep=True)
        assert compare_states(processor.arch, golden.state).clean
        assert processor.stats.majority_commits == 0
        assert processor.stats.rewinds >= 1

    def test_majority_faster_than_rewind_at_extreme_rates(self):
        program = vector_sum(length=256)
        rate = 200_000  # absurd: ~0.2 faults per instruction per copy
        majority = simulate(program, config=R3_CONFIG,
                            ft=TRIPLE_MAJORITY,
                            policy=_faults(rate, seed=3))
        rewind = simulate(program, config=R3_CONFIG, ft=TRIPLE_REWIND,
                          policy=_faults(rate, seed=3))
        assert majority.stats.ipc > rewind.stats.ipc


class TestDetectionAccounting:
    def test_detections_track_injections(self):
        program = vector_sum(length=256)
        processor = simulate(program, ft=DUAL_REDUNDANT,
                             policy=_faults(3000, seed=12))
        stats = processor.stats
        # Every detection stems from a fault; wrong-path faults may be
        # squashed before detection, so injected >= detected-ish bounds.
        assert stats.faults_detected >= 1
        assert stats.faults_detected <= stats.faults_injected + \
            stats.pc_continuity_violations
