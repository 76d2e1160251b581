"""Coverage-limit tests: what R-way redundancy can and cannot catch.

The paper's coverage argument (Sections 3.4/3.5) is about *single-event
upsets*: one strike corrupts one redundant copy, which the commit
cross-check exposes.  Correlated multi-copy strikes are explicitly
outside the contract ("a transient failure mechanism may affect the
space redundant hardware identically, again making errors
indiscernible").  These tests pin that boundary down mechanically.
"""

from repro.core.config import (DUAL_REDUNDANT, TRIPLE_MAJORITY,
                               TRIPLE_REWIND, FTConfig)
from repro.core.detection import CommitChecker
from repro.core.faults import FaultConfig
from repro.faults.policy import RatePolicy
from repro.core.rob import Group, RobEntry
from repro.faults.policy import SiteListPolicy
from repro.faults.sites import FaultSite
from repro.functional.checker import compare_states
from repro.functional.simulator import run_functional
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.uarch.config import MachineConfig
from repro.uarch.processor import simulate
from repro.workloads.microbench import vector_sum


def _group(values, ft_checker):
    inst = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
    group = Group(0, pc=10, inst=inst, pred_npc=11)
    for copy, value in enumerate(values):
        entry = RobEntry(copy, copy, group, copy)
        entry.value = value
        entry.next_pc = 11
        group.copies.append(entry)
    return ft_checker.check(group)


class TestIdenticalDoubleStrike:
    def test_r2_cannot_see_identical_corruption(self):
        """Both copies corrupted identically: the check must pass —
        that is the documented coverage limit of duplex systems."""
        checker = CommitChecker(DUAL_REDUNDANT)
        result = _group([99, 99], checker)  # both wrong, identically
        assert result.ok  # indistinguishable from a correct result

    def test_r3_rewind_sees_two_of_three(self):
        """Rewind-only R=3 detects it: the third copy disagrees."""
        checker = CommitChecker(TRIPLE_REWIND)
        result = _group([99, 99, 5], checker)
        assert not result.ok and not result.majority

    def test_r3_majority_is_fooled_by_identical_pair(self):
        """2-of-3 majority election *elects the corrupted pair* — the
        trade-off behind the paper's configurable acceptance threshold."""
        checker = CommitChecker(TRIPLE_MAJORITY)
        result = _group([99, 99, 5], checker)
        assert result.majority
        assert result.agree_count == 2  # the corrupted pair won

    def test_unanimous_threshold_refuses_the_pair(self):
        """Threshold 3 (unanimity) turns the election back into rewind."""
        strict = FTConfig(redundancy=3, majority_election=True,
                          acceptance_threshold=3)
        checker = CommitChecker(strict)
        result = _group([99, 99, 5], checker)
        assert not result.ok and not result.majority


class TestCrashSemantics:
    def test_unprotected_machine_can_crash(self):
        """R=1 + a PC-register upset teleports committed control flow
        off the program; the engine reports a crash instead of hanging."""
        program = vector_sum(length=256)
        crashed = 0
        for seed in range(12):
            processor = simulate(
                program,
                policy=RatePolicy(FaultConfig(rate_per_million=60_000,
                                              seed=seed,
                                              kind_weights={"pc": 1.0})))
            if processor.stats.crashed:
                crashed += 1
        assert crashed >= 1

    def test_protected_machine_never_crashes(self):
        """The same fault storm on SS-2 always ends in a clean halt:
        the committed next-PC continuity check catches every PC upset."""
        program = vector_sum(length=256)
        golden = run_functional(program)
        for seed in range(12):
            processor = simulate(
                program, ft=DUAL_REDUNDANT,
                policy=RatePolicy(FaultConfig(rate_per_million=60_000,
                                              seed=seed,
                                              kind_weights={"pc": 1.0})))
            assert not processor.stats.crashed
            assert processor.halted
            assert compare_states(processor.arch, golden.state).clean


class TestTripleRewindSurvivesDoubleStrikes:
    def test_r3_rewind_catches_what_r2_misses(self):
        """At rates where R=2 occasionally commits identical double
        strikes, rewind-only R=3 still ends architecturally clean (any
        single surviving copy exposes the disagreement)."""
        program = vector_sum(length=256)
        golden = run_functional(program)
        config = MachineConfig(rob_size=126)
        for seed in range(6):
            processor = simulate(
                program, config=config, ft=TRIPLE_REWIND,
                policy=RatePolicy(FaultConfig(rate_per_million=30_000,
                                              seed=seed)))
            assert compare_states(processor.arch, golden.state).clean, \
                seed


class TestSharedMemoryAccess:
    """A load makes one cache access, with copy 0's address, and
    store-to-load forwarding hands copy 0's store data to every copy
    (``core/sphere.py``'s load/store queue row).  So a strike on copy
    0's address reaches all copies of the consumers identically."""

    @staticmethod
    def run(ft, copy, config=None):
        program = vector_sum(length=64)
        site = FaultSite("lsq_address", index=20, copy=copy, bit=3)
        processor = simulate(program, config=config, ft=ft,
                             policy=SiteListPolicy([site]))
        assert processor.stats.faults_injected == 1
        clean = compare_states(processor.arch,
                               run_functional(program).state).clean
        return processor.stats, clean

    def test_majority_commits_a_copy0_address_strike_as_sdc(self):
        # The struck load's own address is out-voted, but every copy
        # already consumed the value loaded from copy 0's address.
        stats, clean = self.run(TRIPLE_MAJORITY, 0,
                                MachineConfig(rob_size=126))
        assert stats.majority_commits == 1 and stats.rewinds == 0
        assert not clean

    def test_majority_corrects_a_copy1_address_strike(self):
        stats, clean = self.run(TRIPLE_MAJORITY, 1,
                                MachineConfig(rob_size=126))
        assert stats.majority_commits == 1 and stats.rewinds == 0
        assert clean

    def test_dual_redundancy_rewinds_a_copy0_address_strike(self):
        stats, clean = self.run(DUAL_REDUNDANT, 0)
        assert stats.rewinds == 1
        assert clean
