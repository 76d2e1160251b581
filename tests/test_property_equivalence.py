"""Property-based tests: out-of-order execution is architecturally
invisible, for any program and any machine shape, at any redundancy.

Programs are generated from a terminating template (random register
initialisation, a bounded loop of random straight-line operations, a
random tail), covering integer/FP arithmetic, loads, stores and the
loop-closing branch.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DUAL_REDUNDANT, TRIPLE_REWIND
from repro.functional.checker import compare_states
from repro.functional.simulator import run_functional
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.isa.registers import fp_reg
from repro.uarch.config import MachineConfig
from repro.uarch.processor import simulate

_INT_RR = (Op.ADD, Op.SUB, Op.XOR, Op.AND, Op.OR, Op.SLT, Op.MUL,
           Op.DIV)
_INT_RI = (Op.ADDI, Op.XORI, Op.ANDI, Op.ORI, Op.SLTI)
_FP_RR = (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV)

_INT_REGS = tuple(range(1, 8))
_FP_REGS = tuple(fp_reg(i) for i in range(1, 5))


@st.composite
def _body_op(draw):
    """One random, always-safe body instruction."""
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        op = draw(st.sampled_from(_INT_RR))
        return ("rr", op, draw(st.sampled_from(_INT_REGS)),
                draw(st.sampled_from(_INT_REGS)),
                draw(st.sampled_from(_INT_REGS)))
    if choice == 1:
        op = draw(st.sampled_from(_INT_RI))
        return ("ri", op, draw(st.sampled_from(_INT_REGS)),
                draw(st.sampled_from(_INT_REGS)),
                draw(st.integers(min_value=-64, max_value=64)))
    if choice == 2:
        op = draw(st.sampled_from(_FP_RR))
        return ("fp", op, draw(st.sampled_from(_FP_REGS)),
                draw(st.sampled_from(_FP_REGS)),
                draw(st.sampled_from(_FP_REGS)))
    if choice == 3:
        return ("load", Op.LW, draw(st.sampled_from(_INT_REGS)),
                draw(st.integers(min_value=0, max_value=31)), None)
    if choice == 4:
        return ("store", Op.SW, draw(st.sampled_from(_INT_REGS)),
                draw(st.integers(min_value=0, max_value=31)), None)
    return ("cvt", Op.CVTIF, draw(st.sampled_from(_FP_REGS)),
            draw(st.sampled_from(_INT_REGS)), None)


@st.composite
def programs(draw):
    """A random, always-terminating program."""
    builder = ProgramBuilder("random")
    builder.word(*[draw(st.integers(min_value=-100, max_value=100))
                   for _ in range(32)])
    for reg in _INT_REGS:
        builder.emit(Op.ADDI, rd=reg, rs1=0,
                     imm=draw(st.integers(min_value=-50, max_value=50)))
    for reg in _FP_REGS:
        builder.emit(Op.CVTIF, rd=reg, rs1=draw(
            st.sampled_from(_INT_REGS)))
    body = draw(st.lists(_body_op(), min_size=3, max_size=20))
    iterations = draw(st.integers(min_value=1, max_value=5))
    builder.emit(Op.ADDI, rd=9, rs1=0, imm=iterations)
    builder.label("loop")
    for kind, op, a, b, c in body:
        if kind == "rr":
            builder.emit(op, rd=a, rs1=b, rs2=c)
        elif kind == "ri":
            builder.emit(op, rd=a, rs1=b, imm=c)
        elif kind == "fp":
            builder.emit(op, rd=a, rs1=b, rs2=c)
        elif kind == "load":
            builder.emit(Op.LW, rd=a, rs1=0, imm=b)
        elif kind == "store":
            builder.emit(Op.SW, rs1=0, rs2=a, imm=b)
        else:
            builder.emit(Op.CVTIF, rd=a, rs1=b)
    builder.emit(Op.ADDI, rd=9, rs1=9, imm=-1)
    builder.branch(Op.BNE, rs1=9, rs2=0, target="loop")
    builder.halt()
    return builder.build()


@st.composite
def machine_shapes(draw):
    """Random but valid machine configurations (even ROB for R=2)."""
    rob = draw(st.sampled_from([8, 16, 32, 64, 128]))
    return MachineConfig(
        fetch_width=draw(st.sampled_from([1, 2, 4, 8])),
        dispatch_width=draw(st.sampled_from([2, 4, 8])),
        issue_width=draw(st.sampled_from([2, 4, 8])),
        commit_width=draw(st.sampled_from([2, 4, 8])),
        rob_size=rob,
        lsq_size=max(4, rob // 2),
        int_alu=draw(st.sampled_from([1, 2, 4])),
        int_mult=draw(st.sampled_from([1, 2])),
        fp_add=draw(st.sampled_from([1, 2])),
        fp_mult=1,
        mem_ports=draw(st.sampled_from([1, 2])),
        ifq_size=draw(st.sampled_from([2, 8, 16])))


_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(programs())
def test_baseline_equivalence(program):
    golden = run_functional(program, max_instructions=200_000)
    processor = simulate(program, lockstep=True, max_cycles=400_000)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean


@_SETTINGS
@given(programs())
def test_dual_redundant_equivalence(program):
    golden = run_functional(program, max_instructions=200_000)
    processor = simulate(program, ft=DUAL_REDUNDANT, lockstep=True,
                         max_cycles=400_000)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean


@_SETTINGS
@given(programs(), machine_shapes())
def test_equivalence_across_machine_shapes(program, config):
    golden = run_functional(program, max_instructions=200_000)
    processor = simulate(program, config=config, lockstep=True,
                         max_cycles=600_000)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean


@_SETTINGS
@given(programs(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_redundant_equivalence_under_faults(program, seed):
    """Detection + rewind keeps any random program correct.

    The rate is kept within the single-event-upset regime (the design's
    coverage contract): at vastly higher rates both copies of one
    conditional branch can be struck and agree on the one wrong outcome
    — see TestCoverageLimits in test_fault_tolerance.py.
    """
    from repro.core.faults import FaultConfig
    from repro.faults.policy import RatePolicy
    golden = run_functional(program, max_instructions=200_000)
    processor = simulate(
        program, ft=DUAL_REDUNDANT,
        policy=RatePolicy(FaultConfig(rate_per_million=2000, seed=seed)),
        lockstep=True, max_cycles=600_000)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean


@_SETTINGS
@given(programs())
def test_triple_redundant_equivalence(program):
    golden = run_functional(program, max_instructions=200_000)
    processor = simulate(program, config=MachineConfig(rob_size=126),
                         ft=TRIPLE_REWIND, lockstep=True,
                         max_cycles=600_000)
    assert processor.halted
    assert compare_states(processor.arch, golden.state).clean
