#!/usr/bin/env python3
"""Quickstart: the dual-use datapath in three acts.

1. Assemble a small program and run it on the baseline superscalar
   (protection off: full performance).
2. Flip the same datapath into 2-way redundant mode (SS-2) and observe
   the throughput cost of protection.
3. Inject transient faults and watch detection + rewind recovery keep
   the architectural results correct.

Run:  python examples/quickstart.py
"""

from repro import (FaultConfig, Processor, RatePolicy, assemble, ss1,
                   ss2)
from repro.functional import compare_states, run_functional

SOURCE = """
; Sum an array, then scale it: enough work for the pipeline to stretch.
.data
array:  .word 12, 7, 3, 9, 31, 5, 8, 20, 11, 4, 6, 2, 18, 27, 1, 16
.text
        addi r1, r0, 0          ; i
        addi r2, r0, 0          ; sum
        addi r3, r0, 16         ; n
sum:    lw   r4, 0(r1)
        add  r2, r2, r4
        addi r1, r1, 1
        bne  r1, r3, sum
        sw   r2, 100(r0)        ; checksum
        addi r1, r0, 0
scale:  lw   r4, 0(r1)
        slli r4, r4, 1
        sw   r4, 32(r1)
        addi r1, r1, 1
        bne  r1, r3, scale
        halt
"""


def main():
    program = assemble(SOURCE, name="quickstart")
    golden = run_functional(program)
    print("golden checksum:", golden.state.memory.peek(100))
    print()

    for model in (ss1(), ss2()):
        processor = Processor(program, config=model.config, ft=model.ft)
        stats = processor.run()
        diff = compare_states(processor.arch, golden.state)
        print("%-8s  IPC %.3f  cycles %4d  state %s"
              % (model.name, stats.ipc, stats.cycles,
                 "correct" if diff.clean else "CORRUPTED"))

    print()
    print("Now with transient faults (1 per ~500 instructions):")
    faults = FaultConfig(rate_per_million=2000.0, seed=99)
    model = ss2()
    processor = Processor(program, config=model.config, ft=model.ft,
                          policy=RatePolicy(faults))
    stats = processor.run()
    diff = compare_states(processor.arch, golden.state)
    print("%-8s  IPC %.3f  injected %d  detected %d  rewinds %d  "
          "state %s"
          % ("SS-2", stats.ipc, stats.faults_injected,
             stats.faults_detected, stats.rewinds,
             "correct" if diff.clean else "CORRUPTED"))


if __name__ == "__main__":
    main()
