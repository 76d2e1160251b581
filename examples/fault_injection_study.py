#!/usr/bin/env python3
"""Fault-injection study: why detection matters, what recovery costs.

Sweeps the transient-fault rate on a gcc-like workload and reports, for
each machine mode:

* SS-1 (unprotected): faults silently corrupt committed state — the
  run's final state diverges from the golden model;
* SS-2 (2-way redundant): every fault is detected at commit and repaired
  by rewind; the final state always matches the golden model, at a small
  and nearly rate-independent throughput cost (the paper's Section 5.3
  result).

Run:  python examples/fault_injection_study.py
"""

from repro import FaultConfig, Processor, RatePolicy, ss1, ss2
from repro.functional import compare_states, run_functional
from repro.workloads import build_workload

RATES_PER_MILLION = (0.0, 100.0, 1000.0, 5000.0, 20000.0)
ITERATIONS = 60  # finite run so the golden model can replay it exactly


def run_one(program, model, rate, seed):
    policy = None
    if rate > 0:
        policy = RatePolicy(FaultConfig(rate_per_million=rate, seed=seed))
    processor = Processor(program, config=model.config, ft=model.ft,
                          policy=policy)
    stats = processor.run()
    return processor, stats


def main():
    program = build_workload("gcc", iterations=ITERATIONS)
    golden = run_functional(program, max_instructions=5_000_000)
    print("workload: gcc-like, %d instructions committed"
          % golden.instret)
    print()
    header = ("%11s | %-9s %6s %8s %8s %8s %10s"
              % ("faults/M", "machine", "IPC", "injected", "detected",
                 "rewinds", "final state"))
    print(header)
    print("-" * len(header))
    for rate in RATES_PER_MILLION:
        for model in (ss1(), ss2()):
            processor, stats = run_one(program, model, rate, seed=7)
            diff = compare_states(processor.arch, golden.state)
            if stats.crashed:
                verdict = "CRASHED"
            elif diff.clean:
                verdict = "correct"
            else:
                verdict = "CORRUPTED"
            print("%11.0f | %-9s %6.3f %8d %8d %8d %10s"
                  % (rate, model.name, stats.ipc, stats.faults_injected,
                     stats.faults_detected, stats.rewinds, verdict))
        print()
    print("Note how SS-2's IPC barely moves with the fault rate: "
          "rewind recovery costs tens of cycles per fault, which is "
          "negligible even at absurd rates (Section 4.2 / Figure 6).")
    print()
    print("At the absurd top rate, SS-2 can end CORRUPTED too: with "
          "~2% of copies struck, occasionally BOTH copies of one "
          "conditional branch are hit, and a conditional has only one "
          "wrong outcome, so the corrupt copies agree.  Dual-modular "
          "redundancy detects single-event upsets by design "
          "(Section 3.5 discusses exactly this correlated-fault "
          "limit); that is what R=3 buys extra confidence against.")


if __name__ == "__main__":
    main()
