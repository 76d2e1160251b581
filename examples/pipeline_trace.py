#!/usr/bin/env python3
"""Watch redundant execution flow through the pipeline.

Attaches a tracer to a 2-way redundant run of a small program and
prints the per-instruction lifecycle: fetch, dispatch, the two copies'
issue/completion cycles (note the distinct functional units chosen by
Section-3.5 co-scheduling), and commit.  Then injects one fault and
shows the rewind in the trace.

Run:  python examples/pipeline_trace.py
"""

from repro import FaultConfig, Processor, RatePolicy, ss2
from repro.uarch.trace import PipelineTracer
from repro.workloads import dot_product


def main():
    program = dot_product(length=12)

    processor = Processor(program, config=ss2().config, ft=ss2().ft)
    tracer = PipelineTracer()
    processor.attach_tracer(tracer)
    processor.run()
    print("Fault-free 2-way redundant execution "
          "(issue/done columns show copy0/copy1):\n")
    print(tracer.format_table(last=24))
    print()
    print("average fetch-to-commit latency: %.1f cycles"
          % tracer.average_commit_latency())
    mults = [record for record in tracer.records if "fmul" in record.text]
    distinct = sum(1 for record in mults
                   if record.fu_units[0] != record.fu_units[1])
    print("fmul copies on distinct physical units: %d/%d "
          "(Section 3.5 co-scheduling)" % (distinct, len(mults)))

    print()
    print("Same program with one injected fault:\n")
    processor = Processor(program, config=ss2().config, ft=ss2().ft,
                          policy=RatePolicy(FaultConfig(
                              rate_per_million=9000, seed=123)))
    tracer = PipelineTracer()
    processor.attach_tracer(tracer)
    processor.run()
    print(tracer.format_table(last=12))
    print()
    print("rewinds: %d   faults detected: %d   final IPC %.3f"
          % (processor.stats.rewinds, processor.stats.faults_detected,
             processor.stats.ipc))


if __name__ == "__main__":
    main()
