"""Campaign benchmark of the fault-injection simulator.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see ``workloads.py``
for what each runs and why):

* ``fig6-ladder`` and ``site-sweep`` — serial ``CampaignSession`` passes
  in fresh processes (``serial_workload.py``);
* ``service-open-loop`` — ``repro-ft serve`` driven by an open-loop
  Poisson generator (``service_workload.py``).

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric instead, measured by
wrapping each layer's public entry points (``tracer.py``).  Per-layer
metrics of a layer the workload does not run read 0.  Every run checks
its outputs (``oracle.py``) outside the timed regions; a failed check
is a failed operation and makes the run exit 1.  Timings are host
time; modelled caches start empty; the model is not validated against
hardware, so no accuracy figure is reported.
"""

import argparse
import json
import os
import shutil
import sys

import oracle
from workloads import DEFAULT_SEED, WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")


class Context:
    """One run's settings, directories and correctness ledger."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = ROOT
        self.src = os.path.join(ROOT, "src")
        base = os.path.join(ROOT, ".perfbench-work")
        self.work = os.path.join(base, "run-%d" % os.getpid())
        self.spans_dir = os.path.join(base, "spans")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        #: Sample count behind each percentile or median, by label.
        self.samples = {}

    def fail(self, operations, message):
        self.failed += operations
        self.problems.append(message)

    def note(self, message):
        self.notes.append(message)

    def check_digest(self, digest):
        self.note("records digest %s" % digest)
        if self.seed != DEFAULT_SEED:
            return
        expected = oracle.committed_digest(self.workload)
        if digest != expected:
            self.fail(1, "records digest %s != committed %s at the "
                      "default seed" % (digest, expected))

    def check_reference(self, records):
        problems = oracle.reference_mismatches(records)
        keys = {key for key, _message in problems}
        for key, message in problems:
            self.problems.append("trial %s: %s" % (key, message))
        self.failed += len(keys)
        self.note("reference oracle: %d of %d sampled trials match"
                  % (len(records) - len(keys), len(records)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    ctx = Context(args)
    if not os.path.isdir(os.path.join(ctx.src, "repro")):
        print("error: no source tree at %s; run from the root of a "
              "checkout" % ctx.src, file=sys.stderr)
        return 2
    with open(BENCHMARK_FILE) as handle:
        declared = json.load(handle)
    sys.path.insert(0, ctx.src)
    os.makedirs(ctx.work)
    os.makedirs(ctx.spans_dir, exist_ok=True)
    try:
        if ctx.workload == "service-open-loop":
            import service_workload as workload
        else:
            import serial_workload as workload
        values = workload.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    entries = declared["per_layer" if ctx.trace else "end_to_end"]
    if ctx.trace:
        for entry in entries:
            values.setdefault(entry["name"], 0)
    print("workload %s, seed %d, %s run: %s"
          % (ctx.workload, ctx.seed, "traced" if ctx.trace else "untraced",
             WHY[ctx.workload]))
    for note in ctx.notes:
        print("  " + note)
    for label, count in sorted(ctx.samples.items()):
        print("  samples: %s = %d" % (label, count))
    for entry in entries:
        print("  %-28s %14.6f %s" % (entry["name"], values[entry["name"]],
                                      entry["unit"]))
    print("  failed_frac %.6f (%d failed of %d attempted operations)"
          % (ctx.failed / ctx.attempted if ctx.attempted else 1.0,
             ctx.failed, ctx.attempted))
    for problem in ctx.problems:
        print("  FAILED: " + problem)
    correct = not ctx.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in entries},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
