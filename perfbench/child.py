"""One pass of a serial workload, in a fresh process.

Usage: ``python3 perfbench/child.py CONFIG.json``.  The config names the
source tree, the campaign spec, the JSONL store path, whether to trace
and where to write the report.  The pass runs the spec through a serial
``CampaignSession`` with default ``ExecutionOptions``, aggregates the
records, and writes timings, the records digest and (when traced) the
per-layer metrics to the report file.
"""

import json
import os
import resource
import sys
import time


class SetupDone(Exception):
    """Raised from the listener to end a setup-only pass."""


def main(config_path):
    with open(config_path) as handle:
        config = json.load(handle)
    sys.path.insert(0, config["src"])
    from repro.campaign import (TRIAL_STARTED, CampaignSession,
                                CampaignSpec, ExecutionOptions, JSONLStore)
    from oracle import records_digest

    tracer = None
    if config["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    spec = CampaignSpec.from_dict(config["spec"])
    session = CampaignSession(spec, options=ExecutionOptions(),
                              store=JSONLStore(config["store"]))
    clock = time.perf_counter
    marks = {}

    def listener(event):
        if event.kind == TRIAL_STARTED and not marks:
            marks["first"] = clock()
            marks["first_wall"] = time.time()
            if config["setup_only"]:
                raise SetupDone()

    session.subscribe(listener)
    begin = clock()
    try:
        result = session.run()
    except SetupDone:
        write_report(config, {"first_trial_wall": marks["first_wall"]})
        return
    if spec.fault_sites:
        session.aggregate_structures()
    else:
        session.aggregate()
    end = clock()
    report = {
        "first_trial_wall": marks["first_wall"],
        "wall_s": end - marks["first"],
        "trials": len(result.records),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": records_digest(result.records),
    }
    if tracer is not None:
        report["layers"], report["accounting"] = \
            tracer.layer_metrics(end - begin)
        tracer.write(config["spans"])
    write_report(config, report)


def write_report(config, report):
    tmp = config["report"] + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(report, handle)
    os.replace(tmp, config["report"])


if __name__ == "__main__":
    main(sys.argv[1])
