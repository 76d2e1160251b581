"""The serial workloads: fig6-ladder and site-sweep.

A run repeats passes until ``--seconds`` have elapsed, and makes at
least two.  Each pass launches a fresh process (``child.py``) that runs
the workload's spec through a serial ``CampaignSession`` into a new
JSONL store, so every pass pays imports, spec expansion and store open,
and starts with empty in-process caches.  A traced run makes one
untraced pass, then two traced ones, then alternates.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import oracle
from tracer import DETERMINISTIC
from workloads import DEFAULT_SEED, SERIAL_SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
PASS_TIMEOUT_S = 60

#: Reference-oracle sample per run: trials that drew faults, and
#: rate trials that drew none.
ORACLE_STRUCK = 12
ORACLE_SILENT = 4
#: Largest share of a traced pass's wall time that may fall outside
#: every wrapped entry point before the run fails.
UNATTRIBUTED_CEILING = 0.05


class PassFailed(Exception):
    """A pass's process crashed or overran its timeout."""


def run_pass(ctx, spec, index, traced, setup_only=False):
    base = os.path.join(ctx.work, "pass-%s" % index)
    config = {"src": ctx.src, "spec": spec, "trace": traced,
              "setup_only": setup_only,
              "store": base + ".jsonl", "report": base + "-report.json",
              "spans": os.path.join(ctx.spans_dir, "%s-seed%d-pass%s.jsonl"
                                    % (ctx.workload, ctx.seed, index))}
    with open(base + "-config.json", "w") as handle:
        json.dump(config, handle)
    with open(base + "-stderr.txt", "w") as stderr:
        launched = time.time()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"),
             base + "-config.json"],
            cwd=ctx.root, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            code = process.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise PassFailed("pass %s overran %d s"
                             % (index, PASS_TIMEOUT_S))
    if code != 0:
        with open(base + "-stderr.txt") as handle:
            raise PassFailed("pass %s exited %d: %s"
                             % (index, code, handle.read()[-2000:]))
    with open(config["report"]) as handle:
        report = json.load(handle)
    report["setup_s"] = report["first_trial_wall"] - launched
    report["traced"] = traced
    report["store"] = config["store"]
    return report


def load_store(path, keys):
    """The store's records in spec order; ``None`` for missing keys."""
    by_key = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                by_key[record["key"]] = record
    return [by_key.get(key) for key in keys]


def run(ctx):
    from repro.campaign import CampaignSpec

    spec = SERIAL_SPECS[ctx.workload](ctx.seed)
    keys = [trial.key for trial in CampaignSpec.from_dict(spec).trials()]
    kinds = [False, True, True] if ctx.trace else [False, False]
    setups = []
    passes = []
    begin = time.perf_counter()
    while len(passes) < len(kinds) \
            or time.perf_counter() - begin < ctx.seconds:
        index = len(passes)
        traced = kinds[index] if index < len(kinds) \
            else ctx.trace and index % 2 == 0
        # A launch that stops at the first trial, between timed passes,
        # adds a setup_s sample taken at another moment of the run.
        setups.append(run_pass(ctx, spec, "setup-%d" % index, False,
                               setup_only=True)["setup_s"])
        passes.append(run_pass(ctx, spec, index, traced))

    # -- correctness, outside every timed region -------------------------
    first = load_store(passes[0]["store"], keys)
    for report in passes:
        records = load_store(report["store"], keys)
        differing = sum(1 for mine, theirs in zip(records, first)
                        if mine is None or mine != theirs)
        if differing:
            ctx.fail(differing, "pass records differ from pass 0 in %d "
                     "trials" % differing)
        if None not in records \
                and oracle.records_digest(records) != report["digest"]:
            ctx.fail(1, "store records differ from the session's")
    if None not in first:
        ctx.check_digest(oracle.records_digest(first))
    if ctx.workload == "fig6-ladder":
        sample = oracle.sample_rate_records(
            [record for record in first if record is not None],
            ctx.seed, ORACLE_STRUCK, ORACLE_SILENT)
        ctx.check_reference(sample)
    elif ctx.seed != DEFAULT_SEED:
        ctx.note("site trials have no independent oracle; checked for "
                 "identical records across %d passes" % len(passes))
    ctx.attempted = sum(report["trials"] for report in passes)

    untraced = [report for report in passes if not report["traced"]]
    traced = [report for report in passes if report["traced"]]
    if not ctx.trace:
        setups += [report["setup_s"] for report in passes]
        ctx.samples["setup launches"] = len(setups)
        ctx.samples["timed passes"] = len(passes)
        return {
            "trials_per_s": sum(report["trials"] for report in passes)
            / sum(report["wall_s"] for report in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(report["peak_rss_kb"]
                               for report in passes) / 1024.0,
        }

    ctx.samples["traced passes"] = len(traced)
    ctx.samples["untraced passes"] = len(untraced)
    layers = [report["layers"] for report in traced]
    for name in DETERMINISTIC:
        values = {layer[name] for layer in layers}
        if len(values) != 1:
            ctx.fail(1, "traced passes disagree on %s: %s"
                     % (name, sorted(values)))
    for report in traced:
        # The self times add up to the top-level spans by construction,
        # so the check is on the remainder: traced time that no wrapped
        # entry point covers.
        accounting = report["accounting"]
        share = accounting["unattributed_s"] / accounting["wall_s"]
        ctx.note("pass self times: %s + unattributed %.4f = %.4f s "
                 "traced wall (%.2f%% unattributed)"
                 % (", ".join("%s %.4f" % item for item
                              in sorted(accounting["layer_self_s"].items())),
                    accounting["unattributed_s"], accounting["wall_s"],
                    100 * share))
        if share > UNATTRIBUTED_CEILING:
            ctx.fail(1, "%.1f%% of the traced wall time is outside every "
                     "wrapped entry point (ceiling %.0f%%)"
                     % (100 * share, 100 * UNATTRIBUTED_CEILING))
    metrics = {name: layers[0][name] if name in DETERMINISTIC
               else statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(report["wall_s"] for report in traced)
        / statistics.median(report["wall_s"] for report in untraced) - 1.0)
    return metrics
