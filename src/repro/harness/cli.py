"""Command-line interface: regenerate any table or figure of the paper,
or run Monte Carlo fault-injection campaigns.

Examples::

    repro-ft table1
    repro-ft table2 --instructions 30000
    repro-ft figure3
    repro-ft figure5 --instructions 20000
    repro-ft figure6 --benchmark fpppp
    repro-ft sensitivity --benchmarks go,vpr,ammp,gcc
    repro-ft coverage
    repro-ft demo
    repro-ft campaign --workloads gcc,go --models SS-1,SS-2 \\
        --rates 0,1000,10000 --replicates 8 --workers 4 \\
        --store results.jsonl
    repro-ft campaign --spec campaign.json --workers 4 \\
        --store sqlite:results.db --resume
    repro-ft campaign --shard 0/2 --store shard:results/ ...
    repro-ft campaign --override rob64:rob_size=64 \\
        --override alu8:int_alu=8 ...
    repro-ft campaign --store results.jsonl --compact
    repro-ft campaign --sites all --replicates 16      # per-structure
    repro-ft campaign --sites rob_entry,pc --strikes 2 # sensitivity
    repro-ft campaign --adaptive 0.05 --adaptive-metric coverage \\
        --replicates 64 ...                 # stop converged cells early
    repro-ft faults --list
    repro-ft bench --quick
    repro-ft bench --out BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import sys
import time

from ..analytical.figures import (figure3_series, figure4_series,
                                  format_figure_table)
from ..core.sphere import FT_COVERAGE, coverage_table
from ..models.presets import baseline_config
from ..workloads.mix import format_mix_table
from ..workloads.profiles import BENCHMARK_ORDER
from . import experiment
from .report import (ascii_chart, format_adaptive_summary,
                     format_campaign_summary, format_campaign_table,
                     format_faults_listing, format_figure5_table,
                     format_figure6_table, format_machine_table,
                     format_sensitivity_table, format_structure_table)


def _add_common(parser):
    parser.add_argument("--instructions", type=int, default=20_000,
                        help="committed instructions per simulation")


def _cmd_table1(args):
    print("Table 1: baseline superscalar machine parameters\n")
    print(format_machine_table(baseline_config()))


def _cmd_table2(args):
    rows = experiment.table2_rows(instructions=args.instructions)
    print("Table 2: measured dynamic instruction mix "
          "(synthetic workloads)\n")
    print(format_mix_table(rows))


def _cmd_figure3(args):
    series = figure3_series()
    print(format_figure_table(series, "Figure 3: IPC vs fault frequency "
                                      "(Y = 20 cycles, IPC1 = B = 1)"))
    print()
    print(ascii_chart(
        [("R=2", "2", [(p.lam, p.ipc_r2) for p in series]),
         ("R=3 rewind", "3", [(p.lam, p.ipc_r3_rewind) for p in series]),
         ("R=3 majority", "m",
          [(p.lam, p.ipc_r3_majority) for p in series])],
        title="Figure 3 (Y=20)"))


def _cmd_figure4(args):
    series = figure4_series()
    print(format_figure_table(series, "Figure 4: IPC vs fault frequency "
                                      "(Y = 2000 cycles)"))
    print()
    print(ascii_chart(
        [("R=2", "2", [(p.lam, p.ipc_r2) for p in series]),
         ("R=3 rewind", "3", [(p.lam, p.ipc_r3_rewind) for p in series]),
         ("R=3 majority", "m",
          [(p.lam, p.ipc_r3_majority) for p in series])],
        title="Figure 4 (Y=2000)"))


def _cmd_figure5(args):
    benchmarks = args.benchmarks.split(",") if args.benchmarks \
        else BENCHMARK_ORDER
    rows = experiment.figure5_rows(benchmarks=benchmarks,
                                   instructions=args.instructions)
    print("Figure 5: steady-state IPC comparison\n")
    print(format_figure5_table(rows))


def _cmd_figure6(args):
    points = experiment.figure6_points(benchmark=args.benchmark,
                                       instructions=args.instructions)
    print("Figure 6: IPC vs fault frequency for %s\n" % args.benchmark)
    print(format_figure6_table(points))
    print()
    print(ascii_chart(
        [("R=2", "2", [(max(p.rate_per_million, 1.0),
                        p.results["R=2"].ipc) for p in points]),
         ("R=3 majority", "3", [(max(p.rate_per_million, 1.0),
                                 p.results["R=3"].ipc)
                                for p in points])],
        title="Figure 6 (%s)" % args.benchmark))


def _cmd_sensitivity(args):
    benchmarks = args.benchmarks.split(",") if args.benchmarks \
        else BENCHMARK_ORDER
    rows = experiment.sensitivity_rows(benchmarks=benchmarks,
                                       instructions=args.instructions)
    print("Section 5.2: FU / RUU sensitivity of the SS-1 baseline\n")
    print(format_sensitivity_table(rows))


def _cmd_coverage(args):
    print("Sphere-of-replication coverage audit (Section 3.4)\n")
    print(coverage_table(FT_COVERAGE))


def _cmd_demo(args):
    from ..core.faults import FaultConfig
    from ..models.presets import ss1, ss2
    from ..workloads.generator import build_workload
    program = build_workload("gcc")
    print("Demo: gcc-like workload, %d instructions\n"
          % args.instructions)
    for model in (ss1(), ss2()):
        result = experiment.run_on_model(
            program, model, max_instructions=args.instructions)
        print("%-9s IPC %.3f" % (model.name, result.ipc))
    faulty = experiment.run_on_model(
        program, ss2(), max_instructions=args.instructions,
        fault_config=FaultConfig(rate_per_million=500.0))
    print("%-9s IPC %.3f with faults: %d injected, %d detected, "
          "%d rewinds" % ("SS-2+f", faulty.ipc, faulty.faults_injected,
                          faulty.faults_detected, faulty.rewinds))


#: The campaign parser's --rates default (swapped for 0 by --sites).
_DEFAULT_RATES = "0,1000,10000"


def _parse_override_value(text):
    """CLI override value: int, then float, then bool, else string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def _parse_overrides(flags):
    """``--override [name:]key=value[,key=value...]`` flags to an axis.

    Each flag instance becomes one ``machine_overrides`` grid cell;
    the name defaults to the key=value spec itself, and an empty body
    (``--override base:``) is the unmodified machine.
    """
    axis = {}
    for flag in flags:
        name, colon, body = flag.partition(":")
        if not colon or "=" in name:
            name, body = flag, flag
        overrides = {}
        for pair in body.split(",") if body else ():
            key, equals, value = pair.partition("=")
            if not equals or not key:
                raise ValueError(
                    "--override expects [name:]key=value[,key=value...]"
                    ", got %r" % flag)
            overrides[key.strip()] = _parse_override_value(value.strip())
        if name in axis:
            raise ValueError("duplicate --override name %r" % name)
        axis[name] = overrides
    return axis


def _parse_sites(text, strikes):
    """``--sites STRUCT[,STRUCT...]|all`` to a ``fault_sites`` axis.

    Each structure becomes one :class:`StructureSweepPolicy` grid cell
    (``strikes`` uniform strikes per trial, targets drawn from each
    trial's content-derived seed).
    """
    from ..faults.sites import STRUCTURES
    names = STRUCTURES if text == "all" \
        else tuple(name.strip() for name in text.split(","))
    for name in names:
        if name not in STRUCTURES:
            raise ValueError(
                "--sites: unknown structure %r (choose from %s or "
                "'all')" % (name, ", ".join(STRUCTURES)))
    return experiment.structure_sweep_cells(names, strikes=strikes)


def _parse_shard(text):
    """``--shard I/N`` to an (index, total) pair."""
    index, slash, total = text.partition("/")
    if not slash:
        raise ValueError("--shard expects INDEX/TOTAL (e.g. 0/4), "
                         "got %r" % text)
    try:
        return int(index), int(total)
    except ValueError:
        raise ValueError("--shard expects integers INDEX/TOTAL, got %r"
                         % text)


def _sampling_plan_from_args(args):
    """The ``--adaptive*`` flags as a SamplingPlan (None when absent)."""
    if args.adaptive is None:
        return None
    from ..campaign import SamplingPlan
    return SamplingPlan.wilson(args.adaptive,
                               metric=args.adaptive_metric,
                               min_replicates=args.adaptive_min,
                               max_replicates=args.adaptive_max)


def _campaign_spec_from_args(args):
    from ..campaign import CampaignSpec
    from ..core.faults import get_kind_mix
    overrides = _parse_overrides(args.override or [])
    sites = _parse_sites(args.sites, args.strikes) if args.sites else {}
    if args.spec:
        spec = CampaignSpec.from_json_file(args.spec)
        if sites:
            if spec.fault_sites:
                raise ValueError(
                    "--sites conflicts with the fault_sites axis "
                    "already defined by --spec %s" % args.spec)
            from dataclasses import replace
            spec = replace(spec, fault_sites=sites)
        if overrides:
            # --override ADDS grid cells to a spec file's axis; a name
            # collision is ambiguous (replace or keep?) so it's refused.
            duplicated = sorted(set(spec.machine_overrides)
                                & set(overrides))
            if duplicated:
                raise ValueError(
                    "--override name(s) %s already defined by --spec %s"
                    % (", ".join(duplicated), args.spec))
            merged = dict(spec.machine_overrides)
            merged.update(overrides)
            from dataclasses import replace
            spec = replace(spec, machine_overrides=merged)
    else:
        mixes = {name: get_kind_mix(name)
                 for name in args.mixes.split(",")}
        if args.rates is None:
            # Site strikes replace the rate injector; an absent --rates
            # must not make a --sites spec self-contradict.
            rates = (0.0,) if sites else tuple(
                float(rate) for rate in _DEFAULT_RATES.split(","))
        else:
            rates = tuple(float(rate) for rate in args.rates.split(","))
        spec = CampaignSpec(
            name=args.name,
            workloads=tuple(args.workloads.split(",")),
            models=tuple(args.models.split(",")),
            rates_per_million=rates,
            mixes=mixes,
            machine_overrides=overrides,
            fault_sites=sites,
            replicates=args.replicates,
            instructions=args.instructions,
            warmup=args.warmup,
            base_seed=args.seed)
    if args.shard:
        index, total = _parse_shard(args.shard)
        spec = spec.shard(index, total)
    return spec


def _cmd_campaign_compact(store):
    kept, dropped = store.compact()
    print("compacted %s: kept %d record%s, dropped %d stale/torn "
          "entr%s" % (store.path, kept, "" if kept == 1 else "s",
                      dropped, "y" if dropped == 1 else "ies"))


def _cmd_campaign(args):
    import json as _json
    from ..campaign import (TRIAL_FINISHED, CampaignSession,
                            ExecutionOptions, cells_to_json, open_store)
    from ..errors import ConfigError
    if args.resume and not args.store:
        raise SystemExit("repro-ft campaign: --resume requires --store")
    try:
        store = open_store(args.store)
    except ValueError as exc:
        raise SystemExit("repro-ft campaign: %s" % exc)
    if args.compact:
        if store is None:
            raise SystemExit("repro-ft campaign: --compact requires "
                             "--store")
        _cmd_campaign_compact(store)
        return
    try:
        spec = _campaign_spec_from_args(args)
        options = ExecutionOptions(
            workers=args.workers,
            sampling=_sampling_plan_from_args(args))
        session = CampaignSession(spec, options=options, store=store)
    except (ConfigError, ValueError, TypeError, OSError) as exc:
        raise SystemExit("repro-ft campaign: %s" % exc)
    if not args.quiet:
        # Progress goes to stderr so `--json > out.json` (and any
        # other stdout consumer) stays parseable mid-run.
        @session.subscribe
        def progress(event):
            if event.kind == TRIAL_FINISHED:
                print("  [%d/%d] %s %s"
                      % (event.done, event.total, event.record["key"],
                         event.record["outcome"]), file=sys.stderr)
    start = time.monotonic()
    try:
        result = session.resume() if args.resume else session.run()
    except ConfigError as exc:
        raise SystemExit("repro-ft campaign: %s" % exc)
    elapsed = time.monotonic() - start
    cells = session.aggregate()
    structures = session.aggregate_structures() \
        if getattr(session.spec, "fault_sites", None) else None
    adaptive = result.adaptive
    if args.json:
        # One payload; the plain cells array when neither extra block
        # applies, byte-compatible with pre-adaptive output.
        if structures is None and adaptive is None:
            print(cells_to_json(cells))
            return
        payload = {"cells": [cell.as_dict() for cell in cells]}
        if structures is not None:
            payload["structures"] = [row.as_dict() for row in structures]
        if adaptive is not None:
            payload["adaptive"] = adaptive.as_dict()
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return
    print(format_campaign_summary(result, elapsed=elapsed))
    if store is not None:
        print("store: %s (%d records)" % (store.path, len(result.records)))
    print()
    print(format_campaign_table(cells))
    if structures is not None:
        print()
        print("Per-structure fault sensitivity (struck trials)")
        print(format_structure_table(structures))
    if adaptive is not None:
        print()
        print(format_adaptive_summary(adaptive))


def _cmd_faults(args):
    from ..core.faults import KIND_MIX_PRESETS
    from ..faults import (POLICY_REGISTRY, STRUCTURES,
                          STRUCTURE_DESCRIPTIONS, STRUCTURE_WIDTHS)
    # --list is the only action (and the default): an inventory of the
    # addressable fault model, replacing grepping KIND_MIX_PRESETS.
    policies = {
        name: (cls.__doc__ or "").strip().splitlines()[0]
        for name, cls in POLICY_REGISTRY.items()}
    print(format_faults_listing(STRUCTURES, STRUCTURE_WIDTHS,
                                STRUCTURE_DESCRIPTIONS,
                                KIND_MIX_PRESETS, policies))


def _diff_config_from_args(args):
    from ..perf import DiffConfig
    return DiffConfig(alpha=args.alpha, min_effect=args.min_effect)


def _cmd_bench_diff(args):
    """``bench --diff A B``: compare two history entries; exit 1 when
    a gate metric (throughput, or the speedup ratio cross-host) is
    statistically DEGRADED."""
    import json as _json

    from ..perf import (BenchHistory, diff_refs, format_diff_report)
    history = BenchHistory.load(args.out)
    diff = diff_refs(history, args.diff[0], args.diff[1],
                     _diff_config_from_args(args))
    if args.json:
        print(_json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_diff_report(diff))
    return 0 if diff.ok else 1


def _cmd_bench_check(args):
    """``bench --check``: the CI gate — latest entry vs its best
    comparable baseline; exit 1 on a significant regression."""
    import json as _json

    from ..perf import (BenchHistory, check_history,
                        format_diff_report)
    history = BenchHistory.load(args.out)
    diff = check_history(history, _diff_config_from_args(args))
    if diff is None:
        message = ("bench check: %d entr%s in %s — nothing to "
                   "regress against, pass"
                   % (len(history),
                      "y" if len(history) == 1 else "ies", args.out))
        if args.json:
            print(_json.dumps({"check": None, "ok": True,
                               "note": message}, indent=2,
                              sort_keys=True))
        else:
            print(message)
        return 0
    if args.json:
        print(_json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_diff_report(diff))
        print()
        print("bench check: %s" % ("OK" if diff.ok
                                   else "FAILED — significant "
                                        "performance regression"))
    return 0 if diff.ok else 1


def _cmd_bench_history(args):
    """``bench --history``: the whole-history degradation report."""
    import json as _json

    from ..perf import (BenchHistory, format_history_report,
                        history_report)
    history = BenchHistory.load(args.out)
    config = _diff_config_from_args(args)
    if args.json:
        print(_json.dumps(history_report(history, config), indent=2,
                          sort_keys=True))
    else:
        print(format_history_report(history, config))
    return 0


def _cmd_bench(args):
    from ..errors import HistoryError
    from .bench import BenchDivergence, format_bench_summary, run_bench
    modes = [name for name, active in
             (("--diff", args.diff is not None),
              ("--check", args.check),
              ("--history", args.history)) if active]
    if len(modes) > 1:
        raise SystemExit("repro-ft bench: %s are mutually exclusive"
                         % " and ".join(modes))
    try:
        if args.diff is not None:
            return _cmd_bench_diff(args)
        if args.check:
            return _cmd_bench_check(args)
        if args.history:
            return _cmd_bench_history(args)
    except HistoryError as exc:
        raise SystemExit("repro-ft bench: %s" % exc)
    try:
        payload = run_bench(quick=args.quick, out=args.out,
                            workers=args.workers, note=args.note,
                            repeats=args.repeats)
    except BenchDivergence as exc:
        raise SystemExit("repro-ft bench: DIVERGENCE: %s" % exc)
    except HistoryError as exc:
        raise SystemExit("repro-ft bench: %s" % exc)
    if args.json:
        import json as _json
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_bench_summary(payload))
        if args.out:
            print("\nwritten: %s" % args.out)


def _cmd_serve(args):
    from ..service.server import run_serve
    return run_serve(args)


def _cmd_chaos(args):
    from ..resilience.chaos import run_chaos
    return run_chaos(args)


def _cmd_load(args):
    from ..service.loadgen import run_load
    return run_load(args)


def _cmd_lint(args):
    from ..lint.cli import run_lint_cli
    return run_lint_cli(args)


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "sensitivity": _cmd_sensitivity,
    "coverage": _cmd_coverage,
    "demo": _cmd_demo,
    "campaign": _cmd_campaign,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "load": _cmd_load,
    "chaos": _cmd_chaos,
    "lint": _cmd_lint,
}


def _add_serve_args(sub):
    sub.add_argument("--data-dir", required=True,
                     help="service state directory (jobs, stores, "
                          "event logs, service.json)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address")
    sub.add_argument("--port", type=int, default=0,
                     help="bind port (0 = ephemeral; the binding is "
                          "written to DATA_DIR/service.json)")
    sub.add_argument("--slots", type=int, default=2,
                     help="worker slots shared by all tenants")
    sub.add_argument("--tenant", action="append", default=[],
                     metavar="NAME[:WEIGHT[:MAX_RUNNING[:MAX_QUEUED]]]",
                     help="pre-register a tenant with a fair-share "
                          "weight and job quotas (repeatable; unknown "
                          "tenants auto-register with weight 1)")
    sub.add_argument("--poll-interval", type=float, default=None,
                     help="store/SSE poll interval in seconds "
                          "(default 0.05)")
    sub.add_argument("--drain-timeout", type=float, default=60.0,
                     help="seconds to wait for in-flight trials on "
                          "SIGTERM before exiting anyway")
    sub.add_argument("--trial-timeout", type=float, default=None,
                     help="per-trial wall-clock deadline for pooled "
                          "jobs; expired trials SIGKILL their worker "
                          "and re-run (default: no deadline)")


def _add_load_args(sub):
    sub.add_argument("--url", default="",
                     help="service base URL (e.g. "
                          "http://127.0.0.1:8123)")
    sub.add_argument("--data-dir", default="",
                     help="discover the service from "
                          "DATA_DIR/service.json instead of --url")
    sub.add_argument("--workload", action="append", default=[],
                     required=True,
                     metavar="TENANT:KIND:...",
                     help="one tenant's arrival schedule: "
                          "tenant:static:<jobs>, "
                          "tenant:dynamic:<jobs>:<rate-per-s> or "
                          "tenant:trace:<path>[:<time-scale>] "
                          "(repeatable)")
    sub.add_argument("--spec-file", default="",
                     help="JSON CampaignSpec every generated job "
                          "submits (default: a tiny built-in spec)")
    sub.add_argument("--tolerance", type=float, default=0.35,
                     help="allowed shortfall from the weighted "
                          "max-min slot share before the fairness "
                          "check fails")
    sub.add_argument("--verify", action="store_true",
                     help="re-run every spec in-process and require "
                          "byte-identical records from the service")
    sub.add_argument("--no-sse", action="store_true",
                     help="skip sampling each tenant's SSE stream")
    sub.add_argument("--timeout", type=float, default=60.0,
                     help="per-request HTTP timeout in seconds")
    sub.add_argument("--json", action="store_true",
                     help="print the full report as JSON")


def _add_bench_args(sub):
    sub.add_argument("--quick", action="store_true",
                     help="small grids for CI smoke runs")
    sub.add_argument("--out", default="BENCH_simulator.json",
                     help="bench history JSON path ('' disables the "
                          "file); --diff/--check/--history read it")
    sub.add_argument("--workers", type=int, default=1,
                     help="campaign process-pool width for both paths")
    sub.add_argument("--repeats", type=int, default=None, metavar="N",
                     help="campaign-path timing repeats per side; "
                          "every repeat's wall time is recorded as a "
                          "sample for --diff (default: 3, or 1 with "
                          "--quick)")
    sub.add_argument("--note", default="",
                     help="free-form label recorded with the entry")
    # Performance-version-system modes (repro.perf): read the history
    # at --out instead of running the bench.
    sub.add_argument("--diff", nargs=2, default=None,
                     metavar=("A", "B"),
                     help="compare two history entries (indices, "
                          "'latest'/'HEAD' or 'HEAD~N') with a seeded "
                          "permutation test; exit 1 when a gate "
                          "metric is DEGRADED")
    sub.add_argument("--check", action="store_true",
                     help="gate on the latest entry vs its best "
                          "comparable baseline: exit 1 on a "
                          "statistically significant regression")
    sub.add_argument("--history", action="store_true",
                     help="render the degradation report over the "
                          "whole bench history")
    sub.add_argument("--alpha", type=float, default=0.05,
                     help="two-sided significance level for "
                          "--diff/--check/--history (default 0.05)")
    sub.add_argument("--min-effect", type=float, default=0.05,
                     help="minimum |relative change| before a "
                          "significant difference counts (default "
                          "0.05 = 5%%)")
    sub.add_argument("--json", action="store_true",
                     help="print the full payload as JSON")


def _add_campaign_args(sub):
    sub.set_defaults(instructions=2_000)   # campaigns trade depth for n
    sub.add_argument("--name", default="campaign",
                     help="campaign name (part of every trial key)")
    sub.add_argument("--spec", default="",
                     help="JSON file with a CampaignSpec (overrides the "
                          "grid flags)")
    sub.add_argument("--workloads", default="gcc",
                     help="comma-separated benchmark names")
    sub.add_argument("--models", default="SS-2",
                     help="comma-separated machine models")
    # default=None distinguishes "not given" (swapped for 0 by --sites)
    # from an explicitly typed default (refused with --sites like any
    # other nonzero rate).
    sub.add_argument("--rates", default=None,
                     help="comma-separated fault rates (faults/M "
                          "instr); default %s" % _DEFAULT_RATES)
    sub.add_argument("--mixes", default="default",
                     help="comma-separated kind-mix preset names")
    sub.add_argument("--replicates", type=int, default=8,
                     help="seed replicates per grid cell")
    sub.add_argument("--warmup", type=int, default=0,
                     help="warmup instructions before the window")
    sub.add_argument("--seed", type=int, default=2001,
                     help="campaign base seed (folded into trial keys)")
    sub.add_argument("--override", action="append", default=[],
                     metavar="[NAME:]KEY=VALUE[,KEY=VALUE...]",
                     help="add a machine_overrides grid cell deriving "
                          "every model's MachineConfig (repeatable)")
    sub.add_argument("--sites", default="",
                     metavar="STRUCT[,STRUCT...]|all",
                     help="per-structure sensitivity sweep: one "
                          "fault_sites grid cell per named structure "
                          "(see 'repro-ft faults --list'); forces "
                          "rate 0 unless --rates is set explicitly")
    sub.add_argument("--strikes", type=int, default=1,
                     help="uniform strikes per trial for --sites cells")
    sub.add_argument("--workers", type=int, default=1,
                     help="process-pool width per session "
                          "(1 = in-process serial)")
    sub.add_argument("--json", action="store_true",
                     help="print the aggregate as JSON instead of a "
                          "table")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-trial progress lines")
    sub.add_argument("--adaptive", type=float, default=None,
                     metavar="HALFWIDTH",
                     help="adaptive sampling: stop each grid cell once "
                          "its Wilson 95%% interval half-width reaches "
                          "this target, spending the freed replicates "
                          "on the widest open cells")
    sub.add_argument("--adaptive-metric", default="coverage",
                     choices=("coverage", "sdc_rate"),
                     help="the proportion the half-width target "
                          "applies to (default: coverage)")
    sub.add_argument("--adaptive-min", type=int, default=4,
                     metavar="N",
                     help="observations before a cell may converge")
    sub.add_argument("--adaptive-max", type=int, default=None,
                     metavar="N",
                     help="hard per-cell budget below the spec's "
                          "replicate count (records then diverge from "
                          "the fixed plan)")
    sub.add_argument("--store", default="",
                     help="result store URL: PATH.jsonl, sqlite:FILE "
                          "or shard:[N:]DIR (enables --resume)")
    sub.add_argument("--shard", default="",
                     help="run only partition I/N of the trial "
                          "keyspace (e.g. --shard 0/4)")
    sub.add_argument("--compact", action="store_true",
                     help="compact --store (drop torn tails and stale "
                          "duplicate keys) and exit")
    sub.add_argument("--resume", action="store_true",
                     help="skip trials already completed in --store")


def _add_chaos_args(sub):
    sub.add_argument("--dir", required=True,
                     help="scratch directory for the chaos run's "
                          "stores/state")
    sub.add_argument("--seed", type=int, default=0,
                     help="fault-schedule seed (op kinds and times "
                          "are deterministic per seed)")
    sub.add_argument("--kills", type=int, default=1,
                     help="scheduled worker SIGKILLs")
    sub.add_argument("--stalls", type=int, default=1,
                     help="scheduled worker SIGSTOPs (hangs the "
                          "per-trial deadline must detect)")
    sub.add_argument("--jobs", type=int, default=2,
                     help="jobs to submit")
    sub.add_argument("--slots", type=int, default=2,
                     help="shared pool slots")
    sub.add_argument("--trial-timeout", type=float, default=3.0,
                     help="per-trial deadline")
    sub.add_argument("--spec", default="",
                     help="JSON CampaignSpec to run under chaos "
                          "(default: a small built-in grid)")
    sub.add_argument("--json", action="store_true",
                     help="print the full report as JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-ft",
        description="Regenerate tables and figures from 'Dual Use of "
                    "Superscalar Datapath for Transient-Fault Detection "
                    "and Recovery' (MICRO 2001).")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        _add_common(sub)
        if name in ("figure5", "sensitivity"):
            sub.add_argument("--benchmarks", default="",
                             help="comma-separated benchmark names")
        if name == "figure6":
            sub.add_argument("--benchmark", default="fpppp")
        if name == "campaign":
            _add_campaign_args(sub)
        if name == "faults":
            sub.add_argument("--list", action="store_true",
                             help="list structures, kind-mix presets "
                                  "and registered policies (default)")
        if name == "bench":
            _add_bench_args(sub)
        if name == "serve":
            _add_serve_args(sub)
        if name == "load":
            _add_load_args(sub)
        if name == "chaos":
            _add_chaos_args(sub)
        if name == "lint":
            from ..lint.cli import add_lint_args
            add_lint_args(sub)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
