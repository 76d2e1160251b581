"""Plain-text report formatting: tables and ASCII charts.

Everything the paper shows as a figure can be rendered as an ASCII chart
(series over a log-x axis) so the benchmark harness works in a terminal
with no plotting dependencies.
"""

from __future__ import annotations

import math


def format_figure5_table(rows):
    """Figure-5 style table: per-benchmark IPC of the three machines."""
    header = ("%-8s %8s %10s %8s %12s" % ("bench", "SS-1", "Static-2",
                                          "SS-2", "SS-2 penalty"))
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("%-8s %8.3f %10.3f %8.3f %11.1f%%"
                     % (row.benchmark, row.ipc("SS-1"),
                        row.ipc("Static-2"), row.ipc("SS-2"),
                        100.0 * row.ss2_penalty))
    average = sum(row.ss2_penalty for row in rows) / len(rows)
    lines.append("-" * len(header))
    lines.append("%-8s %38s %11.1f%%" % ("average", "", 100.0 * average))
    return "\n".join(lines)


def format_figure6_table(points):
    """Figure-6 style table: IPC vs fault frequency for both designs."""
    header = ("%14s %10s %10s %10s %10s"
              % ("faults/Minstr", "IPC R=2", "IPC R=3", "rewinds R2",
                 "maj. R3"))
    lines = [header, "-" * len(header)]
    for point in points:
        r2 = point.results["R=2"]
        r3 = point.results["R=3"]
        lines.append("%14.0f %10.3f %10.3f %10d %10d"
                     % (point.rate_per_million, r2.ipc, r3.ipc,
                        r2.rewinds, r3.majority_commits))
    return "\n".join(lines)


def format_sensitivity_table(rows):
    """Section-5.2 sensitivity study table with limiter classification."""
    header = ("%-8s %7s | %7s %7s %7s | %7s %7s %7s | %s"
              % ("bench", "base", "fu.5x", "fu2x", "fuInf", "ruu.5x",
                 "ruu2x", "ruuInf", "classification"))
    lines = [header, "-" * len(header)]
    for row in rows:
        tags = []
        if row.fu_limited:
            tags.append("FU-limited")
        if row.ruu_limited:
            tags.append("RUU-limited")
        if row.ilp_limited:
            tags.append("ILP-limited")
        lines.append("%-8s %7.3f | %7.3f %7.3f %7.3f | %7.3f %7.3f "
                     "%7.3f | %s"
                     % (row.benchmark, row.base_ipc,
                        row.fu_ipc["0.5x"], row.fu_ipc["2x"],
                        row.fu_ipc["inf"], row.ruu_ipc["0.5x"],
                        row.ruu_ipc["2x"], row.ruu_ipc["inf"],
                        ", ".join(tags)))
    return "\n".join(lines)


def format_campaign_table(cells):
    """Per-cell campaign aggregate with Wilson confidence intervals.

    One row per (workload, model, machine override, rate, mix) grid
    cell: trial count, outcome-class counts, coverage over fault-struck
    trials and SDC rate (each with its 95% Wilson interval), mean IPC
    and the observed mean recovery penalty Y.  The machine column only
    appears when the campaign swept a ``machine_overrides`` axis.
    """
    with_machine = any(getattr(cell, "machine", "") for cell in cells)
    machine_header = "%-10s " % "machine" if with_machine else ""
    with_sites = any(getattr(cell, "sites", "") for cell in cells)
    sites_header = "%-16s " % "sites" if with_sites else ""
    header = ("%-8s %-8s %s%s%9s %-13s %4s %5s %5s %4s %4s  %-19s %-19s "
              "%6s %6s"
              % ("bench", "model", machine_header, sites_header, "flt/M",
                 "mix", "n", "mask", "d+r", "sdc", "t/o",
                 "coverage [95% CI]", "sdc rate [95% CI]", "IPC", "Y"))
    lines = [header, "-" * len(header)]
    for cell in cells:
        counts = cell.counts
        if cell.coverage is None:
            coverage = "      (no faults)  "
        else:
            low, high = cell.coverage_interval
            coverage = "%5.3f [%5.3f,%5.3f]" % (cell.coverage, low, high)
        low, high = cell.sdc_interval
        sdc = "%5.3f [%5.3f,%5.3f]" % (cell.sdc_rate, low, high)
        machine = ("%-10s " % (getattr(cell, "machine", "") or "-")
                   if with_machine else "")
        sites = ("%-16s " % (getattr(cell, "sites", "") or "-")
                 if with_sites else "")
        lines.append(
            "%-8s %-8s %s%s%9.0f %-13s %4d %5d %5d %4d %4d  %s %s %6.3f "
            "%6.1f"
            % (cell.workload, cell.model, machine, sites,
               cell.rate_per_million, cell.mix, cell.n,
               counts["masked"], counts["detected_recovered"],
               counts["sdc"], counts["timeout"], coverage, sdc,
               cell.mean_ipc, cell.mean_recovery_penalty))
    return "\n".join(lines)


def format_structure_table(rows):
    """Per-structure fault-sensitivity table with Wilson intervals.

    One row per addressable structure targeted by a fault-site
    campaign (:func:`repro.campaign.aggregate.aggregate_structures`):
    trial and applied-strike counts, then coverage, SDC rate and
    masked rate over the struck trials, each with its 95% Wilson
    interval.
    """
    header = ("%-15s %5s %6s %7s %5s %4s %4s %4s  %-19s %-19s %-19s"
              % ("structure", "n", "struck", "strikes", "mask", "d+r",
                 "sdc", "t/o", "coverage [95% CI]",
                 "sdc rate [95% CI]", "masked [95% CI]"))
    lines = [header, "-" * len(header)]

    def fmt(value, interval):
        if value is None:
            return "     (not struck)  "
        low, high = interval
        return "%5.3f [%5.3f,%5.3f]" % (value, low, high)

    for row in rows:
        # Outcome columns over struck trials only, like the rates, so
        # every row reconciles: mask + d+r + sdc + t/o == struck.
        struck = row.struck_trials
        detected = row.covered_trials - row.masked_struck
        other = struck - row.covered_trials - row.sdc_struck
        lines.append(
            "%-15s %5d %6d %7d %5d %4d %4d %4d  %s %s %s"
            % (row.structure, row.n, struck, row.strikes_applied,
               row.masked_struck, detected, row.sdc_struck, other,
               fmt(row.coverage, row.coverage_interval),
               fmt(row.sdc_rate, row.sdc_interval),
               fmt(row.masked_rate, row.masked_interval)))
    return "\n".join(lines)


def format_faults_listing(structures, widths, descriptions, presets,
                          policies):
    """The ``repro-ft faults --list`` inventory: addressable
    structures, kind-mix presets and registered injection policies."""
    lines = ["Addressable fault structures", ""]
    name_width = max(len(name) for name in structures)
    for name in structures:
        lines.append("  %-*s  %2d-bit  %s"
                     % (name_width, name, widths[name],
                        descriptions[name]))
    lines += ["", "Kind-mix presets (legacy rate injector)", ""]
    for name in sorted(presets):
        weights = presets[name]
        lines.append("  %-14s %s"
                     % (name, ", ".join("%s=%.2f" % (kind, weights[kind])
                                        for kind in sorted(weights))))
    lines += ["", "Registered injection policies", ""]
    for name in sorted(policies):
        lines.append("  %-16s %s" % (name, policies[name]))
    return "\n".join(lines)


def format_campaign_summary(result, elapsed=None):
    """One-paragraph header for a finished campaign run."""
    spec = result.spec
    counts = result.outcome_counts
    machines = len(getattr(spec, "machine_overrides", {}) or {})
    machine_axis = " x %d machines" % machines if machines else ""
    sites = len(getattr(spec, "fault_sites", {}) or {})
    sites_axis = " x %d site cells" % sites if sites else ""
    lines = [
        "campaign %r: %d trials (%d workloads x %d models%s x %d rates "
        "x %d mixes%s x %d replicates)"
        % (spec.name, len(result.records), len(spec.workloads),
           len(spec.models), machine_axis,
           len(spec.rates_per_million), len(spec.mixes), sites_axis,
           spec.replicates),
        "executed %d, resumed (skipped) %d"
        % (result.executed, result.skipped),
        "outcomes: " + ", ".join(
            "%s %d" % (name, counts[name]) for name in sorted(counts)),
    ]
    if elapsed is not None:
        lines.append("wall clock: %.2f s (%.1f trials/s)"
                     % (elapsed, result.executed / elapsed
                        if elapsed > 0 else 0.0))
    return "\n".join(lines)


def format_adaptive_summary(summary):
    """What the adaptive sampler did: per-cell sample sizes, skipped
    replicates and final half-widths, plus the plan and the totals.

    ``summary`` is a :class:`repro.campaign.adaptive.AdaptiveSummary`
    (or its ``as_dict()``).
    """
    data = summary if isinstance(summary, dict) else summary.as_dict()
    plan = data["plan"]
    lines = [
        "adaptive sampling: wilson(target halfwidth %.4g, metric %s, "
        "min %d%s)"
        % (plan["target_halfwidth"], plan["metric"],
           plan["min_replicates"],
           ", max %d" % plan["max_replicates"]
           if plan.get("max_replicates") is not None else ""),
        "converged %d of %d cells early; executed %d trials, "
        "skipped %d pre-keyed replicates"
        % (data["converged_cells"], len(data["cells"]),
           data["total_executed"], data["total_skipped"]),
    ]
    with_machine = any(cell.get("machine") for cell in data["cells"])
    machine_header = "%-10s " % "machine" if with_machine else ""
    with_sites = any(cell.get("sites") for cell in data["cells"])
    sites_header = "%-16s " % "sites" if with_sites else ""
    header = ("%-8s %-8s %s%s%9s %-13s %4s %5s %5s %10s %s"
              % ("bench", "model", machine_header, sites_header,
                 "flt/M", "mix", "n", "run", "skip", "halfwidth",
                 "closed"))
    lines += ["", header, "-" * len(header)]
    for cell in data["cells"]:
        machine = ("%-10s " % (cell.get("machine") or "-")
                   if with_machine else "")
        sites = ("%-16s " % (cell.get("sites") or "-")
                 if with_sites else "")
        lines.append(
            "%-8s %-8s %s%s%9.0f %-13s %4d %5d %5d %10.4f %s"
            % (cell["workload"], cell["model"], machine, sites,
               cell["rate_per_million"], cell["mix"], cell["n"],
               cell["executed"], cell["skipped"], cell["halfwidth"],
               cell["closed"]))
    return "\n".join(lines)


def format_machine_table(config):
    """Table-1 style machine-parameter listing from a MachineConfig."""
    hierarchy = config.hierarchy
    rows = [
        ("Fetch/Decode/Dispatch/Issue width",
         "%d" % config.fetch_width),
        ("RUU/LSQ size", "%d/%d" % (config.rob_size, config.lsq_size)),
        ("Branch predictor",
         "combined: %d-entry bimodal + 2-level (%d-entry L1, %d-bit "
         "history, %d-entry L2, xor=%s); %d-entry meta"
         % (config.branch.bimodal_size, config.branch.l1_size,
            config.branch.history_bits, config.branch.l2_size,
            config.branch.use_xor, config.branch.meta_size)),
        ("BTB / RAS", "%dx%d / %d deep"
         % (config.branch.btb_sets, config.branch.btb_assoc,
            config.branch.ras_depth)),
        ("Instruction L1 cache", "%d KB, %d-way"
         % (hierarchy.il1.size_bytes // 1024, hierarchy.il1.assoc)),
        ("Data L1 cache", "%d KB, %d-way, %d R/W ports"
         % (hierarchy.dl1.size_bytes // 1024, hierarchy.dl1.assoc,
            config.mem_ports)),
        ("Unified L2 cache", "%d KB, %d-way"
         % (hierarchy.l2.size_bytes // 1024, hierarchy.l2.assoc)),
        ("Functional unit mix",
         "%d IntALU, %d IntMult, %d FPAdd, %d FPMult/Div"
         % (config.int_alu, config.int_mult, config.fp_add,
            config.fp_mult)),
        ("Latencies",
         "alu %d, imult %d, idiv %d (unpipelined), fpadd %d, fpmult %d, "
         "fpdiv %d / fpsqrt %d (unpipelined)"
         % (config.lat_int_alu, config.lat_int_mult, config.lat_int_div,
            config.lat_fp_add, config.lat_fp_mult, config.lat_fp_div,
            config.lat_fp_sqrt)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join("%-*s  %s" % (width, name, value)
                     for name, value in rows)


def ascii_chart(series, width=64, height=16, logx=True, title=""):
    """Render named (x, y) series as an ASCII chart.

    ``series`` is a list of (name, marker, [(x, y), ...]) tuples.  The
    x-axis is logarithmic by default (fault-frequency sweeps).
    """
    points = [(x, y) for _, _, data in series for x, y in data if x > 0
              or not logx]
    if not points:
        return title + "\n(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if logx:
        x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
    grid = [[" "] * width for _ in range(height)]

    def place(x, y, marker):
        if logx:
            if x <= 0:
                return
            x = math.log10(x)
        col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][col] = marker

    for _, marker, data in series:
        for x, y in data:
            place(x, y, marker)
    lines = []
    if title:
        lines.append(title)
    legend = "  ".join("%s=%s" % (marker, name)
                       for name, marker, _ in series)
    lines.append(legend)
    lines.append("%8.3f +%s" % (y_hi, "-" * width))
    for row in grid:
        lines.append("         |" + "".join(row))
    lines.append("%8.3f +%s" % (y_lo, "-" * width))
    if logx:
        lines.append("          x: 1e%.1f .. 1e%.1f (log)" % (x_lo, x_hi))
    else:
        lines.append("          x: %g .. %g" % (x_lo, x_hi))
    return "\n".join(lines)
