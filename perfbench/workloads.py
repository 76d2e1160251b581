"""The benchmark's workloads: what each one runs and why it was chosen.

Every spec is the benchmark's own plain-dict campaign spec (the JSON form
a user or a tenant submits), so changes to the repository's built-in
bench grids never change what this benchmark measures.  The seed feeds
``CampaignSpec.base_seed`` and, for the service, the arrival schedule.
Modelled caches start empty: every spec has ``warmup`` 0.
"""

#: The seed whose record digests are committed in ``digests.json``.
DEFAULT_SEED = 2001

#: The Figure-6 fault-rate ladder, in faults per million instructions.
FIG6_RATES = (0.0, 10.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0)

#: The 7-structure fault-site taxonomy of ``repro.faults.sites``.
STRUCTURES = ("fu_result", "rob_entry", "lsq_address", "branch_outcome",
              "pc", "rename_tag", "iq_entry")

#: The 11 SPEC profiles; service jobs use them in turn, which is more
#: than each pool worker's 8-entry golden-trace cache holds.
SPEC_PROFILES = ("gcc", "vortex", "go", "bzip", "ijpeg", "vpr", "equake",
                 "ammp", "fpppp", "swim", "art")

#: Open-loop arrival rate of the service workload, in jobs per second.
SERVICE_RATE = 10.0
SERVICE_TENANTS = ("a", "b")
SERVICE_SLOTS = 2

WHY = {
    "fig6-ladder": (
        "The paper's Figure 6: fpppp on SS-2/SS-3 over the fault-rate "
        "ladder. Silent low-rate trials reuse the fault-free run, so "
        "reuse and per-trial overhead show."),
    "site-sweep": (
        "One strike per trial in each of 7 structures on memory-heavy "
        "gcc: nothing is reused, uarch simulation dominates, strikes "
        "are uniform over the window."),
    "service-open-loop": (
        "repro-ft serve under Poisson arrivals from two tenants, R=1 so "
        "no copy sharing. Its gates catch only saturation, start-up and "
        "RSS; latency and occupancy are reported, not gated."),
}


def fig6_ladder_spec(seed):
    return {
        "name": "perfbench-fig6-ladder",
        "workloads": ["fpppp"],
        "models": ["SS-2", "SS-3"],
        "rates_per_million": list(FIG6_RATES),
        "replicates": 8,
        "instructions": 1500,
        "warmup": 0,
        "base_seed": seed,
    }


def site_sweep_spec(seed):
    return {
        "name": "perfbench-site-sweep",
        "workloads": ["gcc"],
        "models": ["SS-2", "SS-3"],
        "rates_per_million": [0.0],
        "fault_sites": {
            structure: {"policy": "structure_sweep",
                        "structure": structure, "strikes": 1}
            for structure in STRUCTURES},
        "replicates": 6,
        "instructions": 1500,
        "warmup": 0,
        "base_seed": seed,
    }


def service_job_spec(seed, index):
    """The spec of the ``index``-th job of the service workload."""
    return {
        "name": "perfbench-svc-%04d" % index,
        "workloads": [SPEC_PROFILES[index % len(SPEC_PROFILES)]],
        "models": ["SS-1"],
        "rates_per_million": [0.0, 3000.0],
        "replicates": 2,
        "instructions": 600,
        "warmup": 0,
        "base_seed": seed,
    }


def probe_job_spec(seed, name, instructions):
    """An 8-trial spec for the sharded-job liveness probe."""
    return {
        "name": "perfbench-probe-%s" % name,
        "workloads": ["gcc"],
        "models": ["SS-1"],
        "rates_per_million": [0.0, 3000.0],
        "replicates": 4,
        "instructions": instructions,
        "warmup": 0,
        "base_seed": seed,
    }


SERIAL_SPECS = {
    "fig6-ladder": fig6_ladder_spec,
    "site-sweep": site_sweep_spec,
}
