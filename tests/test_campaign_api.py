"""Campaign API v2: CampaignSession facade, ExecutionOptions, typed
events and the result store.

The heart of this file is the acceptance check: one 64-trial spec run
through a JSONL store, and reloaded from it, must produce the records
and aggregate table of a storeless run byte for byte.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (CAMPAIGN_FINISHED, CELL_FINISHED,
                            TRIAL_FINISHED, TRIAL_STARTED,
                            CampaignSession, CampaignSpec,
                            ExecutionOptions, JSONLStore,
                            cells_to_json)
from repro.campaign.adaptive import SamplingPlan
from repro.errors import ConfigError

#: The acceptance-criteria grid: 1 workload x 2 models x 2 rates x 16
#: replicates = 64 trials, half of them fault-free (cheap via result
#: reuse), half at a rate high enough to exercise every outcome class.
SPEC64 = CampaignSpec(
    name="api-backend-equivalence",
    workloads=("gcc",),
    models=("SS-1", "SS-2"),
    rates_per_million=(0.0, 20_000.0),
    replicates=16,
    instructions=250)


def canonical(records):
    """Byte representation used for record-identity assertions."""
    return json.dumps(records, sort_keys=True)


@pytest.fixture(scope="module")
def baseline():
    """The storeless run the store equivalence test compares
    against."""
    session = CampaignSession(SPEC64)
    result = session.run()
    assert len(result.records) == 64
    return {"records_json": canonical(result.records),
            "cells_json": cells_to_json(session.aggregate())}


def small_spec(**overrides):
    kwargs = dict(workloads=("gcc",), models=("SS-2",),
                  rates_per_million=(0.0, 20_000.0), replicates=2,
                  instructions=300)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


#: Any JSON value a tenant body can carry.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


def json_objects_over(fields):
    """JSON objects keyed mostly by ``fields``, with arbitrary values."""
    return st.dictionaries(
        st.sampled_from(sorted(fields)) | st.text(max_size=8),
        JSON_VALUES, max_size=len(fields) + 1)


class TestExecutionOptions:
    def test_has_five_fields(self):
        assert list(ExecutionOptions.__dataclass_fields__) == [
            "workers", "max_cycles", "sampling", "trial_timeout",
            "trial_retries"]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_nested_option_fuzz_raises_only_config_errors(self, data):
        fields = SamplingPlan.__dataclass_fields__
        value = data.draw(json_objects_over(fields) | JSON_VALUES)
        try:
            ExecutionOptions.from_dict({"sampling": value})
        except ConfigError:
            pass

    @pytest.mark.parametrize("name", ["persistent_workers",
                                      "store_retry"])
    def test_retired_options_are_unknown_fields(self, name):
        with pytest.raises(ConfigError, match=name):
            ExecutionOptions.from_dict({"workers": 2, name: True})

    def test_defaults(self):
        options = ExecutionOptions()
        assert options.workers == 1
        assert options.max_cycles is None
        assert options.to_dict() == {"workers": 1}

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExecutionOptions.from_dict({"simulator": "warp"})
        with pytest.raises(ConfigError):
            ExecutionOptions(workers=0)
        with pytest.raises(ConfigError):
            ExecutionOptions(workers=1.5)
        with pytest.raises(ConfigError):
            ExecutionOptions(max_cycles=0)
        with pytest.raises(ConfigError):
            ExecutionOptions(max_cycles="lots")

    def test_trial_payload_shape(self):
        trial = next(small_spec().trials())
        assert ExecutionOptions().trial_payload(trial) \
            == {"trial": trial.to_dict()}
        assert ExecutionOptions(workers=2).trial_payload(trial) \
            == {"trial": trial.to_dict()}


class TestSessionLifecycle:
    def test_run_and_aggregate(self, tmp_path):
        spec = small_spec()
        session = CampaignSession(spec, store=str(tmp_path / "r.jsonl"))
        result = session.run()
        assert [r["key"] for r in result.records] \
            == [t.key for t in spec.trials()]
        assert session.result is result
        cells = session.aggregate()
        assert sum(cell.n for cell in cells) == spec.grid_size

    def test_store_url_and_instance_equivalent(self, tmp_path):
        by_url = CampaignSession(small_spec(),
                                 store=str(tmp_path / "a.jsonl"))
        by_instance = CampaignSession(
            small_spec(), store=JSONLStore(str(tmp_path / "b.jsonl")))
        assert canonical(by_url.run().records) \
            == canonical(by_instance.run().records)

    def test_run_refuses_nonempty_store(self, tmp_path):
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        store.append({"key": "stale", "outcome": "masked"})
        session = CampaignSession(small_spec(), store=store)
        with pytest.raises(ConfigError,
                           match="already holds completed trials"):
            session.run()

    def test_resume_requires_store(self):
        with pytest.raises(ConfigError, match="requires a result store"):
            CampaignSession(small_spec()).resume()

    def test_progress_snapshots(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "r.jsonl")
        session = CampaignSession(spec, store=path)
        before = session.progress()
        assert (before.done, before.total) == (0, spec.grid_size)
        assert before.remaining == spec.grid_size
        session.run()
        after = session.progress()
        assert (after.done, after.total) == (spec.grid_size,
                                             spec.grid_size)
        assert after.fraction == 1.0
        # A fresh session over the same store sees the stored keys.
        resumed_view = CampaignSession(spec, store=path)
        assert resumed_view.progress().done == spec.grid_size

    def test_records_from_store_without_running(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "r.jsonl")
        full = CampaignSession(spec, store=path).run()
        later = CampaignSession(spec, store=path)
        assert later.records() == full.records
        fresh = CampaignSession(spec)
        fresh.run()
        assert cells_to_json(later.aggregate()) \
            == cells_to_json(fresh.aggregate())

    def test_records_without_store_or_run_is_an_error(self):
        with pytest.raises(ConfigError, match="no result yet"):
            CampaignSession(small_spec()).records()

    def test_options_max_cycles_stamps_spec(self):
        spec = small_spec()
        session = CampaignSession(
            spec, options=ExecutionOptions(max_cycles=9_000))
        assert session.spec.max_cycles == 9_000
        assert all(t.max_cycles == 9_000
                   for t in session.spec.trials())

    def test_options_max_cycles_conflict_rejected(self):
        spec = small_spec(max_cycles=5_000)
        with pytest.raises(ConfigError, match="contradicts"):
            CampaignSession(spec,
                            options=ExecutionOptions(max_cycles=9_000))
        # An agreeing value is not a conflict.
        session = CampaignSession(
            spec, options=ExecutionOptions(max_cycles=5_000))
        assert session.spec is spec


def run_python(script):
    """Run ``script`` in a fresh interpreter on this source tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True,
                          check=True).stdout


class TestImportGraph:
    def test_serial_sessions_load_no_process_pool(self):
        # Only a pooled session imports the pool machinery.
        output = run_python(
            "import sys\n"
            "import repro.campaign\n"
            "print(sorted(name for name in ('multiprocessing',\n"
            "             'concurrent.futures.process')\n"
            "             if name in sys.modules))\n")
        assert output.strip() == "[]"

    def test_runtime_never_imports_the_reference_engine(self):
        # The frozen oracle is for tests and the bench only: importing
        # the package and running a campaign must not load it.
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.campaign import CampaignSession, CampaignSpec\n"
            "spec = CampaignSpec(workloads=('gcc',), models=('SS-2',),\n"
            "                    rates_per_million=(0.0, 20000.0),\n"
            "                    replicates=1, instructions=200)\n"
            "assert len(CampaignSession(spec).run().records) == 2\n"
            "print('repro.uarch.reference' in sys.modules)\n")
        assert run_python(script).strip() == "False"


class TestEvents:
    def test_serial_event_stream(self):
        spec = small_spec()
        events = []
        session = CampaignSession(spec, listeners=(events.append,))
        session.run()
        kinds = [event.kind for event in events]
        assert kinds.count(TRIAL_STARTED) == spec.grid_size
        assert kinds.count(TRIAL_FINISHED) == spec.grid_size
        # 1 workload x 1 model x 2 rates x 1 mix = 2 cells.
        assert kinds.count(CELL_FINISHED) == 2
        assert kinds.count(CAMPAIGN_FINISHED) == 1
        assert kinds[-1] == CAMPAIGN_FINISHED
        finished = [e for e in events if e.kind == TRIAL_FINISHED]
        assert [e.done for e in finished] \
            == list(range(1, spec.grid_size + 1))
        assert all(e.total == spec.grid_size for e in events)
        assert all(e.record["key"] == e.trial["key"] for e in finished)
        cells = {e.cell for e in events if e.kind == CELL_FINISHED}
        assert cells == {("gcc", "SS-2", "", 0.0, "default", ""),
                         ("gcc", "SS-2", "", 20_000.0, "default", "")}

    def test_subscribe_decorator_and_started_payload(self):
        spec = small_spec(replicates=1)
        session = CampaignSession(spec)
        started = []

        @session.subscribe
        def listener(event):
            if event.kind == TRIAL_STARTED:
                started.append(event.trial["key"])

        assert listener is not None
        session.run()
        assert started == [t.key for t in spec.trials()]

    def test_resumed_trials_fire_no_trial_events(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "r.jsonl")
        full = CampaignSession(spec, store=path).run()
        half = len(full.records) // 2
        partial = JSONLStore(str(tmp_path / "partial.jsonl"))
        for record in full.records[:half]:
            partial.append(record)
        events = []
        resumed = CampaignSession(spec, store=partial,
                                  listeners=(events.append,))
        result = resumed.resume()
        assert result.skipped == half
        kinds = [event.kind for event in events]
        assert kinds.count(TRIAL_STARTED) == spec.grid_size - half
        assert kinds.count(TRIAL_FINISHED) == spec.grid_size - half
        assert kinds.count(CAMPAIGN_FINISHED) == 1
        # done still counts resumed trials: the stream ends at total.
        assert events[-1].done == spec.grid_size


class TestBackendEquivalence:
    """The acceptance criteria: a JSONL store run and its reload agree
    with the storeless run byte for byte."""

    def test_direct_run_matches_baseline(self, tmp_path, baseline):
        store = JSONLStore(str(tmp_path / "direct.jsonl"))
        session = CampaignSession(SPEC64, store=store)
        result = session.run()
        assert canonical(result.records) == baseline["records_json"]
        assert cells_to_json(session.aggregate()) \
            == baseline["cells_json"]
        # The store round-trips the records too (fresh session, no run).
        reloaded = CampaignSession(SPEC64, store=store)
        assert canonical(reloaded.records()) == baseline["records_json"]
        assert cells_to_json(reloaded.aggregate()) \
            == baseline["cells_json"]


class TestMachineOverrides:
    def test_override_axis_runs_and_aggregates(self):
        spec = CampaignSpec(
            name="override-axis",
            workloads=("gcc",), models=("SS-2",),
            rates_per_million=(0.0,),
            machine_overrides={"base": {}, "rob8": {"rob_size": 8}},
            replicates=1, instructions=300)
        session = CampaignSession(spec)
        result = session.run()
        assert len(result.records) == 2
        machines = {r["trial"]["machine"]: r for r in result.records}
        assert set(machines) == {"base", "rob8"}
        # A starved 8-entry window cannot beat the 128-entry baseline.
        assert machines["rob8"]["cycles"] \
            >= machines["base"]["cycles"]
        cells = session.aggregate()
        assert [cell.machine for cell in cells] == ["base", "rob8"]
        payload = json.loads(cells_to_json(cells))
        assert [cell["machine"] for cell in payload] == ["base", "rob8"]

    def test_faultfree_reuse_keys_on_overrides(self):
        # Same workload/model/budgets but different overrides must not
        # collide in the fault-free result memo.
        from repro.campaign.outcome import clear_result_caches
        clear_result_caches()
        plain = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                             rates_per_million=(0.0,), replicates=1,
                             instructions=300)
        squeezed = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                                rates_per_million=(0.0,), replicates=1,
                                machine_overrides={"rob8":
                                                   {"rob_size": 8}},
                                instructions=300)
        plain_record = CampaignSession(plain).run().records[0]
        squeezed_record = CampaignSession(squeezed).run().records[0]
        assert plain_record["cycles"] != squeezed_record["cycles"]
