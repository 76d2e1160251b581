"""The wire schema: every JSON boundary type loads hostile input safely.

Each wire type declares its fields once (:mod:`repro.wire`), and the
property here runs over that declaration: whatever hostile JSON value
lands in whatever field, ``from_dict`` either builds an object whose
wire form round-trips through strict JSON, or raises a ConfigError
that names the field.  No other exception may escape.
"""

import ast
import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.campaign import CampaignSpec, ExecutionOptions, SamplingPlan
from repro.campaign.api import TRIAL_FINISHED, CampaignEvent
from repro.campaign.spec import Trial
from repro.errors import ConfigError
from repro.faults.sites import FaultSite
from repro.service.jobs import Job
from repro.service.scheduler import TenantConfig

SPEC = CampaignSpec(workloads=("gcc",), models=("SS-2",),
                    rates_per_million=(0.0, 1000.0), replicates=2,
                    instructions=300)
SITES_SPEC = CampaignSpec(
    workloads=("gcc",), models=("SS-2",), rates_per_million=(0.0,),
    replicates=1, instructions=300,
    machine_overrides={"rob64": {"rob_size": 64}},
    fault_sites={"pc": {"policy": "structure_sweep", "structure": "pc"}})

#: Every wire type, with the objects whose wire forms the property
#: perturbs.  A class in ``src/`` that serializes must be listed here.
WIRE_TYPES = {
    CampaignSpec: [SPEC, SITES_SPEC],
    Trial: [next(SPEC.trials()), next(SITES_SPEC.trials())],
    ExecutionOptions: [ExecutionOptions(
        workers=2, max_cycles=5_000, sampling=SamplingPlan.wilson(0.1),
        trial_timeout=1.5, trial_retries=1)],
    SamplingPlan: [SamplingPlan.fixed(),
                   SamplingPlan.wilson(0.1, max_replicates=20)],
    FaultSite: [FaultSite(structure="rename_tag", index=3, copy=1, bit=7,
                          operand=1, window=(0, 90))],
    Job: [Job(id="job-1", tenant="alice", spec=SPEC,
              options=ExecutionOptions(workers=2), priority=1, shards=1,
              state="failed", error="boom", seq=4, submitted_at=10.0,
              started_at=11.0, finished_at=12.5, done=2, total=4)],
    CampaignEvent: [CampaignEvent(
        kind=TRIAL_FINISHED, done=1, total=2,
        trial={"workload": "gcc"}, record={"outcome": "masked"},
        cell=("gcc", "SS-2", "", 0.0, "default", ""))],
    TenantConfig: [TenantConfig("alice", weight=2.0, max_queued=3,
                                max_running=1)],
}

HOSTILE = [None, True, math.nan, math.inf, -math.inf, 2 ** 70, "x", [],
           {}, [[1]], {"a": {}}]

#: (type, example index, field) for every field of every example.
FIELDS = [(cls, index, spec.name)
          for cls, examples in WIRE_TYPES.items()
          for index in range(len(examples))
          for spec in dataclasses.fields(cls)]


def strict(data):
    """``data`` through strict JSON: NaN or infinity raise ValueError."""
    return json.loads(json.dumps(data, allow_nan=False, sort_keys=True))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(HOSTILE))
def test_hostile_field_loads_or_names_the_field(target, value):
    cls, index, name = target
    data = dict(WIRE_TYPES[cls][index].to_dict(), **{name: value})
    try:
        loaded = cls.from_dict(data)
    except ConfigError as exc:
        assert name in str(exc), (name, value, str(exc))
        return
    wire = strict(loaded.to_dict())
    assert strict(cls.from_dict(wire).to_dict()) == wire


@pytest.mark.parametrize("cls", list(WIRE_TYPES),
                         ids=[cls.__name__ for cls in WIRE_TYPES])
def test_unknown_and_missing_keys_are_config_errors(cls):
    wire = WIRE_TYPES[cls][0].to_dict()
    with pytest.raises(ConfigError, match="surplus"):
        cls.from_dict(dict(wire, surplus=1))
    for spec in dataclasses.fields(cls):
        if spec.default is dataclasses.MISSING \
                and spec.default_factory is dataclasses.MISSING:
            partial = {key: value for key, value in wire.items()
                       if key != spec.name}
            with pytest.raises(ConfigError, match=spec.name):
                cls.from_dict(partial)
    with pytest.raises(ConfigError, match=cls.__name__):
        cls.from_dict([wire])


def test_every_serializer_in_src_is_a_listed_wire_type():
    """A class that serializes is on the schema, so the property above
    covers it: the guarantee the deleted lint parity check gave."""
    root = os.path.dirname(repro.__file__)
    found = set()
    for directory, _, names in os.walk(root):
        for filename in names:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(directory, filename)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef) \
                        or node.name == "Wire":
                    continue
                bases = {getattr(base, "id", getattr(base, "attr", ""))
                         for base in node.bases}
                methods = {stmt.name for stmt in node.body
                           if isinstance(stmt, ast.FunctionDef)}
                if "Wire" in bases or "to_dict" in methods:
                    found.add(node.name)
    assert found == {cls.__name__ for cls in WIRE_TYPES}


@pytest.mark.parametrize("value", [0, -5])
def test_spec_max_cycles_has_the_options_bound(value):
    with pytest.raises(ConfigError, match="max_cycles"):
        CampaignSpec(max_cycles=value)
    with pytest.raises(ConfigError, match="max_cycles"):
        CampaignSpec.from_dict({"max_cycles": value})
    with pytest.raises(ConfigError, match="max_cycles"):
        ExecutionOptions(max_cycles=value)


@pytest.mark.parametrize("field,value", [
    ("rates_per_million", [math.nan]), ("rates_per_million", [math.inf]),
    ("mixes", {"m": {"value": math.inf}}), ("name", ["x"]),
    ("name", None), ("name", 3)])
def test_spec_refuses_non_finite_numbers_and_non_string_names(field,
                                                              value):
    with pytest.raises(ConfigError, match=field):
        CampaignSpec.from_dict({field: value})
