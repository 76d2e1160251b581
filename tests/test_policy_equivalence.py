"""Legacy-path compatibility of the fault-site refactor.

``tests/data/golden_spec64.json`` holds the 64-trial acceptance grid —
records and aggregate JSON — exactly as the pre-refactor campaign
path produced them.  Every rate-based execution route through the
policy subsystem (serial session, ``workers=2`` pool, JSONL-store
resume) must reproduce that fixture byte-for-byte: the ``RatePolicy``
indirection may cost nothing in trial keys, records or aggregates.
"""

import json
import os

import pytest

from repro.campaign import (CampaignSession, CampaignSpec,
                            ExecutionOptions, JSONLStore,
                            cells_to_json, clear_result_caches)

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "golden_spec64.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        payload = json.load(handle)
    payload["records_json"] = json.dumps(payload["records"],
                                         sort_keys=True)
    return payload


@pytest.fixture(scope="module")
def spec(golden):
    return CampaignSpec.from_dict(golden["spec"])


def canonical(records):
    return json.dumps(records, sort_keys=True)


def test_trial_keys_are_unchanged(golden, spec):
    """The content hashes themselves: any key drift would silently
    orphan every stored campaign on resume."""
    expected = [record["key"] for record in golden["records"]]
    assert [trial.key for trial in spec.trials()] == expected


def test_serial_records_byte_identical(golden, spec):
    session = CampaignSession(spec)
    result = session.run()
    assert canonical(result.records) == golden["records_json"]
    assert cells_to_json(session.aggregate()) == golden["cells_json"]


def test_worker_pool_records_byte_identical(golden, spec):
    session = CampaignSession(spec,
                              options=ExecutionOptions(workers=2))
    result = session.run()
    assert canonical(result.records) == golden["records_json"]
    assert cells_to_json(session.aggregate()) == golden["cells_json"]


def test_resume_byte_identical(golden, spec, tmp_path):
    """A killed-and-resumed campaign must also land on the fixture:
    the store holds a prefix of the records and a torn line, and the
    resumed session completes the rest."""
    store = JSONLStore(str(tmp_path / "resume.jsonl"))
    for record in golden["records"][:23]:
        store.append(record)
    with open(store.path, "a") as handle:      # killed mid-append
        handle.write(json.dumps(golden["records"][23])[:40])
    session = CampaignSession(spec, store=store)
    result = session.resume()
    assert result.skipped == 23
    assert result.executed == 41
    assert canonical(result.records) == golden["records_json"]
    assert cells_to_json(session.aggregate()) == golden["cells_json"]
    assert store.completed_keys() \
        == {record["key"] for record in golden["records"]}


def test_fresh_caches_do_not_change_records(golden, spec):
    """The fixture must not depend on warm per-process memos."""
    clear_result_caches()
    result = CampaignSession(spec).run()
    assert canonical(result.records) == golden["records_json"]
