"""The campaign result store: persistence, resume keys, torn-line
tolerance, compaction, path selection and the refusal of removed
store URLs."""

import json

import pytest

from repro.campaign import CampaignSession, CampaignSpec
from repro.campaign.store import JSONLStore, open_store
from repro.errors import ConfigError


def record(key, **extra):
    data = {"key": key, "outcome": "masked"}
    data.update(extra)
    return data


def make_store(tmp_path, label="store"):
    return JSONLStore(str(tmp_path / ("%s.jsonl" % label)))


class TestBackendContract:
    """What the engine, resume and the service rely on."""

    def test_missing_storage_loads_empty(self, tmp_path):
        store = make_store(tmp_path, "none")
        assert not store.exists
        assert store.load() == []
        assert store.completed_keys() == set()

    def test_append_load_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        store.append(record("aaaa", ipc=1.5))
        store.append(record("bbbb", ipc=0.5))
        loaded = store.load()
        assert [r["key"] for r in loaded] == ["aaaa", "bbbb"]
        assert loaded[0]["ipc"] == 1.5
        assert store.completed_keys() == {"aaaa", "bbbb"}
        # Records round-trip exactly, and a reopened store sees them.
        full = record("cccc", ipc=1.25, trial={"key": "cccc",
                                               "workload": "gcc"},
                      counts=[1, 2, 3])
        store.append(full)
        assert JSONLStore(store.path).load()[-1] == full

    def test_append_requires_key(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.append({"outcome": "masked"})

    def test_truncate(self, tmp_path):
        store = make_store(tmp_path)
        store.append(record("aaaa"))
        store.truncate()
        assert store.exists
        assert store.load() == []

    def test_creates_parent_directories(self, tmp_path):
        store = make_store(tmp_path / "deep" / "dir")
        store.append(record("aaaa"))
        assert store.completed_keys() == {"aaaa"}

    def test_duplicate_keys_kept_until_compact(self, tmp_path):
        # Appends never reject: resume's dict collapse and compact()
        # both apply last-write-wins.
        store = make_store(tmp_path)
        store.append(record("aaaa", ipc=1.0))
        store.append(record("bbbb"))
        store.append(record("aaaa", ipc=2.0))
        assert len(store.load()) == 3
        kept, dropped = store.compact()
        assert (kept, dropped) == (2, 1)
        by_key = {r["key"]: r for r in store.load()}
        assert by_key["aaaa"]["ipc"] == 2.0
        assert set(by_key) == {"aaaa", "bbbb"}
        # Compacting a compacted store drops nothing further.
        assert store.compact() == (2, 0)

    def test_compact_missing_storage_is_a_noop(self, tmp_path):
        store = make_store(tmp_path, "never")
        assert store.compact() == (0, 0)
        assert not store.exists

    def test_repr_names_backend_and_path(self, tmp_path):
        store = make_store(tmp_path)
        assert "JSONLStore" in repr(store)
        assert store.path in repr(store)


class TestJSONLStore:
    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JSONLStore(str(path))
        store.append(record("aaaa"))
        store.append(record("bbbb"))
        # Simulate a campaign killed mid-write: a torn trailing line.
        with open(path, "a") as handle:
            handle.write(json.dumps(record("cccc"))[:17])
        assert store.completed_keys() == {"aaaa", "bbbb"}
        # Appending after the torn line keeps the store usable: the
        # recovered record lands on its own line.
        store.append(record("dddd"))
        assert "dddd" in store.completed_keys()

    def test_blank_and_non_dict_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('\n[1,2]\n{"no_key": true}\n'
                        + json.dumps(record("eeee")) + "\n")
        store = JSONLStore(str(path))
        assert store.completed_keys() == {"eeee"}

    def test_compact_drops_torn_tail_and_garbage(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JSONLStore(str(path))
        store.append(record("aaaa", ipc=1.0))
        store.append(record("bbbb"))
        store.append(record("aaaa", ipc=2.0))
        with open(path, "a") as handle:
            handle.write('[1,2]\n' + json.dumps(record("cccc"))[:9])
        kept, dropped = store.compact()
        assert kept == 2
        assert dropped == 3          # stale aaaa + garbage + torn tail
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        # Last-write-wins value, first-appearance order, clean file.
        assert json.loads(lines[0]) == record("aaaa", ipc=2.0)
        assert json.loads(lines[1]) == record("bbbb")


class TestOpenStore:
    def test_none_and_empty_pass_through(self):
        assert open_store(None) is None
        assert open_store("") is None

    def test_plain_path_is_jsonl(self, tmp_path):
        store = open_store(str(tmp_path / "r.jsonl"))
        assert isinstance(store, JSONLStore)
        assert store.path == str(tmp_path / "r.jsonl")

    def test_path_object_is_jsonl(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = open_store(path)
        assert isinstance(store, JSONLStore)
        assert store.path == str(path)
        spec = CampaignSpec(name="paths", workloads=("gcc",),
                            models=("SS-1",), rates_per_million=(0.0,),
                            replicates=2, instructions=300)
        result = CampaignSession(spec, store=path).run()
        assert len(result.records) == 2
        assert store.completed_keys() == {record["key"]
                                          for record in result.records}

    def test_backend_instance_passes_through(self, tmp_path):
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        assert open_store(store) is store

    @pytest.mark.parametrize("prefix,backend", [
        ("sqlite:", "SQLite"), ("shard:", "sharded JSONL"),
        ("shard:4:", "sharded JSONL")])
    def test_removed_backend_urls_are_refused(self, prefix, backend,
                                              tmp_path, monkeypatch):
        # Read as a plain path, the URL would become a relative JSONL
        # file under a directory named after the scheme.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as excinfo:
            open_store(prefix + "results/r.db")
        assert backend in str(excinfo.value)
        assert list(tmp_path.iterdir()) == []
