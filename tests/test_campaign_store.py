"""Result-store backends: persistence, resume keys, torn-line
tolerance, URL selection, sharded fan-out, merging and compaction."""

import json
import os

import pytest

from repro.campaign.store import (DEFAULT_SHARDS, JSONLStore,
                                  ShardedJSONLStore, SQLiteStore,
                                  StoreBackend, merge_stores,
                                  open_store, shard_of_key)


def record(key, **extra):
    data = {"key": key, "outcome": "masked"}
    data.update(extra)
    return data


def make_store(backend, tmp_path, label="store"):
    if backend == "jsonl":
        return JSONLStore(str(tmp_path / ("%s.jsonl" % label)))
    if backend == "sqlite":
        return SQLiteStore(str(tmp_path / ("%s.db" % label)))
    return ShardedJSONLStore(str(tmp_path / label), shards=3)


@pytest.mark.parametrize("backend", ["jsonl", "sqlite", "sharded"])
class TestBackendContract:
    """Behaviour every StoreBackend implementation must share."""

    def test_missing_storage_loads_empty(self, backend, tmp_path):
        store = make_store(backend, tmp_path, "none")
        assert not store.exists
        assert store.load() == []
        assert store.completed_keys() == set()

    def test_append_load_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.append(record("aaaa", ipc=1.5))
        store.append(record("bbbb", ipc=0.5))
        loaded = store.load()
        assert {r["key"] for r in loaded} == {"aaaa", "bbbb"}
        by_key = {r["key"]: r for r in loaded}
        assert by_key["aaaa"]["ipc"] == 1.5
        assert store.completed_keys() == {"aaaa", "bbbb"}

    def test_append_requires_key(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        with pytest.raises(ValueError):
            store.append({"outcome": "masked"})

    def test_truncate(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.append(record("aaaa"))
        store.truncate()
        assert store.exists
        assert store.load() == []

    def test_creates_parent_directories(self, backend, tmp_path):
        store = make_store(backend, tmp_path / "deep" / "dir")
        store.append(record("aaaa"))
        assert store.completed_keys() == {"aaaa"}

    def test_duplicate_keys_kept_until_compact(self, backend, tmp_path):
        # Appends never reject: resume's dict collapse and compact()
        # both apply last-write-wins.
        store = make_store(backend, tmp_path)
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

    def test_compact_missing_storage_is_a_noop(self, backend, tmp_path):
        store = make_store(backend, tmp_path, "never")
        assert store.compact() == (0, 0)

    def test_repr_names_backend_and_path(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        assert type(store).__name__ in repr(store)
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


class TestSQLiteStore:
    def test_load_preserves_append_order(self, tmp_path):
        store = make_store("sqlite", tmp_path)
        for key in ("cccc", "aaaa", "bbbb"):
            store.append(record(key))
        assert [r["key"] for r in store.load()] \
            == ["cccc", "aaaa", "bbbb"]

    def test_reopen_sees_records(self, tmp_path):
        path = str(tmp_path / "r.db")
        SQLiteStore(path).append(record("aaaa"))
        reopened = SQLiteStore(path)
        assert reopened.completed_keys() == {"aaaa"}

    def test_records_round_trip_exactly(self, tmp_path):
        store = make_store("sqlite", tmp_path)
        full = record("aaaa", ipc=1.25, trial={"key": "aaaa",
                                               "workload": "gcc"},
                      counts=[1, 2, 3])
        store.append(full)
        assert store.load() == [full]


class TestShardedStore:
    def test_fans_records_across_shard_files(self, tmp_path):
        store = ShardedJSONLStore(str(tmp_path / "dir"), shards=3)
        keys = ["%04x" % value for value in range(16)]
        for key in keys:
            store.append(record(key))
        files = sorted(os.listdir(str(tmp_path / "dir")))
        assert files == ["shard-000.jsonl", "shard-001.jsonl",
                         "shard-002.jsonl"]
        per_file = [len(JSONLStore(str(tmp_path / "dir" / name)).load())
                    for name in files]
        assert sum(per_file) == 16
        assert all(count > 0 for count in per_file)
        # Routing is the documented pure function of the key.
        for key in keys:
            shard = shard_of_key(key, 3)
            shard_store = JSONLStore(
                str(tmp_path / "dir" / ("shard-%03d.jsonl" % shard)))
            assert key in shard_store.completed_keys()

    def test_reopen_infers_shard_count(self, tmp_path):
        path = str(tmp_path / "dir")
        ShardedJSONLStore(path, shards=3).append(record("aaaa"))
        reopened = ShardedJSONLStore(path)        # no count given
        assert reopened.shards == 3
        assert reopened.completed_keys() == {"aaaa"}

    def test_default_shard_count(self, tmp_path):
        store = ShardedJSONLStore(str(tmp_path / "dir"))
        assert store.shards == DEFAULT_SHARDS

    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedJSONLStore(str(tmp_path / "dir"), shards=0)

    def test_non_hex_keys_still_route(self, tmp_path):
        store = ShardedJSONLStore(str(tmp_path / "dir"), shards=2)
        store.append(record("not-hex-key"))
        assert store.completed_keys() == {"not-hex-key"}


class TestOpenStore:
    def test_none_and_empty_pass_through(self):
        assert open_store(None) is None
        assert open_store("") is None

    def test_plain_path_is_jsonl(self, tmp_path):
        store = open_store(str(tmp_path / "r.jsonl"))
        assert isinstance(store, JSONLStore)

    def test_sqlite_url(self, tmp_path):
        store = open_store("sqlite:" + str(tmp_path / "r.db"))
        assert isinstance(store, SQLiteStore)
        assert store.path == str(tmp_path / "r.db")

    def test_shard_url(self, tmp_path):
        store = open_store("shard:" + str(tmp_path / "dir"))
        assert isinstance(store, ShardedJSONLStore)
        assert store.shards == DEFAULT_SHARDS

    def test_shard_url_with_count(self, tmp_path):
        store = open_store("shard:4:" + str(tmp_path / "dir"))
        assert isinstance(store, ShardedJSONLStore)
        assert store.shards == 4

    def test_backend_instance_passes_through(self, tmp_path):
        store = JSONLStore(str(tmp_path / "r.jsonl"))
        assert open_store(store) is store
        assert isinstance(store, StoreBackend)


class TestMergeStores:
    @pytest.mark.parametrize("dest_backend",
                             ["jsonl", "sqlite", "sharded"])
    def test_merge_across_backends(self, dest_backend, tmp_path):
        jsonl = make_store("jsonl", tmp_path, "a")
        sqlite = make_store("sqlite", tmp_path, "b")
        jsonl.append(record("aaaa", ipc=1.0))
        jsonl.append(record("bbbb"))
        sqlite.append(record("cccc"))
        sqlite.append(record("aaaa", ipc=9.0))     # later source wins
        dest = make_store(dest_backend, tmp_path, "merged")
        count = merge_stores([jsonl, sqlite], dest)
        assert count == 3
        by_key = {r["key"]: r for r in dest.load()}
        assert set(by_key) == {"aaaa", "bbbb", "cccc"}
        assert by_key["aaaa"]["ipc"] == 9.0

    def test_merge_into_nonempty_dest_appends(self, tmp_path):
        source = make_store("jsonl", tmp_path, "src")
        source.append(record("aaaa"))
        dest = make_store("jsonl", tmp_path, "dst")
        dest.append(record("zzzz"))
        merge_stores([source], dest)
        assert dest.completed_keys() == {"aaaa", "zzzz"}

    def test_concurrent_writers_same_key_last_write_wins(self,
                                                         tmp_path):
        """Two shard stores both hold the same trial key with
        different payloads (the concurrent-writer case: a shard
        restarted on another host, or an operator re-running a shard
        by hand).  The documented tie-break: sources are read in
        argument order, newest-seen record per key wins — so the
        later *source* beats the earlier one, and within one source a
        re-appended record beats its own stale predecessor.
        """
        first = make_store("jsonl", tmp_path, "shard0")
        second = make_store("jsonl", tmp_path, "shard1")
        first.append(record("f00d", outcome="sdc", ipc=0.25))
        first.append(record("f00d", outcome="masked", ipc=0.5))
        second.append(record("f00d", outcome="detected_recovered",
                             ipc=0.75))
        dest = make_store("jsonl", tmp_path, "winner")
        assert merge_stores([first, second], dest) == 1
        (merged,) = dest.load()
        assert merged["outcome"] == "detected_recovered"
        assert merged["ipc"] == 0.75
        # Flip the source order: the other writer's newest now wins.
        dest_flipped = make_store("jsonl", tmp_path, "flipped")
        assert merge_stores([second, first], dest_flipped) == 1
        (merged,) = dest_flipped.load()
        assert merged["outcome"] == "masked"
        assert merged["ipc"] == 0.5
