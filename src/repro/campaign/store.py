"""Pluggable result-store backends for campaign records.

Every backend persists the same thing — one JSON record per completed
trial, keyed by the trial's content hash — behind the common
:class:`StoreBackend` interface, so the engine, ``--resume`` and the
aggregation layer never care where records live:

* :class:`JSONLStore` — one flushed line per record in a single file.
  A campaign killed mid-write leaves at most one torn trailing line,
  which the loader skips and the next append quarantines.
* :class:`SQLiteStore` — an indexed ``sqlite3`` table for million-trial
  campaigns: appends are transactional (a killed writer loses at most
  the uncommitted record, never the file), ``completed_keys`` is an
  index scan instead of a full parse, and concurrent appenders are
  serialised by sqlite's own locking.
* :class:`ShardedJSONLStore` — fans records across N JSONL shard files
  by key hash, so multi-host campaigns can write disjoint shards and
  :func:`merge_stores` can stitch them back together.

Stores are selected by URL-style path (:func:`open_store`)::

    out.jsonl            -> JSONLStore("out.jsonl")
    sqlite:campaign.db   -> SQLiteStore("campaign.db")
    shard:results/       -> ShardedJSONLStore("results/")
    shard:16:results/    -> ShardedJSONLStore("results/", shards=16)

All backends share the duplicate-key policy of the original JSONL
store: appends are never rejected, :meth:`StoreBackend.load` returns
every stored record in write order, and resume's "last record wins"
dict collapse plus :meth:`StoreBackend.compact` (drop torn tails and
stale duplicates, last-write-wins) handle the rest.
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
import zlib
from typing import Iterable, List, Optional, Set, Tuple

from ..resilience.retry import RetryPolicy

#: Default fan-out of :class:`ShardedJSONLStore` when the directory does
#: not already fix a shard count.
DEFAULT_SHARDS = 8

_SHARD_FILE = "shard-%03d.jsonl"


def append_json_line(path, payload, fsync=False):
    """Append ``payload`` to the JSONL file ``path`` as one flushed
    line, creating parent directories; ``fsync`` also syncs it.

    A writer killed mid-append leaves a torn last line; appending
    straight after it would merge the new line into the fragment and
    lose it, so a newline first quarantines the fragment on its own
    (skipped) line.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    line = json.dumps(payload, sort_keys=True)
    if _tail_is_torn(path):
        line = "\n" + line
    with open(path, "a") as handle:
        handle.write(line + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def _tail_is_torn(path):
    """True if the file ends mid-line (writer killed mid-append)."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size == 0:
        return False
    with open(path, "rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


def read_json_objects(path):
    """Every intact JSON object line of ``path``, in file order (none
    for a missing file); torn, blank and non-object lines are
    skipped."""
    try:
        handle = open(path)
    except FileNotFoundError:
        return
    with handle:
        yield from json_objects(handle)


def json_objects(lines):
    """Every intact JSON object among ``lines`` (text or UTF-8 bytes),
    in order; torn, blank and non-object lines are skipped."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except ValueError:
            continue        # torn tail of a killed writer
        if isinstance(value, dict):
            yield value


class StoreBackend(abc.ABC):
    """Interface every campaign result store implements.

    ``path`` is the backend's storage location (file, database file or
    directory) — the engine quotes it in error messages and the CLI
    prints it after a run.
    """

    path: str

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.path)

    @property
    @abc.abstractmethod
    def exists(self) -> bool:
        """Whether the backing storage has been created."""

    @abc.abstractmethod
    def truncate(self) -> None:
        """Drop every record and (re)create empty backing storage."""

    @abc.abstractmethod
    def append(self, record: dict) -> None:
        """Durably persist one trial record (must carry a ``key``)."""

    @abc.abstractmethod
    def load(self) -> List[dict]:
        """Every intact record, in write order; corruption is skipped."""

    @abc.abstractmethod
    def compact(self) -> Tuple[int, int]:
        """Drop torn tails and duplicate keys (last-write-wins) in
        place; returns ``(kept, dropped)`` record counts."""

    def completed_keys(self) -> Set[str]:
        """Set of trial keys that already have an intact record."""
        return {record["key"] for record in self.load()}

    @staticmethod
    def _check_key(record) -> str:
        key = record.get("key")
        if not key:
            raise ValueError("trial record has no 'key'")
        return key


class JSONLStore(StoreBackend):
    """Append-only JSONL store of trial records (one line per trial).

    Each append is written and flushed as a whole line, so a campaign
    killed mid-run leaves at most one torn line at the end of the file
    — which the loader skips — and every intact line is a trial that
    never needs to run again.  That is the whole resume protocol:
    re-expand the spec, drop the keys already on disk, run the rest.
    """

    def __init__(self, path):
        self.path = path

    @property
    def exists(self):
        return os.path.exists(self.path)

    def truncate(self):
        """Start a fresh campaign file (creates parent directories)."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "w"):
            pass

    def append(self, record):
        """Persist one trial record as a single fsynced JSON line."""
        self._check_key(record)
        append_json_line(self.path, record, fsync=True)

    def load(self):
        """All intact records, in file order; torn/corrupt lines skipped."""
        return [record for record in read_json_objects(self.path)
                if "key" in record]

    def compact(self):
        """Rewrite the file with one record per key (last write wins).

        Records keep their first-appearance order; torn tails, blank
        lines and non-record garbage disappear.  The rewrite goes
        through a temp file + ``os.replace`` so a crash mid-compaction
        never loses the original.
        """
        if not self.exists:
            return (0, 0)
        raw_lines = sum(1 for line in open(self.path) if line.strip())
        merged = {}
        for record in self.load():
            merged[record["key"]] = record       # dict keeps first slot
        tmp = self.path + ".compact.tmp"
        with open(tmp, "w") as handle:
            for record in merged.values():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return (len(merged), raw_lines - len(merged))


class SQLiteStore(StoreBackend):
    """Indexed sqlite3 store for million-trial campaigns.

    Records land in an append-ordered table with a key index, so
    ``completed_keys()`` never parses the full record set and appends
    from several processes are serialised by the database itself (30 s
    busy timeout).  Like the JSONL store it keeps duplicate keys until
    :meth:`compact`; a writer killed mid-append simply loses the
    uncommitted row — sqlite's journal is the "torn tail" protocol.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS trial_records (
            seq    INTEGER PRIMARY KEY AUTOINCREMENT,
            key    TEXT NOT NULL,
            record TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS idx_trial_records_key
            ON trial_records (key);
    """

    def __init__(self, path):
        self.path = path
        self._connection = None

    def _connect(self):
        if self._connection is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            connection = sqlite3.connect(self.path, timeout=30.0)
            connection.executescript(self._SCHEMA)
            connection.commit()
            self._connection = connection
        return self._connection

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    @property
    def exists(self):
        return os.path.exists(self.path)

    def truncate(self):
        connection = self._connect()
        connection.execute("DELETE FROM trial_records")
        connection.commit()

    def append(self, record):
        key = self._check_key(record)
        connection = self._connect()
        connection.execute(
            "INSERT INTO trial_records (key, record) VALUES (?, ?)",
            (key, json.dumps(record, sort_keys=True)))
        connection.commit()

    def load(self):
        if not self.exists:
            return []
        rows = self._connect().execute(
            "SELECT record FROM trial_records ORDER BY seq")
        records = []
        for (blob,) in rows:
            try:
                record = json.loads(blob)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "key" in record:
                records.append(record)
        return records

    def completed_keys(self):
        if not self.exists:
            return set()
        rows = self._connect().execute(
            "SELECT DISTINCT key FROM trial_records")
        return {key for (key,) in rows}

    def compact(self):
        """Keep only the newest row per key; reclaim the space."""
        if not self.exists:
            return (0, 0)
        connection = self._connect()
        (total,) = connection.execute(
            "SELECT COUNT(*) FROM trial_records").fetchone()
        connection.execute(
            "DELETE FROM trial_records WHERE seq NOT IN "
            "(SELECT MAX(seq) FROM trial_records GROUP BY key)")
        connection.commit()
        connection.execute("VACUUM")
        (kept,) = connection.execute(
            "SELECT COUNT(*) FROM trial_records").fetchone()
        return (kept, total - kept)


class ShardedJSONLStore(StoreBackend):
    """N JSONL shard files under one directory, fanned out by key hash.

    The shard of a record is a pure function of its trial key, so
    every writer of the same directory routes a key to the same file
    and per-shard appends keep the single-file torn-tail guarantees.
    The shard count is fixed by whatever files already exist in the
    directory (so reopening a store never re-fans existing records);
    a fresh directory is created with ``shards`` files up front.
    """

    def __init__(self, path, shards: Optional[int] = None):
        self.path = path
        existing = self._existing_shard_files()
        if existing:
            self.shards = len(existing)
        else:
            self.shards = DEFAULT_SHARDS if shards is None else shards
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")
        self._stores = [JSONLStore(os.path.join(path, _SHARD_FILE % i))
                        for i in range(self.shards)]

    def _existing_shard_files(self):
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return sorted(name for name in names
                      if name.startswith("shard-")
                      and name.endswith(".jsonl"))

    def _ensure_layout(self):
        os.makedirs(self.path, exist_ok=True)
        for store in self._stores:
            if not store.exists:
                store.truncate()

    def _store_for(self, key):
        return self._stores[shard_of_key(key, self.shards)]

    @property
    def exists(self):
        return os.path.isdir(self.path)

    def truncate(self):
        os.makedirs(self.path, exist_ok=True)
        for store in self._stores:
            store.truncate()

    def append(self, record):
        key = self._check_key(record)
        self._ensure_layout()
        self._store_for(key).append(record)

    def load(self):
        """Records in shard order, write order within each shard."""
        records = []
        for store in self._stores:
            records.extend(store.load())
        return records

    def completed_keys(self):
        keys = set()
        for store in self._stores:
            keys.update(store.completed_keys())
        return keys

    def compact(self):
        kept = dropped = 0
        for store in self._stores:
            shard_kept, shard_dropped = store.compact()
            kept += shard_kept
            dropped += shard_dropped
        return (kept, dropped)


class RetryingStore(StoreBackend):
    """Wrap any backend with a :class:`~repro.resilience.retry.
    RetryPolicy` on its I/O methods.

    Store writes are the one durable side effect of a trial — a
    transient ``OSError`` (NFS hiccup, fd-table pressure, sqlite
    ``disk I/O error``) must not throw away a finished simulation.
    Appends/loads/compactions retry under the policy with the record
    key as jitter token; persistent failure propagates the last error
    unchanged.  ``sqlite3.OperationalError`` is an ``sqlite3.Error``,
    not an ``OSError``, so both are retried.  The campaign service
    wraps every job store in one with :attr:`DEFAULT_POLICY`; a
    library caller gets retried writes by passing
    ``RetryingStore(store)`` as a session's store.
    """

    #: Exception classes treated as transient storage failures.
    RETRY_ON = (OSError, sqlite3.Error)

    #: 3 tries, backing off from 50 ms up to 1 s.
    DEFAULT_POLICY = RetryPolicy(attempts=3, base_delay=0.05,
                                 max_delay=1.0)

    def __init__(self, inner: StoreBackend, policy=None,
                 sleep=None):
        self.inner = inner
        self.path = inner.path
        self.policy = policy if policy is not None \
            else self.DEFAULT_POLICY
        self._sleep = sleep
        #: Appends that needed at least one retry (observability).
        self.retried = 0

    def _call(self, fn, token=""):
        def bump(attempt, exc):
            self.retried += 1
        kwargs = {"retry_on": self.RETRY_ON, "token": token,
                  "on_retry": bump}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        return self.policy.call(fn, **kwargs)

    @property
    def exists(self):
        return self.inner.exists

    def truncate(self):
        self._call(self.inner.truncate, token="truncate")

    def append(self, record):
        key = self._check_key(record)
        self._call(lambda: self.inner.append(record), token=key)

    def load(self):
        return self._call(self.inner.load, token="load")

    def compact(self):
        return self._call(self.inner.compact, token="compact")

    def completed_keys(self):
        return self._call(self.inner.completed_keys, token="keys")


def shard_of_key(key, total):
    """Deterministic shard index of a trial key (hex hash or any str)."""
    try:
        value = int(key, 16)
    except (TypeError, ValueError):
        value = zlib.crc32(str(key).encode())
    return value % total


def open_store(path: Optional[str]):
    """Backend from a URL-style path; ``None``/empty passes through.

    ``sqlite:FILE`` selects :class:`SQLiteStore`, ``shard:DIR`` (or
    ``shard:N:DIR`` for an explicit fan-out) selects
    :class:`ShardedJSONLStore`; anything else is a plain JSONL file.
    A :class:`StoreBackend` instance passes through unchanged.
    """
    if path is None or path == "":
        return None
    if isinstance(path, StoreBackend):
        return path
    if path.startswith("sqlite:"):
        return SQLiteStore(path[len("sqlite:"):])
    if path.startswith("shard:"):
        rest = path[len("shard:"):]
        head, _, tail = rest.partition(":")
        if tail and head.isdigit():
            return ShardedJSONLStore(tail, shards=int(head))
        return ShardedJSONLStore(rest)
    return JSONLStore(path)


def merge_stores(sources: Iterable[StoreBackend], dest: StoreBackend):
    """Merge records from ``sources`` into ``dest``; returns the count.

    Duplicate keys collapse last-write-wins (the same rule resume
    applies within one store), so merging the per-shard stores of a
    ``spec.shard(i, n)`` campaign rebuilds exactly the record set of
    the single-host run.

    Tie-break, precisely: sources are read in the order given, each
    source in its own :meth:`StoreBackend.load` order (write order),
    and the *last* record seen for a key wins — so a key duplicated
    across two sources resolves to the later source in the argument
    list, and a key duplicated within one source resolves to its
    newest write.  Trial keys are content hashes of the whole trial,
    so two honest writers can only ever disagree on a key through
    nondeterministic environment differences; last-write-wins simply
    keeps the freshest observation, mirroring what ``resume`` would
    have kept.
    """
    merged = {}
    for source in sources:
        for record in source.load():
            merged[record["key"]] = record
    for record in merged.values():
        dest.append(record)
    return len(merged)
