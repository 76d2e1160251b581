"""The campaign result store: one JSONL file per campaign.

:class:`JSONLStore` persists one JSON record per completed trial,
keyed by the trial's content hash, as one fsynced line.  A campaign
killed mid-write leaves at most one torn trailing line, which the
loader skips and the next append quarantines, so every intact line is
a trial that never needs to run again.  That is the whole resume
protocol: re-expand the spec, drop the keys already on disk, run the
rest.

Appends are never rejected: :meth:`JSONLStore.load` returns every
stored record in write order, and resume's "last record wins" dict
collapse plus :meth:`JSONLStore.compact` (drop torn tails and stale
duplicates, last-write-wins) handle duplicate keys.

:func:`open_store` turns a path into a :class:`JSONLStore`;
:class:`RetryingStore` retries a store's I/O under a
:class:`~repro.resilience.retry.RetryPolicy`.
"""

from __future__ import annotations

import json
import os
from typing import List, Set, Tuple

from ..errors import ConfigError
from ..resilience.retry import RetryPolicy

#: Store-URL prefixes of backends that no longer exist.  A path that
#: starts with one is refused: read as a plain path it would quietly
#: become a relative JSONL file named ``sqlite:...`` or ``shard:...``.
_REMOVED_BACKENDS = {"sqlite:": "SQLite", "shard:": "sharded JSONL"}


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


class JSONLStore:
    """Append-only JSONL store of trial records (one line per trial).

    Each append is written, flushed and fsynced as a whole line, so a
    campaign killed mid-run leaves at most one torn line at the end of
    the file, which the loader skips.  ``path`` is the file; the
    engine quotes it in error messages and the CLI prints it after a
    run.
    """

    def __init__(self, path):
        self.path = path

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.path)

    @property
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def truncate(self) -> None:
        """Start a fresh campaign file (creates parent directories)."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "w"):
            pass

    def append(self, record: dict) -> None:
        """Persist one trial record (must carry a ``key``) as a single
        fsynced JSON line."""
        self._check_key(record)
        append_json_line(self.path, record, fsync=True)

    def load(self) -> List[dict]:
        """All intact records, in file order; torn/corrupt lines skipped."""
        return [record for record in read_json_objects(self.path)
                if "key" in record]

    def completed_keys(self) -> Set[str]:
        """Set of trial keys that already have an intact record."""
        return {record["key"] for record in self.load()}

    def compact(self) -> Tuple[int, int]:
        """Rewrite the file with one record per key (last write wins);
        returns ``(kept, dropped)`` record counts.

        Records keep their first-appearance order; torn tails, blank
        lines and non-record garbage disappear.  The rewrite goes
        through a temp file + ``os.replace`` so a crash mid-compaction
        never loses the original.
        """
        if not self.exists:
            return (0, 0)
        with open(self.path) as handle:
            raw_lines = sum(1 for line in handle if line.strip())
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

    @staticmethod
    def _check_key(record) -> str:
        key = record.get("key")
        if not key:
            raise ValueError("trial record has no 'key'")
        return key


class RetryingStore:
    """Wrap a store with a :class:`~repro.resilience.retry.RetryPolicy`
    on its I/O methods.

    Store writes are the one durable side effect of a trial — a
    transient ``OSError`` (NFS hiccup, fd-table pressure) must not
    throw away a finished simulation.  Appends/loads/compactions retry
    under the policy with the record key as jitter token; persistent
    failure propagates the last error unchanged.  The campaign service
    wraps every job store in one with :attr:`DEFAULT_POLICY`; a
    library caller gets retried writes by passing
    ``RetryingStore(store)`` as a session's store.
    """

    #: Exception classes treated as transient storage failures.
    RETRY_ON = (OSError,)

    #: 3 tries, backing off from 50 ms up to 1 s.
    DEFAULT_POLICY = RetryPolicy(attempts=3, base_delay=0.05,
                                 max_delay=1.0)

    def __init__(self, inner: JSONLStore, policy=None,
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
        key = JSONLStore._check_key(record)
        self._call(lambda: self.inner.append(record), token=key)

    def load(self):
        return self._call(self.inner.load, token="load")

    def compact(self):
        return self._call(self.inner.compact, token="compact")

    def completed_keys(self):
        return self._call(self.inner.completed_keys, token="keys")


def open_store(path):
    """A :class:`JSONLStore` for a path (a ``str`` or any
    ``os.PathLike``); ``None``/empty gives ``None`` and a store object
    passes through unchanged.

    A path that starts with a removed backend's prefix (``sqlite:``,
    ``shard:``) raises :class:`~repro.errors.ConfigError` naming it.
    """
    if isinstance(path, os.PathLike):
        path = os.fspath(path)
    if path is None or path == "":
        return None
    if not isinstance(path, str):
        return path
    for prefix, backend in _REMOVED_BACKENDS.items():
        if path.startswith(prefix):
            raise ConfigError(
                "store %r: the %s store backend was removed; every "
                "campaign writes one JSONL file, so pass a plain path"
                % (path, backend))
    return JSONLStore(path)
