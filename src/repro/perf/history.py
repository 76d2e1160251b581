"""Typed model of the bench history file (``BENCH_simulator.json``).

The file is an append-per-PR record of ``repro-ft bench`` runs.  Three
schema generations coexist:

* **v1** — a single entry: the whole file is one measurement.
* **v2** — the top level is still the latest entry (v1 consumers keep
  working) and every earlier entry is preserved, oldest first, under
  ``history``.
* **v3** — same file layout; each *entry* additionally carries
  per-repeat wall-time samples (``campaign.reference_sample_seconds``
  / ``campaign.optimized_sample_seconds``), a per-phase sample matrix
  (``campaign.optimized_phase_sample_seconds``) and a host
  ``fingerprint``, so comparisons between entries have a distribution
  to test against instead of a point.

:class:`BenchEntry` wraps one entry's raw payload **without mutating
it**: v1/v2 entries are migrated *losslessly* by synthesising
single-sample views from their point values on access, never by
rewriting the stored dict — a load → save round trip of any valid
file is byte-identical.  :class:`BenchHistory` owns load / append /
save and version-reference resolution (``latest``, ``HEAD``,
``HEAD~N`` or a plain index).

Schema validation is strict on purpose: a torn write or a hand edit
raises :class:`~repro.errors.HistoryError` naming the entry and the
field, instead of silently dropping seven PRs of trajectory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import HistoryError

#: Current entry schema generation (see module docstring).
SCHEMA_VERSION = 3

#: The execution phases a v3 entry samples per repeat (timed from
#: outside the trial path; see ``repro.harness.bench.timed_phases``).
PHASES = ("decode", "golden", "simulate", "classify")

#: Safety cap on retained history entries (newest kept).
MAX_HISTORY = 100

#: ``campaign`` fields every entry generation must carry, with the
#: types accepted for each.
_REQUIRED_CAMPAIGN_FIELDS = {
    "optimized_seconds": (int, float),
    "reference_seconds": (int, float),
    "optimized_trials_per_sec": (int, float),
    "reference_trials_per_sec": (int, float),
    "speedup": (int, float),
    "trials": (int,),
}


def host_fingerprint(platform: str, python: str) -> str:
    """Short stable identity of a measurement host.

    Two entries are absolutely comparable only when their fingerprints
    match — wall seconds from different machines say nothing about the
    code.  Derived (not stored verbatim) so v1/v2 entries, which
    predate the field, fingerprint identically to a v3 entry taken on
    the same host.
    """
    digest = hashlib.sha256(
        ("%s\n%s" % (platform, python)).encode("utf-8")).hexdigest()
    return digest[:12]


def _is_sample_list(value) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(isinstance(item, (int, float))
                    and not isinstance(item, bool)
                    and item >= 0 for item in value))


def validate_entry(payload, label="entry") -> None:
    """Raise :class:`HistoryError` unless ``payload`` is a valid entry.

    ``label`` names the entry in error messages (e.g. ``entry 3``).
    Unknown keys are always allowed — the schema only grows.
    """
    def fail(message):
        raise HistoryError("%s: %s" % (label, message))

    if not isinstance(payload, dict):
        fail("not a JSON object (torn write or hand edit?)")
    version = payload.get("version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        fail("missing or non-integer 'version'")
    if version > SCHEMA_VERSION:
        fail("schema version %d is newer than this tool understands "
             "(max %d)" % (version, SCHEMA_VERSION))
    if not isinstance(payload.get("generated_at"), str):
        fail("missing or non-string 'generated_at'")
    host = payload.get("host")
    if not isinstance(host, dict):
        fail("missing 'host' object")
    for key in ("platform", "python"):
        if not isinstance(host.get(key), str):
            fail("missing or non-string 'host.%s'" % key)
    engine = payload.get("engine")
    if not isinstance(engine, dict) \
            or not isinstance(engine.get("rows"), list):
        fail("missing 'engine.rows' list")
    campaign = payload.get("campaign")
    if not isinstance(campaign, dict):
        fail("missing 'campaign' object")
    for key, types in _REQUIRED_CAMPAIGN_FIELDS.items():
        value = campaign.get(key)
        if not isinstance(value, types) or isinstance(value, bool):
            fail("missing or non-numeric 'campaign.%s'" % key)
    if campaign["trials"] <= 0:
        fail("'campaign.trials' must be positive")
    for key in ("optimized_seconds", "reference_seconds"):
        if campaign[key] <= 0:
            fail("'campaign.%s' must be positive" % key)
    # v3 additions: validated whenever present so a hand-edited sample
    # list is caught even in an entry still stamped version <= 2.
    for key in ("reference_sample_seconds", "optimized_sample_seconds"):
        if key in campaign and not _is_sample_list(campaign[key]):
            fail("'campaign.%s' must be a non-empty list of "
                 "non-negative numbers" % key)
    phases = campaign.get("optimized_phase_sample_seconds")
    if phases is not None:
        if not isinstance(phases, dict) or not phases:
            fail("'campaign.optimized_phase_sample_seconds' must be a "
                 "non-empty object of sample lists")
        lengths = set()
        for name, samples in phases.items():
            if name not in PHASES:
                fail("unknown phase %r in "
                     "'campaign.optimized_phase_sample_seconds'" % name)
            if not _is_sample_list(samples):
                fail("'campaign.optimized_phase_sample_seconds.%s' "
                     "must be a non-empty list of non-negative numbers"
                     % name)
            lengths.add(len(samples))
        if len(lengths) > 1:
            fail("phase sample lists disagree on repeat count: %s"
                 % sorted(lengths))
        if "optimized_sample_seconds" in campaign and lengths and \
                lengths != {len(campaign["optimized_sample_seconds"])}:
            fail("phase sample lists and "
                 "'campaign.optimized_sample_seconds' disagree on "
                 "repeat count")
    if version >= 3:
        for key in ("reference_sample_seconds",
                    "optimized_sample_seconds"):
            if key not in campaign:
                fail("version %d entry lacks 'campaign.%s'"
                     % (version, key))


@dataclass(frozen=True)
class BenchEntry:
    """One bench measurement, wrapping its raw stored payload.

    Accessors present every schema generation uniformly: a v1/v2
    entry's point values become single-sample lists, so downstream
    code (the differ, the report) never branches on ``version``.  The
    wrapped dict is never mutated — re-serialising it reproduces the
    stored bytes.
    """

    raw: dict = field(repr=False)
    index: int = -1                 # position in the owning history

    @property
    def version(self) -> int:
        return self.raw["version"]

    @property
    def generated_at(self) -> str:
        return self.raw["generated_at"]

    @property
    def note(self) -> str:
        return self.raw.get("note", "")

    @property
    def quick(self) -> bool:
        return bool(self.raw.get("quick"))

    @property
    def campaign(self) -> dict:
        return self.raw["campaign"]

    @property
    def spec(self) -> Optional[dict]:
        return self.campaign.get("spec")

    @property
    def host(self) -> dict:
        return self.raw["host"]

    @property
    def fingerprint(self) -> str:
        stored = self.host.get("fingerprint")
        if isinstance(stored, str) and stored:
            return stored
        return host_fingerprint(self.host["platform"],
                                self.host["python"])

    @property
    def trials(self) -> int:
        return self.campaign["trials"]

    @property
    def trials_per_sec(self) -> float:
        return float(self.campaign["optimized_trials_per_sec"])

    @property
    def speedup(self) -> float:
        return float(self.campaign["speedup"])

    def optimized_samples(self) -> List[float]:
        """Per-repeat optimized-path wall seconds (>= 1 sample)."""
        stored = self.campaign.get("optimized_sample_seconds")
        if stored:
            return [float(value) for value in stored]
        return [float(self.campaign["optimized_seconds"])]

    def reference_samples(self) -> List[float]:
        """Per-repeat unoptimized-path wall seconds (>= 1 sample)."""
        stored = self.campaign.get("reference_sample_seconds")
        if stored:
            return [float(value) for value in stored]
        return [float(self.campaign["reference_seconds"])]

    def throughput_samples(self) -> List[float]:
        """Per-repeat optimized trials/second."""
        trials = self.trials
        return [trials / seconds if seconds > 0 else 0.0
                for seconds in self.optimized_samples()]

    def speedup_samples(self) -> List[float]:
        """Per-repeat reference/optimized wall-time ratios.

        The i-th reference sample is paired with the i-th optimized
        sample (run order); the ratio is dimensionless, which is what
        makes it comparable across hosts.
        """
        pairs = zip(self.reference_samples(), self.optimized_samples())
        return [ref / opt if opt > 0 else 0.0 for ref, opt in pairs]

    def phase_samples(self) -> dict:
        """Per-phase per-repeat seconds ({} when the entry has none).

        Pre-phase-clock entries (v1 and early v2) report no phases;
        later v2 entries carry a single best-run breakdown, presented
        here as one sample per phase.
        """
        stored = self.campaign.get("optimized_phase_sample_seconds")
        if stored:
            return {name: [float(value) for value in samples]
                    for name, samples in stored.items()}
        point = self.campaign.get("optimized_phase_seconds")
        if point:
            return {name: [float(value)]
                    for name, value in point.items()}
        return {}

    def label(self) -> str:
        """Short human identity: ``#4 2026-07-29 host 1a2b3c4d5e6f``."""
        prefix = "#%d " % self.index if self.index >= 0 else ""
        return "%s%s host %s" % (prefix, self.generated_at,
                                 self.fingerprint)


class BenchHistory:
    """The ordered bench entries of one history file, oldest first."""

    def __init__(self, entries=(), path=""):
        self.path = path
        self.entries = [entry if isinstance(entry, BenchEntry)
                        else BenchEntry(raw=entry, index=index)
                        for index, entry in enumerate(entries)]

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index) -> BenchEntry:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def from_payload(cls, payload, path="") -> "BenchHistory":
        """Build a history from a loaded file payload.

        The payload's top level is its latest entry; earlier entries
        ride under ``history``.  Every entry is validated.  The
        payload is not retained — :meth:`to_payload` rebuilds the
        layout from the entries.
        """
        where = path or "bench history"
        if not isinstance(payload, dict):
            raise HistoryError(
                "%s: top level is not a JSON object" % where)
        latest = dict(payload)
        older = latest.pop("history", [])
        if not isinstance(older, list):
            raise HistoryError(
                "%s: 'history' is not a list" % where)
        raw_entries = list(older) + [latest]
        for position, entry in enumerate(raw_entries):
            validate_entry(entry, label="%s: entry %d"
                                        % (where, position))
        return cls(raw_entries, path=path)

    @classmethod
    def load(cls, path) -> "BenchHistory":
        """Load ``path``; a missing file is an empty history.

        Anything else that prevents a faithful load — unreadable
        bytes, invalid JSON, a foreign or torn payload — raises
        :class:`HistoryError`: overwriting or silently dropping an
        existing history would defeat regression gating.
        """
        if not os.path.exists(path):
            return cls(path=path)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise HistoryError("cannot read %s: %s" % (path, exc)) \
                from exc
        except ValueError as exc:
            raise HistoryError(
                "%s is not valid JSON (torn write or hand edit?): %s"
                % (path, exc)) from exc
        return cls.from_payload(payload, path=path)

    def append(self, payload) -> BenchEntry:
        """Validate and append a new latest entry; returns it."""
        validate_entry(payload, label="new entry")
        entry = BenchEntry(raw=payload, index=len(self.entries))
        self.entries.append(entry)
        if len(self.entries) > MAX_HISTORY:
            del self.entries[:len(self.entries) - MAX_HISTORY]
            for index, kept in enumerate(list(self.entries)):
                self.entries[index] = BenchEntry(raw=kept.raw,
                                                 index=index)
        return entry

    def to_payload(self) -> dict:
        """The file layout: latest entry on top, the rest nested.

        Entries' raw dicts are embedded untouched, so serialising the
        result with ``sort_keys`` reproduces a loaded file
        byte-for-byte.
        """
        if not self.entries:
            raise HistoryError("empty history has no payload")
        latest = dict(self.entries[-1].raw)
        latest.pop("history", None)
        older = [entry.raw for entry in self.entries[:-1]]
        if older:
            latest["history"] = older
        return latest

    def save(self, path="") -> str:
        """Write the history to ``path`` (default: where it loaded)."""
        path = path or self.path
        if not path:
            raise HistoryError("no path to save the history to")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        self.path = path
        return path

    def resolve(self, ref) -> int:
        """A version reference to an entry index.

        Accepted forms: ``latest`` / ``HEAD`` (the newest entry),
        ``HEAD~N`` (N entries before the newest), or a plain integer
        index (negative counts from the end, python-style).
        """
        if not self.entries:
            raise HistoryError("cannot resolve %r: history is empty"
                               % (ref,))
        count = len(self.entries)
        index = None
        if isinstance(ref, int) and not isinstance(ref, bool):
            index = ref
        else:
            text = str(ref).strip()
            if text.lower() in ("latest", "head"):
                index = count - 1
            elif text.upper().startswith("HEAD~"):
                suffix = text[5:]
                if not suffix.isdigit():
                    raise HistoryError(
                        "bad version reference %r: HEAD~N needs a "
                        "non-negative integer N" % (ref,))
                index = count - 1 - int(suffix)
            else:
                try:
                    index = int(text, 10)
                except ValueError:
                    raise HistoryError(
                        "bad version reference %r: expected an entry "
                        "index, 'latest', 'HEAD' or 'HEAD~N'"
                        % (ref,)) from None
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise HistoryError(
                "no entry %r: history has %d entr%s (indices 0..%d)"
                % (ref, count, "y" if count == 1 else "ies",
                   count - 1))
        return index

    def entry(self, ref) -> BenchEntry:
        """The entry a version reference names."""
        return self.entries[self.resolve(ref)]
