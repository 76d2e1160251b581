"""Per-rule fixtures for the ``repro.lint`` analyzer.

Each rule gets at least one firing (positive) and one non-firing
(negative) fixture, built as tiny source trees under ``tmp_path`` that
mimic the ``repro/...`` layout the scope rules key on.  Suppression
and baseline semantics are covered at the end.
"""

import json
import os
import textwrap

import pytest

from repro.errors import ConfigError
from repro.lint import (DEFAULT_ROOT, parse_suppressions, run_lint,
                        select_rules, write_baseline)
from repro.lint.oracle import REFERENCE_PATH, fingerprint, freeze

NO_BASELINE = "does-not-exist.json"


def make_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path)


def lint(tmp_path, files, rules=None):
    root = make_tree(tmp_path, files)
    return run_lint(root=root, rule_names=rules,
                    baseline_path=os.path.join(root, NO_BASELINE))


def rules_fired(report):
    return sorted({f.rule for f in report.findings})


# -- determinism -----------------------------------------------------------

class TestDeterminismRule:
    def test_hazards_in_core_fire(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/inject.py": """\
            import json
            import random
            import time

            def hazards(log):
                stamp = time.time()
                draw = random.random()
                rng = random.Random()
                key = {id(log): stamp}
                for item in {1, 2, 3}:
                    draw += item
                return json.dumps({"stamp": stamp})
            """}, rules=["determinism"])
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 6
        assert "time.time" in messages
        assert "global unseeded RNG" in messages
        assert "without a seed" in messages
        assert "id(...)" in messages
        assert "iteration over a set" in messages
        assert "sort_keys" in messages

    def test_service_layer_is_out_of_scope(self, tmp_path):
        report = lint(tmp_path, {"repro/service/lease.py": """\
            import time

            def now():
                return time.time()
            """}, rules=["determinism"])
        assert report.findings == []

    def test_clean_core_passes(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/inject.py": """\
            import json
            import random

            def draws(seed, sites):
                rng = random.Random(seed)
                order = sorted({site for site in sites})
                return json.dumps({"order": order}, sort_keys=True), rng
            """}, rules=["determinism"])
        assert report.findings == []


# -- frozen-oracle ---------------------------------------------------------

def reference_source():
    with open(os.path.join(DEFAULT_ROOT, REFERENCE_PATH)) as handle:
        return handle.read()


class TestFrozenOracleRule:
    def test_pristine_reference_passes(self, tmp_path):
        report = lint(tmp_path,
                      {REFERENCE_PATH: reference_source()},
                      rules=["frozen-oracle"])
        assert report.findings == []

    def test_edited_reference_fires(self, tmp_path):
        mutated = reference_source() + "\n\nX_DRIFT = 1\n"
        report = lint(tmp_path, {REFERENCE_PATH: mutated},
                      rules=["frozen-oracle"])
        assert len(report.findings) == 1
        assert "fingerprint" in report.findings[0].message

    def test_comment_only_change_passes(self, tmp_path):
        commented = reference_source() + "\n# a trailing comment\n"
        report = lint(tmp_path, {REFERENCE_PATH: commented},
                      rules=["frozen-oracle"])
        assert report.findings == []

    def test_unsanctioned_import_fires(self, tmp_path):
        # Only the bench may import the oracle; the trial runner may
        # not.
        report = lint(tmp_path, {
            "repro/faults/sneaky.py":
                "from repro.uarch.reference import ReferenceProcessor\n",
            "repro/campaign/outcome.py":
                "from ..uarch import reference\n",
            "repro/harness/bench.py":
                "from ..uarch.reference import ReferenceProcessor\n",
        }, rules=["frozen-oracle"])
        assert sorted(f.path for f in report.findings) \
            == ["repro/campaign/outcome.py", "repro/faults/sneaky.py"]

    def test_fingerprint_is_ast_based(self):
        assert fingerprint("x = 1\n") == fingerprint("x  =  1  # c\n")
        assert fingerprint("x = 1\n") != fingerprint("x = 2\n")

    def test_freeze_roundtrip(self, tmp_path):
        path = str(tmp_path / "fp.json")
        record = freeze("x = 1\n", path)
        with open(path) as handle:
            assert json.load(handle) == record
        assert record["sha256"] == fingerprint("x = 1\n")


# -- wire-parity -----------------------------------------------------------

class TestWireParityRule:
    def test_unregistered_event_kind_fires(self, tmp_path):
        report = lint(tmp_path, {
            "repro/service/events.py": """\
                JOB_QUEUED = "job_queued"
                JOB_EVENT_KINDS = (JOB_QUEUED,)

                def job_event(kind, job):
                    return {"kind": kind}
            """,
            "repro/service/backend.py": """\
                from .events import job_event

                def enqueue(job):
                    return job_event("job_queued", job)

                def rogue(job):
                    return job_event("job_vanished", job)
            """}, rules=["wire-parity"])
        assert len(report.findings) == 1
        assert "'job_vanished'" in report.findings[0].message
        assert report.findings[0].path == "repro/service/backend.py"

    def test_unemitted_registered_kind_fires(self, tmp_path):
        report = lint(tmp_path, {
            "repro/service/events.py": """\
                JOB_QUEUED = "job_queued"
                JOB_GHOST = "job_ghost"
                JOB_EVENT_KINDS = (JOB_QUEUED, JOB_GHOST)

                def job_event(kind, job):
                    return {"kind": kind}

                def enqueue(job):
                    return job_event(JOB_QUEUED, job)
            """}, rules=["wire-parity"])
        assert len(report.findings) == 1
        assert "'job_ghost'" in report.findings[0].message

    def test_kind_comparisons_must_be_registered(self, tmp_path):
        report = lint(tmp_path, {
            "repro/service/events.py": """\
                JOB_EVENT_KINDS = ("job_queued",)

                def job_event(kind, job):
                    return {"kind": kind}

                def enqueue(job):
                    return job_event("job_queued", job)
            """,
            "repro/service/watch.py": """\
                def is_stale(event):
                    return event.kind == "job_stale"
            """}, rules=["wire-parity"])
        assert len(report.findings) == 1
        assert "'job_stale'" in report.findings[0].message

    def test_registries_absent_skips_kind_check(self, tmp_path):
        report = lint(tmp_path, {"repro/service/other.py": """\
            def poke(emitter, job):
                return emitter.job_event("totally_unknown", job)
            """}, rules=["wire-parity"])
        assert report.findings == []


# -- lock-discipline -------------------------------------------------------

class TestLockDisciplineRule:
    def test_unlocked_read_fires(self, tmp_path):
        report = lint(tmp_path, {"repro/service/queue.py": """\
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []

                def add(self, job):
                    with self._lock:
                        self._jobs.append(job)

                def peek(self):
                    return self._jobs[0]
            """}, rules=["lock-discipline"])
        assert len(report.findings) == 1
        assert "Queue.peek" in report.findings[0].message

    def test_locked_suffix_convention_passes(self, tmp_path):
        report = lint(tmp_path, {"repro/service/queue.py": """\
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []

                def add(self, job):
                    with self._lock:
                        self._jobs.append(job)
                        return self._size_locked()

                def _size_locked(self):
                    return len(self._jobs)
            """}, rules=["lock-discipline"])
        assert report.findings == []

    def test_subscript_store_counts_as_write(self, tmp_path):
        report = lint(tmp_path, {"repro/service/table.py": """\
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}

                def put(self, key, row):
                    with self._lock:
                        self._rows[key] = row

                def get(self, key):
                    return self._rows.get(key)
            """}, rules=["lock-discipline"])
        assert len(report.findings) == 1
        assert "Table.get" in report.findings[0].message

    def test_read_only_config_not_guarded(self, tmp_path):
        report = lint(tmp_path, {"repro/service/pool.py": """\
            import threading

            class Pool:
                def __init__(self, slots):
                    self._lock = threading.Lock()
                    self.slots = slots
                    self._held = 0

                def take(self):
                    with self._lock:
                        if self._held < self.slots:
                            self._held += 1
                            return True
                        return False

                def capacity(self):
                    return self.slots
            """}, rules=["lock-discipline"])
        assert report.findings == []

    def test_manual_acquire_skips_method(self, tmp_path):
        report = lint(tmp_path, {"repro/service/manual.py": """\
            import threading

            class Manual:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def legacy_bump(self):
                    self._lock.acquire()
                    try:
                        self._count += 1
                    finally:
                        self._lock.release()
            """}, rules=["lock-discipline"])
        assert report.findings == []


# -- except-policy ---------------------------------------------------------

class TestExceptPolicyRule:
    def test_bare_except_fires(self, tmp_path):
        report = lint(tmp_path, {"repro/service/a.py": """\
            def risky(fn):
                try:
                    return fn()
                except:
                    return None
            """}, rules=["except-policy"])
        assert len(report.findings) == 1
        assert "bare" in report.findings[0].message

    def test_silent_broad_catch_fires(self, tmp_path):
        report = lint(tmp_path, {"repro/service/a.py": """\
            def risky(fn):
                try:
                    return fn()
                except Exception:
                    pass
            """}, rules=["except-policy"])
        assert len(report.findings) == 1
        assert "swallows" in report.findings[0].message

    def test_handled_broad_catch_passes(self, tmp_path):
        report = lint(tmp_path, {"repro/service/a.py": """\
            def risky(fn, log, job):
                try:
                    return fn()
                except Exception as exc:
                    log.warning("failed: %s", exc)
                try:
                    return fn()
                except Exception:
                    raise
            """}, rules=["except-policy"])
        assert report.findings == []

    def test_generic_raise_fires(self, tmp_path):
        report = lint(tmp_path, {"repro/service/a.py": """\
            def check(flag):
                if not flag:
                    raise RuntimeError("bad flag")
            """}, rules=["except-policy"])
        assert len(report.findings) == 1
        assert "RuntimeError" in report.findings[0].message

    def test_repro_error_raise_passes(self, tmp_path):
        report = lint(tmp_path, {"repro/service/a.py": """\
            from repro.errors import ConfigError

            def check(flag):
                if not flag:
                    raise ConfigError("bad flag")
            """}, rules=["except-policy"])
        assert report.findings == []


# -- suppressions ----------------------------------------------------------

class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/a.py": """\
            import time

            def now():
                return time.time()  # repro-lint: disable=determinism -- test
            """}, rules=["determinism"])
        assert report.findings == []

    def test_standalone_comment_covers_next_line(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/a.py": """\
            import time

            def now():
                # repro-lint: disable=determinism -- test fixture
                return time.time()
            """}, rules=["determinism"])
        assert report.findings == []

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/a.py": """\
            import time

            def now():
                return time.time()  # repro-lint: disable=wire-parity
            """}, rules=["determinism"])
        assert len(report.findings) == 1

    def test_disable_all(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/a.py": """\
            import time

            def now():
                return time.time()  # repro-lint: disable=all
            """}, rules=["determinism"])
        assert report.findings == []

    def test_parse_suppressions_multi_rule(self):
        disabled = parse_suppressions(
            "x = 1  # repro-lint: disable=determinism, "
            "lock-discipline -- why\n")
        assert disabled[1] == {"determinism", "lock-discipline"}


# -- baseline --------------------------------------------------------------

class TestBaseline:
    FILES = {"repro/faults/a.py": """\
        import time

        def now():
            return time.time()
        """}

    def test_baselined_finding_does_not_fail(self, tmp_path):
        report = lint(tmp_path, self.FILES, rules=["determinism"])
        assert not report.ok
        baseline = str(tmp_path / "baseline.json")
        assert write_baseline(report.findings, baseline) == 1
        again = run_lint(root=str(tmp_path),
                         rule_names=["determinism"],
                         baseline_path=baseline)
        assert again.ok
        assert len(again.baselined) == 1
        assert again.findings and again.failures == []

    def test_baseline_matches_without_line_numbers(self, tmp_path):
        report = lint(tmp_path, self.FILES, rules=["determinism"])
        baseline = str(tmp_path / "baseline.json")
        write_baseline(report.findings, baseline)
        # Shift the offending line; identity (rule, path, message)
        # still matches.
        path = tmp_path / "repro/faults/a.py"
        path.write_text("import time\n\n\n\ndef now():\n"
                        "    return time.time()\n")
        again = run_lint(root=str(tmp_path),
                         rule_names=["determinism"],
                         baseline_path=baseline)
        assert again.ok and len(again.baselined) == 1

    def test_new_finding_still_fails(self, tmp_path):
        report = lint(tmp_path, self.FILES, rules=["determinism"])
        baseline = str(tmp_path / "baseline.json")
        write_baseline(report.findings, baseline)
        path = tmp_path / "repro/faults/a.py"
        path.write_text(path.read_text()
                        + "\ndef later():\n"
                          "    return time.monotonic()\n")
        again = run_lint(root=str(tmp_path),
                         rule_names=["determinism"],
                         baseline_path=baseline)
        assert not again.ok
        assert len(again.failures) == 1
        assert "time.monotonic" in again.failures[0].message

    def test_bad_baseline_is_a_config_error(self, tmp_path):
        make_tree(tmp_path, self.FILES)
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            run_lint(root=str(tmp_path), baseline_path=str(bad))


# -- rule selection --------------------------------------------------------

class TestSelection:
    def test_unknown_rule_is_a_config_error(self):
        with pytest.raises(ConfigError):
            select_rules(["nosuch-rule"])

    def test_rule_filter_limits_scope(self, tmp_path):
        report = lint(tmp_path, {"repro/faults/a.py": """\
            import time

            def risky(fn):
                try:
                    return fn()
                except:
                    return time.time()
            """}, rules=["except-policy"])
        assert rules_fired(report) == ["except-policy"]
