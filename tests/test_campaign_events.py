"""CampaignEvent wire serialization and the service's event log.

Satellite of the campaign-service PR: ``CampaignEvent.to_dict`` /
``from_dict`` must round-trip every event shape the session emits —
the typed event stream is now the SSE wire
protocol, so a lossy serialization would silently corrupt live
progress for every service client.
"""

import json
import os

import pytest

from repro.campaign import (CAMPAIGN_FINISHED, CELL_CONVERGED,
                            CELL_FINISHED, CampaignEvent,
                            CampaignSession, CampaignSpec,
                            TRIAL_FINISHED, TRIAL_STARTED)
from repro.errors import ConfigError
from repro.service.events import (EventLog, JOB_EVENT_KINDS, job_event)
from repro.service.jobs import Job


def tiny_spec():
    return CampaignSpec(name="events", workloads=("gcc",),
                        models=("SS-1",), rates_per_million=(0.0,),
                        replicates=1, instructions=200)


EXAMPLES = [
    CampaignEvent(kind=TRIAL_STARTED, done=0, total=4,
                  trial={"workload": "gcc", "model": "SS-1"}),
    CampaignEvent(kind=TRIAL_FINISHED, done=1, total=4,
                  trial={"workload": "gcc", "model": "SS-1"},
                  record={"key": "abc", "outcome": "masked"}),
    CampaignEvent(kind=CELL_FINISHED, done=2, total=4,
                  cell=("gcc", "SS-1", "", 0.0, "default", "")),
    CampaignEvent(kind=CELL_CONVERGED, done=3, total=4,
                  cell=("gcc", "SS-2", "rob64", 3000.0, "default",
                        "pc")),
    CampaignEvent(kind=CAMPAIGN_FINISHED, done=4, total=4),
]


class TestRoundTrip:
    @pytest.mark.parametrize("event", EXAMPLES,
                             ids=[event.kind for event in EXAMPLES])
    def test_round_trip_preserves_every_field(self, event):
        clone = CampaignEvent.from_dict(event.to_dict())
        assert clone == event

    @pytest.mark.parametrize("event", EXAMPLES,
                             ids=[event.kind for event in EXAMPLES])
    def test_wire_form_is_json_safe(self, event):
        wire = json.dumps(event.to_dict(), sort_keys=True)
        assert CampaignEvent.from_dict(json.loads(wire)) == event

    def test_cell_tuple_survives_json(self):
        # JSON turns tuples into lists; from_dict must restore the
        # tuple or cell-keyed comparisons downstream break.
        event = EXAMPLES[2]
        decoded = json.loads(json.dumps(event.to_dict()))
        assert isinstance(decoded["cell"], list)
        assert CampaignEvent.from_dict(decoded).cell == event.cell

    def test_optional_fields_are_omitted_from_the_wire(self):
        wire = EXAMPLES[-1].to_dict()
        assert set(wire) == {"kind", "done", "total"}

    def test_unknown_fields_are_rejected(self):
        wire = EXAMPLES[0].to_dict()
        wire["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            CampaignEvent.from_dict(wire)

    def test_live_session_events_round_trip(self, tmp_path):
        seen = []
        session = CampaignSession(
            tiny_spec(), store=str(tmp_path / "s.jsonl"),
            listeners=(seen.append,))
        session.run()
        assert seen
        for event in seen:
            assert CampaignEvent.from_dict(
                json.loads(json.dumps(event.to_dict()))) == event


class TestEventLog:
    def log(self, tmp_path):
        return EventLog(str(tmp_path / "events.jsonl"))

    def test_append_assigns_monotonic_seq(self, tmp_path):
        log = self.log(tmp_path)
        seqs = [log.append(EXAMPLES[0]), log.append(EXAMPLES[1]),
                log.append({"kind": "job_queued", "job": "j1"})]
        assert seqs == [1, 2, 3]
        assert [seq for seq, _ in log.read()] == [1, 2, 3]

    def test_read_after_seq_filters(self, tmp_path):
        log = self.log(tmp_path)
        for event in EXAMPLES[:3]:
            log.append(event)
        assert [seq for seq, _ in log.read(after_seq=2)] == [3]

    def test_seq_continues_across_writers(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        EventLog(path).append(EXAMPLES[0])
        # A fresh appender (service restart) continues the sequence.
        assert EventLog(path).append(EXAMPLES[1]) == 2

    def test_torn_tail_is_skipped_and_healed(self, tmp_path):
        log = self.log(tmp_path)
        log.append(EXAMPLES[0])
        with open(log.path, "a") as handle:
            handle.write('{"kind": "trial_fin')   # SIGKILL mid-write
        log2 = EventLog(log.path)
        assert [seq for seq, _ in log2.read()] == [1]
        assert log2.append(EXAMPLES[1]) == 2
        events = log2.read()
        assert [seq for seq, _ in events] == [1, 2]
        assert events[1][1]["kind"] == EXAMPLES[1].kind

    def test_torn_tail_heals_at_every_byte_offset(self, tmp_path):
        """Exhaustive SIGKILL simulation: truncate the log inside its
        final record at every byte offset.  Every residue must load
        cleanly (earlier events intact, the fragment skipped), and a
        fresh appender must quarantine the fragment and continue the
        sequence."""
        log = self.log(tmp_path)
        for event in EXAMPLES[:3]:
            log.append(event)
        with open(log.path, "rb") as handle:
            blob = handle.read()
        start = blob.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(start, len(blob)):
            with open(log.path, "wb") as handle:
                handle.write(blob[:cut])
            healed = EventLog(log.path)
            # cut == len(blob) - 1 drops only the trailing newline:
            # the final record is still one intact JSON line.
            expected = [1, 2, 3] if cut == len(blob) - 1 else [1, 2]
            assert [seq for seq, _ in healed.read()] == expected
            appended = healed.append(EXAMPLES[3])
            assert appended == expected[-1] + 1
            assert [seq for seq, _ in EventLog(log.path).read()] \
                == expected + [appended]

    def test_campaign_event_payload_survives(self, tmp_path):
        log = self.log(tmp_path)
        log.append(EXAMPLES[3])
        _seq, payload = log.read()[0]
        restored = CampaignEvent.from_dict(
            {key: value for key, value in payload.items()
             if key not in ("seq", "ts")})
        assert restored == EXAMPLES[3]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert self.log(tmp_path).read() == []
        assert self.log(tmp_path).follow() == ([], 0)


class TestFollower:
    """A follower's byte cursor: each read parses only what was
    appended since the last one."""

    def log(self, tmp_path):
        return EventLog(str(tmp_path / "events.jsonl"))

    def test_cursor_parses_only_the_appended_lines(self, tmp_path,
                                                   monkeypatch):
        log = self.log(tmp_path)
        payload = EXAMPLES[1].to_dict()
        with open(log.path, "w") as handle:
            for seq in range(1, 19_991):
                handle.write(json.dumps(dict(payload, seq=seq, ts=0.0),
                                        sort_keys=True) + "\n")
        events, offset = log.follow()
        assert [seq for seq, _ in events] == list(range(1, 19_991))
        for _ in range(10):
            log.append(EXAMPLES[1])
        loads = []
        real = json.loads

        def counting(*args, **kwargs):
            loads.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(json, "loads", counting)
        events, offset = log.follow(19_990, offset)
        assert [seq for seq, _ in events] == list(range(19_991, 20_001))
        assert len(loads) <= 10
        assert offset == os.path.getsize(log.path)
        loads.clear()
        assert log.follow(20_000, offset) == ([], offset)
        assert loads == []

    def test_after_seq_filters_like_read(self, tmp_path):
        log = self.log(tmp_path)
        for event in EXAMPLES[:3]:
            log.append(event)
        events, offset = log.follow(2)
        assert events == log.read(after_seq=2)
        assert offset == os.path.getsize(log.path)

    def test_unterminated_line_stays_unread_until_complete(self,
                                                           tmp_path):
        log = self.log(tmp_path)
        log.append(EXAMPLES[0])
        line = json.dumps(dict(EXAMPLES[1].to_dict(), seq=2, ts=0.0),
                          sort_keys=True)
        with open(log.path, "a") as handle:
            handle.write(line)              # an append in flight
        events, offset = log.follow()
        assert [seq for seq, _ in events] == [1]
        assert log.follow(1, offset) == ([], offset)
        with open(log.path, "a") as handle:
            handle.write("\n")
        events, offset = log.follow(1, offset)
        assert [seq for seq, _ in events] == [2]
        assert events[0][1]["kind"] == EXAMPLES[1].kind

    def test_torn_tail_is_skipped_once_quarantined(self, tmp_path):
        log = self.log(tmp_path)
        log.append(EXAMPLES[0])
        with open(log.path, "a") as handle:
            handle.write('{"kind": "trial_fin')   # SIGKILL mid-write
        events, offset = log.follow()
        assert [seq for seq, _ in events] == [1]
        # A fresh appender quarantines the fragment on its own line and
        # continues the sequence; the follower skips the fragment.
        assert EventLog(log.path).append(EXAMPLES[1]) == 2
        events, offset = log.follow(1, offset)
        assert [seq for seq, _ in events] == [2]
        assert offset == os.path.getsize(log.path)


class TestJobEvents:
    def test_job_event_carries_lifecycle_fields(self):
        job = Job(id="job-1", tenant="alice", spec=tiny_spec())
        payload = job_event("job_queued", job)
        assert payload["kind"] in JOB_EVENT_KINDS
        assert payload["job"] == "job-1"
        assert payload["tenant"] == "alice"
        assert payload["state"] == "queued"
        assert "error" not in payload

    def test_job_event_includes_error_when_set(self):
        job = Job(id="job-2", tenant="bob", spec=tiny_spec(),
                  state="failed", error="boom")
        assert job_event("job_failed", job)["error"] == "boom"
