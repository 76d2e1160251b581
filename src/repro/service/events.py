"""Per-job progress event log: the durable source of the SSE stream.

Runners append one JSON line per event — the
:meth:`~repro.campaign.api.CampaignEvent.to_dict` wire form plus a
``seq`` (1-based, monotonic per job) and a wall-clock ``ts`` — and the
HTTP server tails the file to serve ``text/event-stream`` clients.
Writing a file instead of an in-memory bus buys three properties at
once: SSE replay for late subscribers, a progress stream that survives
service restarts, and zero cross-thread plumbing between the executor
threads and the asyncio loop.

The log is advisory (the result store is the durable truth), so
appends flush but do not fsync; a SIGKILL can tear the final line,
which :meth:`EventLog.read` skips exactly like the JSONL result store
skips its torn tails.  A fresh appender starts after the last intact
``seq``, so sequence numbers stay monotonic across restarts.  A
follower (an SSE stream) reads through :meth:`EventLog.follow`, which
keeps a byte offset, so each poll parses only the lines appended since
the last one.

Job lifecycle markers (``job_queued`` / ``job_started`` /
``job_resumed`` / ``job_finished`` / ``job_failed`` /
``job_cancelled`` / ``job_interrupted``) share the stream with the
campaign's own ``trial_*`` / ``cell_*`` / ``campaign_finished``
events; they carry ``job``, ``tenant`` and ``state`` fields instead
of trial progress.  Logs are read back as plain dicts, so logs that
older versions wrote (with ``shard_*`` or ``job_degraded`` events)
still read.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from ..campaign import CampaignEvent
from ..campaign.store import (append_json_line, json_objects,
                              read_json_objects)

#: Lifecycle event kinds the service adds to the campaign protocol.
JOB_QUEUED = "job_queued"
JOB_STARTED = "job_started"
JOB_RESUMED = "job_resumed"
JOB_FINISHED = "job_finished"
JOB_FAILED = "job_failed"
JOB_CANCELLED = "job_cancelled"
JOB_INTERRUPTED = "job_interrupted"

JOB_EVENT_KINDS = (JOB_QUEUED, JOB_STARTED, JOB_RESUMED, JOB_FINISHED,
                   JOB_FAILED, JOB_CANCELLED, JOB_INTERRUPTED)


def job_event(kind: str, job) -> dict:
    """A lifecycle event payload for ``job`` (a :class:`~repro.
    service.jobs.Job`)."""
    data = {"kind": kind, "job": job.id, "tenant": job.tenant,
            "state": job.state, "done": job.done, "total": job.total}
    if job.error:
        data["error"] = job.error
    return data


class EventLog:
    """Append/tail access to one job's ``events.jsonl``."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._seq: Optional[int] = None

    # -- writing -----------------------------------------------------------

    def _next_seq_locked(self) -> int:
        if self._seq is None:
            last = 0
            for seq, _event in self._read(0):
                last = seq
            self._seq = last
        self._seq += 1
        return self._seq

    def append(self, event) -> int:
        """Append one event (a :class:`CampaignEvent` or a plain event
        dict); returns its sequence number."""
        payload = event.to_dict() if isinstance(event, CampaignEvent) \
            else dict(event)
        with self._lock:
            seq = self._next_seq_locked()
            payload["seq"] = seq
            payload["ts"] = round(time.time(), 3)
            append_json_line(self.path, payload)
        return seq

    # -- reading -----------------------------------------------------------

    def _read(self, after_seq: int):
        return _sequenced(read_json_objects(self.path), after_seq)

    def read(self, after_seq: int = 0) -> List[Tuple[int, dict]]:
        """Every intact event with ``seq > after_seq``, in order."""
        return list(self._read(after_seq))

    def follow(self, after_seq: int = 0, offset: int = 0
               ) -> Tuple[List[Tuple[int, dict]], int]:
        """A follower's read: every intact event with ``seq >
        after_seq`` in the complete lines from byte ``offset`` on, and
        the offset just past those lines.

        Passing that offset back reads only what was appended since.
        An unterminated last line (an append in flight, or a killed
        writer's torn tail) stays unread until a newline completes it;
        a torn fragment then reads as a skipped line, as in
        :meth:`read`.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return [], offset
        with handle:
            handle.seek(offset)
            data = handle.read()
        end = data.rfind(b"\n") + 1
        events = list(_sequenced(json_objects(data[:end].splitlines()),
                                 after_seq))
        return events, offset + end


def _sequenced(objects, after_seq):
    """``(seq, event)`` for each event of ``objects`` with an integer
    ``seq > after_seq``."""
    for event in objects:
        seq = event.get("seq")
        if isinstance(seq, int) and seq > after_seq:
            yield seq, event
