"""The asyncio HTTP front-end of the campaign service.

A deliberately small, dependency-free HTTP/1.1 server
(:func:`asyncio.start_server` plus a hand-rolled request parser — the
stdlib's synchronous ``http.server`` cannot stream SSE to many clients
from one thread, and the paper-repro ethos of this repo is explicit
mechanisms over frameworks).  The API surface:

=======  ==============================  =================================
Method   Path                            Meaning
=======  ==============================  =================================
GET      ``/healthz``                    liveness + drain flag
POST     ``/api/jobs``                   submit ``{tenant, spec,
                                         options?, priority?, shards?}``
GET      ``/api/jobs``                   list jobs (``?tenant=`` filter)
GET      ``/api/jobs/<id>``              one job's status summary
POST     ``/api/jobs/<id>/cancel``       cancel queued/running job
GET      ``/api/jobs/<id>/events``       SSE progress stream
                                         (``?after=<seq>&follow=0|1``)
GET      ``/api/jobs/<id>/result``       merged aggregates
                                         (``?records=1`` adds records)
GET      ``/api/tenants``                fairness report
=======  ==============================  =================================

The SSE stream serializes the campaign's typed event protocol: each
frame is ``id: <seq>`` / ``event: <kind>`` / ``data: <event json>``,
where ``kind`` is ``trial_started`` / ``trial_finished`` /
``cell_finished`` / ``cell_converged`` / ``campaign_finished`` or
one of the service's ``job_*`` lifecycle markers, and the data
payload is the :meth:`~repro.campaign.api.CampaignEvent.to_dict`
wire form.  Frames replay from ``?after=<seq>`` (the log survives
restarts), then tail live until the job reaches a terminal state; a
final ``stream_end`` event closes the stream.

Error mapping: bad input 400, unknown job 404, a job whose file the
service skipped at start-up 410 (with the reason), quota exceeded 429,
draining 503.

On start the server writes ``service.json`` (URL, pid) into the data
dir so drivers — ``repro-ft load`` and the CI smoke test — can
discover a ``--port 0`` ephemeral binding.  SIGTERM/SIGINT trigger a
graceful drain: stop accepting, interrupt running jobs after their
in-flight trials land, leave queued jobs queued; a later ``serve`` on
the same data dir resumes all of them from their stores.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (ConfigError, JobGoneError, QuotaError, ReproError,
                      ServiceError)
from .backend import SERVICE_POLL_INTERVAL, ServiceBackend
from .scheduler import TenantConfig

SERVICE_FILE = "service.json"
_MAX_BODY = 16 * 1024 * 1024
_MAX_HEADER = 64 * 1024


def parse_tenant_arg(text: str) -> TenantConfig:
    """``name[:weight[:max_running[:max_queued]]]`` → TenantConfig."""
    parts = text.split(":")
    if not parts[0]:
        raise ConfigError("tenant spec %r has an empty name" % text)
    try:
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        max_running = int(parts[2]) if len(parts) > 2 and parts[2] \
            else None
        max_queued = int(parts[3]) if len(parts) > 3 and parts[3] \
            else None
    except ValueError:
        raise ConfigError("malformed tenant spec %r (want "
                          "name[:weight[:max_running[:max_queued]]])"
                          % text)
    if len(parts) > 4:
        raise ConfigError("malformed tenant spec %r (too many fields)"
                          % text)
    return TenantConfig(name=parts[0], weight=weight,
                        max_running=max_running, max_queued=max_queued)


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {200: "OK", 201: "Created", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                410: "Gone",
                413: "Payload Too Large", 429: "Too Many Requests",
                500: "Internal Server Error",
                503: "Service Unavailable"}


class CampaignServer:
    """One listening socket over one :class:`ServiceBackend`."""

    def __init__(self, backend: ServiceBackend,
                 host: str = "127.0.0.1", port: int = 0):
        self.backend = backend
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._write_service_file()

    def _write_service_file(self):
        path = os.path.join(self.backend.data_dir, SERVICE_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"host": self.host, "port": self.port,
                       "url": "http://%s:%d" % (self.host, self.port),
                       "pid": os.getpid(),
                       "started_at": time.time()},
                      handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    async def close(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                try:
                    done = await self._dispatch(
                        method, target, body, writer)
                except _HttpError as exc:
                    self._send_json(writer, exc.status,
                                    {"error": str(exc)},
                                    keep_alive=keep_alive)
                except (ConnectionResetError, BrokenPipeError):
                    return
                except Exception as exc:    # noqa: BLE001 — one bad
                    # request must not take the listener down.
                    self._send_json(writer, 500,
                                    {"error": "%s: %s"
                                     % (type(exc).__name__, exc)},
                                    keep_alive=keep_alive)
                else:
                    if done == "stream":
                        return      # SSE streams close the connection
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader) -> Optional[Tuple]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request header too large")
        if len(head) > _MAX_HEADER:
            raise _HttpError(413, "request header too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line %r"
                             % lines[0][:80])
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # -- responses ---------------------------------------------------------

    def _send_json(self, writer, status: int, payload,
                   keep_alive: bool = True):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, _STATUS_TEXT.get(status, "Unknown"),
                   len(body),
                   "keep-alive" if keep_alive else "close"))
        writer.write(head.encode() + body)

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method, target, body, writer):
        url = urlsplit(target)
        query = {name: values[-1]
                 for name, values in parse_qs(url.query).items()}
        parts = [part for part in url.path.split("/") if part]
        if parts == ["healthz"] and method == "GET":
            report = self.backend.fairness_report()
            self._send_json(writer, 200, {
                "status": "draining" if report["draining"] else "ok",
                "slots": report["slots"]})
            return None
        if not parts or parts[0] != "api":
            raise _HttpError(404, "unknown path %r" % url.path)
        route = parts[1:]
        try:
            if route == ["jobs"]:
                if method == "POST":
                    return self._submit(writer, body)
                if method == "GET":
                    jobs = self.backend.jobs(query.get("tenant"))
                    self._send_json(writer, 200, {
                        "jobs": [job.summary() for job in jobs]})
                    return None
            elif route == ["tenants"] and method == "GET":
                self._send_json(writer, 200,
                                self.backend.fairness_report())
                return None
            elif len(route) == 2 and route[0] == "jobs" \
                    and method == "GET":
                job = self.backend.job(route[1])
                self._send_json(writer, 200, job.summary())
                return None
            elif len(route) == 3 and route[0] == "jobs":
                job_id = route[1]
                if route[2] == "cancel" and method == "POST":
                    job = self.backend.cancel(job_id)
                    self._send_json(writer, 200, job.summary())
                    return None
                if route[2] == "result" and method == "GET":
                    payload = self.backend.job_result(
                        job_id,
                        with_records=query.get("records") == "1")
                    self._send_json(writer, 200, payload)
                    return None
                if route[2] == "events" and method == "GET":
                    await self._stream_events(
                        writer, job_id,
                        after=int(query.get("after", 0) or 0),
                        follow=query.get("follow", "1") != "0")
                    return "stream"
        except QuotaError as exc:
            raise _HttpError(429, str(exc))
        except JobGoneError as exc:
            raise _HttpError(410, str(exc))
        except ServiceError as exc:
            message = str(exc)
            if message.startswith("unknown job"):
                raise _HttpError(404, message)
            if "draining" in message:
                raise _HttpError(503, message)
            raise _HttpError(400, message)
        except ConfigError as exc:
            raise _HttpError(400, str(exc))
        raise _HttpError(405 if route[:1] in (["jobs"], ["tenants"])
                         else 404,
                         "no route for %s %s" % (method, url.path))

    def _submit(self, writer, body):
        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, RecursionError) as exc:
            # RecursionError: a body nested past the parser's limit.
            raise _HttpError(400, "request body is not JSON: %s" % exc)
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        unknown = set(payload) - {"tenant", "spec", "options",
                                  "priority", "shards", "job_id"}
        if unknown:
            raise _HttpError(400, "unknown submission fields: %s"
                             % sorted(unknown))
        if "tenant" not in payload or "spec" not in payload:
            raise _HttpError(400, "submission needs 'tenant' and "
                             "'spec'")
        job = self.backend.submit(
            payload["tenant"], payload["spec"],
            options=payload.get("options"),
            priority=payload.get("priority", 0),
            shards=payload.get("shards", 0),
            job_id=payload.get("job_id"))
        self._send_json(writer, 201, job.summary())
        return None

    # -- SSE ---------------------------------------------------------------

    async def _stream_events(self, writer, job_id: str, after: int,
                             follow: bool):
        self.backend.job(job_id)        # 404 before headers go out
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        last = after
        # Where the next read starts: each poll parses only the lines
        # appended since the last one.
        offset = 0
        while True:
            # State first, then the log: the runner writes state before
            # the final event, so observing terminal + an empty read
            # means one trailing poll below catches the tail.
            terminal = self.backend.job(job_id).terminal
            events, offset = self.backend.read_events(job_id, last,
                                                      offset)
            for seq, event in events:
                last = seq
                self._write_frame(writer, seq, event)
            if events:
                await writer.drain()
            if not follow:
                break
            if terminal and not events:
                break
            await asyncio.sleep(self.backend.poll_interval)
        events, offset = self.backend.read_events(job_id, last, offset)
        for seq, event in events:
            self._write_frame(writer, seq, event)
        writer.write(b"event: stream_end\ndata: {}\n\n")
        await writer.drain()

    @staticmethod
    def _write_frame(writer, seq: int, event: dict):
        writer.write(("id: %d\nevent: %s\ndata: %s\n\n"
                      % (seq, event.get("kind", "message"),
                         json.dumps(event, sort_keys=True))).encode())


# -- CLI entry --------------------------------------------------------------

async def _serve(args) -> int:
    tenants = [parse_tenant_arg(text) for text in args.tenant or ()]
    backend = ServiceBackend(
        args.data_dir, slots=args.slots, tenants=tenants,
        poll_interval=args.poll_interval
        if args.poll_interval is not None else SERVICE_POLL_INTERVAL,
        trial_timeout=getattr(args, "trial_timeout", None))
    recovered = backend.recover()
    if recovered:
        print("recovered %d interrupted/queued job%s: %s"
              % (len(recovered), "" if len(recovered) == 1 else "s",
                 ", ".join(job.id for job in recovered)))
    skipped = backend.skipped_jobs
    if skipped:
        print("skipped %d unreadable job file%s (files kept): %s"
              % (len(skipped), "" if len(skipped) == 1 else "s",
                 "; ".join("%s (%s)" % item
                           for item in sorted(skipped.items()))))
    server = CampaignServer(backend, host=args.host, port=args.port)
    await server.start()
    print("campaign service listening on http://%s:%d (data dir %s, "
          "%d slots)" % (server.host, server.port, args.data_dir,
                         args.slots))
    sys.stdout.flush()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    await stop.wait()
    print("drain requested; interrupting running jobs after their "
          "in-flight trials land")
    sys.stdout.flush()
    await server.close()
    clean = await loop.run_in_executor(
        None, lambda: backend.drain(timeout=args.drain_timeout))
    backend.close(drain_timeout=0)
    print("drained %s" % ("cleanly" if clean else "with stragglers"))
    return 0


def run_serve(args) -> int:
    """``repro-ft serve`` entry point."""
    try:
        return asyncio.run(_serve(args))
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
