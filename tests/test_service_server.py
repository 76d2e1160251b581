"""The HTTP front-end, end to end over real sockets.

Runs ``repro-ft serve`` as a subprocess and drives it through
:class:`~repro.service.loadgen.ServiceClient` — covering submission,
status, SSE streaming, result fetch, cancellation and error mapping.

The headline fault-injection test (a PR satellite) SIGKILLs the whole
service process group mid-job, restarts the service on the same data
dir, and asserts the resumed job completes to records key-for-key
identical to an uninterrupted in-process run — the restart-resume
promise, proven under the least graceful failure there is.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignSession, CampaignSpec
from repro.errors import ServiceError
from repro.service.loadgen import ServiceClient

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def spec_dict(name="served", replicates=2, instructions=300):
    return CampaignSpec(name=name, workloads=("gcc",),
                        models=("SS-1",),
                        rates_per_million=(0.0, 3000.0),
                        replicates=replicates,
                        instructions=instructions).to_dict()


class ServeProcess:
    """A ``repro-ft serve`` subprocess bound to an ephemeral port."""

    def __init__(self, data_dir, slots=2, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + \
            env.get("PYTHONPATH", "")
        self.data_dir = str(data_dir)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--data-dir", self.data_dir, "--port", "0",
             "--slots", str(slots)] + list(extra),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        self.client = self._wait_ready()

    def _wait_ready(self, timeout=30.0):
        service_file = os.path.join(self.data_dir, "service.json")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise AssertionError(
                    "serve exited early:\n%s"
                    % self.process.stdout.read().decode())
            try:
                with open(service_file) as handle:
                    url = json.load(handle)["url"]
                client = ServiceClient(url, timeout=30.0)
                client.health()
                return client
            except Exception:
                time.sleep(0.1)
        raise AssertionError("serve did not come up in %.0fs" % timeout)

    def sigkill_group(self):
        os.killpg(os.getpgid(self.process.pid), signal.SIGKILL)
        self.process.wait(timeout=10)

    def terminate(self, timeout=30.0):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.sigkill_group()
        self.process.stdout.close()

    def wait_state(self, job_id, states, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            summary = self.client.job(job_id)
            if summary["state"] in states:
                return summary
            time.sleep(0.05)
        raise AssertionError("job %s stuck in %r" %
                             (job_id, self.client.job(job_id)["state"]))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    serve = ServeProcess(tmp_path_factory.mktemp("svc"))
    yield serve
    serve.terminate()


class TestHttpApi:
    def test_health(self, server):
        health = server.client.health()
        assert health["status"] == "ok"
        assert health["slots"] == 2

    def test_submit_run_events_result(self, server):
        submitted = server.client.submit("alice", spec_dict("api1"))
        assert submitted["state"] == "queued"
        assert submitted["total"] == 4
        final = server.wait_state(submitted["id"], ("done",))
        assert final["done"] == 4

        # SSE replay of the finished job's whole stream.
        events = server.client.stream_events(submitted["id"],
                                             follow=False)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job_queued"
        assert kinds.count("trial_finished") == 4
        assert "campaign_finished" in kinds
        assert kinds[-1] == "job_finished"
        # Live follow mode drains to the same stream end.
        followed = server.client.stream_events(submitted["id"],
                                               follow=True, timeout=30)
        assert [event["kind"] for event in followed] == kinds

        result = server.client.result(submitted["id"], records=True)
        plain = CampaignSession(
            CampaignSpec.from_dict(spec_dict("api1"))).run()
        assert json.dumps(result["records"], sort_keys=True) \
            == json.dumps(plain.records, sort_keys=True)
        assert result["cells"]
        assert result["records_stored"] == 4

    def test_job_listing_filters_by_tenant(self, server):
        submitted = server.client.submit("carol", spec_dict("api2"))
        server.wait_state(submitted["id"], ("done",))
        ids = [job["id"] for job in server.client.jobs("carol")]
        assert submitted["id"] in ids
        assert all(job["tenant"] == "carol"
                   for job in server.client.jobs("carol"))

    def test_cancel_then_terminal(self, server):
        submitted = server.client.submit(
            "alice", spec_dict("api3", replicates=40,
                               instructions=1_500))
        cancelled = server.client.cancel(submitted["id"])
        assert cancelled["state"] in ("queued", "running",
                                      "cancelled")
        final = server.wait_state(submitted["id"],
                                  ("cancelled", "done"))
        assert final["state"] == "cancelled"

    def test_tenants_report(self, server):
        report = server.client.tenants()
        assert report["slots"] == 2
        assert "alice" in report["tenants"]
        entry = report["tenants"]["alice"]
        assert entry["trials_executed"] > 0
        assert "busy_seconds" in entry and "demand_seconds" in entry

    def test_error_mapping(self, server):
        client = server.client
        with pytest.raises(ServiceError, match="404"):
            client.job("job-missing")
        with pytest.raises(ServiceError, match="404"):
            client.result("job-missing")
        status, _payload = client._request("GET", "/nowhere")
        assert status == 404
        status, payload = client._request("POST", "/api/jobs",
                                          {"tenant": "alice"})
        assert status == 400 and "spec" in payload["error"]
        status, _payload = client._request("POST", "/api/jobs",
                                           {"tenant": "alice",
                                            "spec": spec_dict(),
                                            "mystery": 1})
        assert status == 400
        status, _payload = client._request("DELETE", "/api/jobs")
        assert status == 405


#: Submit bodies that must fail as a 400 (never a 500) and leave the
#: service answering.
HOSTILE_BODIES = {
    "unknown-model": {"spec": dict(spec_dict(), models=["SS-9"])},
    "non-name-workload": {"spec": dict(spec_dict(), workloads=[1])},
    "scalar-rates": {"spec": dict(spec_dict(), rates_per_million=5)},
    "string-seed": {"spec": dict(spec_dict(), base_seed="s")},
    "list-mix-name": {"spec": dict(spec_dict(), mixes=[[1]])},
    "string-options": {"spec": spec_dict(), "options": "x"},
    "scalar-sampling": {"spec": spec_dict(), "options": {"sampling": 3}},
    "reference-simulator": {"spec": spec_dict(),
                            "options": {"simulator": "reference"}},
    "retired-checkpointing": {"spec": spec_dict(),
                              "options": {"checkpointing": True}},
    "fixed-plan-junk-width": {"spec": spec_dict(),
                              "options": {"sampling": {
                                  "mode": "fixed",
                                  "target_halfwidth": "x"}}},
    "list-site-structure": {"spec": dict(
        spec_dict(), rates_per_million=[0.0],
        fault_sites={"x": {"policy": "site_list",
                           "sites": [{"structure": ["pc"]}]}})},
    "list-sweep-seed": {"spec": dict(
        spec_dict(), rates_per_million=[0.0],
        fault_sites={"x": {"policy": "structure_sweep",
                           "structure": "pc", "seed": [1]}})},
    "huge-sweep-strikes": {"spec": dict(
        spec_dict(), rates_per_million=[0.0],
        fault_sites={"x": {"policy": "structure_sweep",
                           "structure": "pc", "strikes": 100_000}})},
    "copy-beyond-redundancy": {"spec": dict(
        spec_dict(), models=["SS-2"], rates_per_million=[0.0],
        fault_sites={"x": {"policy": "site_list",
                           "sites": [{"structure": "fu_result",
                                      "index": 40, "copy": 5,
                                      "bit": 7}]}})},
    "integer-job-id": {"spec": spec_dict(), "job_id": 5},
    "escaping-job-id": {"spec": spec_dict(), "job_id": "../escape"},
    # json.loads accepts the NaN and Infinity tokens a client can send.
    "nan-rate": {"spec": dict(spec_dict(),
                              rates_per_million=[0.0, float("nan")])},
    "infinity-mix-weight": {"spec": dict(
        spec_dict(), mixes={"m": {"value": float("inf")}})},
    "nan-trial-timeout": {"spec": spec_dict(),
                          "options": {"trial_timeout": float("nan")}},
    "list-name": {"spec": dict(spec_dict(), name=["served"])},
    # Work bounds: either would hold its tenant's slots for ever.
    "huge-replicates": {"spec": dict(spec_dict(), replicates=2 ** 70)},
    "huge-instructions": {"spec": dict(spec_dict(),
                                       instructions=10 ** 12)},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
def test_hostile_submit_body_is_a_400(server, name):
    body = dict(HOSTILE_BODIES[name], tenant="mallory")
    status, payload = server.client._request("POST", "/api/jobs", body)
    assert status == 400, payload
    assert server.client.health()["status"] == "ok"


def test_deeply_nested_submit_body_is_a_400(server):
    """Nested past the JSON parser's recursion limit.  Sent as raw
    bytes: the client would encode a dict first."""
    client = server.client
    connection = http.client.HTTPConnection(client.host, client.port,
                                            timeout=30.0)
    try:
        connection.request("POST", "/api/jobs", body=b"[" * 100_000,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert response.status == 400, payload
    assert client.health()["status"] == "ok"


@pytest.mark.parametrize("name,value", [
    ("persistent_workers", True),
    ("store_retry", {"attempts": 2, "base_delay": 0.5})])
def test_retired_option_submit_is_a_400_naming_it(server, name, value):
    body = {"tenant": "alice", "spec": spec_dict(),
            "options": {"workers": 1, name: value}}
    status, payload = server.client._request("POST", "/api/jobs", body)
    assert status == 400, payload
    assert name in payload["error"], payload


class TestKillRecovery:
    def test_sigkill_mid_job_then_restart_resumes_identically(
            self, tmp_path):
        data_dir = tmp_path / "svc"
        big = spec_dict("killme", replicates=24, instructions=1_500)
        first = ServeProcess(data_dir, slots=2)
        try:
            submitted = first.client.submit("alice", big)
            job_id = submitted["id"]
            deadline = time.monotonic() + 90
            while first.client.job(job_id)["done"] < 3:
                assert time.monotonic() < deadline, \
                    "job made no progress before the kill"
                time.sleep(0.05)
        except BaseException:
            first.terminate()
            raise
        # The least graceful failure: SIGKILL the whole process group
        # mid-campaign. No drain, no flush, no goodbye.
        first.sigkill_group()

        store_path = os.path.join(str(data_dir), "jobs", job_id,
                                  "store.jsonl")
        partial = sum(1 for line in open(store_path) if line.strip())
        assert partial >= 3

        second = ServeProcess(data_dir, slots=2)
        try:
            recovered = second.client.job(job_id)
            assert recovered["state"] in ("queued", "running", "done")
            final = second.wait_state(job_id, ("done",))
            assert final["done"] == 24 * 2
            served = second.client.result(job_id,
                                          records=True)["records"]
            plain = CampaignSession(
                CampaignSpec.from_dict(big)).run()
            # Key-for-key identical to a run that was never killed.
            assert [record["key"] for record in served] \
                == [record["key"] for record in plain.records]
            assert json.dumps(served, sort_keys=True) \
                == json.dumps(plain.records, sort_keys=True)
            kinds = [event["kind"] for event in
                     second.client.stream_events(job_id, follow=False)]
            assert "job_resumed" in kinds
        finally:
            second.terminate()


def test_startup_names_unreadable_job_files(tmp_path):
    data_dir = tmp_path / "svc"
    for job_id, options in (("job-unknown", {"workers": 1, "turbo": 1}),
                            ("job-torn", {"workers": 1})):
        job_dir = data_dir / "jobs" / job_id
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(json.dumps({
            "id": job_id, "tenant": "alice",
            "spec": spec_dict(name=job_id), "options": options,
            "state": "running", "submitted_at": 1.0}))
    torn = data_dir / "jobs" / "job-torn" / "job.json"
    torn.write_text(torn.read_text()[:40])
    serve = ServeProcess(data_dir)
    try:
        for method, path in (("GET", "/api/jobs/job-unknown"),
                             ("GET", "/api/jobs/job-unknown/result"),
                             ("GET", "/api/jobs/job-unknown/events"),
                             ("POST", "/api/jobs/job-unknown/cancel")):
            status, payload = serve.client._request(method, path)
            assert status == 410, (path, payload)
            assert "turbo" in payload["error"], (path, payload)
        status, payload = serve.client._request(
            "GET", "/api/jobs/job-never-submitted")
        assert status == 404, payload
    finally:
        serve.process.send_signal(signal.SIGTERM)
        output = serve.process.communicate(timeout=60)[0].decode()
    (line,) = [line for line in output.splitlines()
               if line.startswith("skipped")]
    assert line.startswith("skipped 2 unreadable job files")
    assert "job-torn (corrupt job file" in line
    assert "job-unknown (corrupt job file" in line and "turbo" in line
