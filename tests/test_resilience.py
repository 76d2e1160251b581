"""The resilience layer: retry/backoff, the retrying store decorator,
and the pool supervisor.

The primitives are tested with fake sleeps (no wall-clock waits); the
:class:`PoolSupervisor` tests run a real ``ProcessPoolExecutor`` and
really kill/hang its workers, because the recovery path under test is
exactly the interaction with a broken pool.
"""

import json
import math
import os
import signal
import statistics
import time

import pytest

from repro.campaign.store import JSONLStore, RetryingStore
from repro.errors import ConfigError, ResilienceError, TrialHangError
from repro.resilience import RetryPolicy
from repro.resilience.watchdog import PoolSupervisor


# -- RetryPolicy -------------------------------------------------------------

class TestRetryPolicy:
    def test_delays_grow_exponentially_within_jitter(self):
        policy = RetryPolicy(attempts=5, base_delay=1.0, multiplier=2.0,
                             jitter=0.1, seed=7)
        delays = [policy.delay(attempt) for attempt in range(4)]
        for attempt, delay in enumerate(delays):
            nominal = 2.0 ** attempt
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_delays_are_deterministic_per_seed_and_token(self):
        policy = RetryPolicy(seed=7)
        assert [policy.delay(i, token="a") for i in range(4)] \
            == [policy.delay(i, token="a") for i in range(4)]
        assert policy.delay(1, token="a") != policy.delay(1, token="b")
        assert RetryPolicy(seed=7).delay(1) != RetryPolicy(seed=8).delay(1)

    def test_delay_is_capped_at_max_delay(self):
        policy = RetryPolicy(attempts=10, base_delay=1.0,
                             multiplier=10.0, max_delay=5.0, jitter=0.0)
        assert policy.delay(6) == 5.0

    def test_call_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        policy = RetryPolicy(attempts=3, base_delay=0.5, jitter=0.0)
        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert slept == [0.5, 1.0]

    def test_call_exhausts_attempts_and_reraises(self):
        policy = RetryPolicy(attempts=2, base_delay=0.1, jitter=0.0)
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("x")),
                        sleep=lambda _d: None)

    def test_call_does_not_retry_unlisted_exceptions(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("not transient")

        policy = RetryPolicy(attempts=5)
        with pytest.raises(ValueError):
            policy.call(boom, sleep=lambda _d: None)
        assert len(calls) == 1

    @pytest.mark.parametrize("kwargs", [
        {"attempts": 0}, {"base_delay": -0.1}, {"multiplier": 0.5},
        {"jitter": -0.1}, {"jitter": 1.5}, {"max_delay": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


# -- RetryingStore -----------------------------------------------------------

class FlakyStore(JSONLStore):
    """Fails the first ``failures`` appends/loads with OSError."""

    def __init__(self, path, failures=2):
        super().__init__(path)
        self.failures = failures
        self.attempts = 0

    def append(self, record):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError("injected write failure %d" % self.attempts)
        super().append(record)


class TestRetryingStore:
    def test_transient_append_failures_are_retried(self, tmp_path):
        flaky = FlakyStore(str(tmp_path / "s.jsonl"), failures=2)
        store = RetryingStore(flaky, policy=RetryPolicy(
            attempts=3, base_delay=0.001, jitter=0.0))
        store.append({"key": "k1", "outcome": "masked"})
        assert store.retried == 2
        assert [r["key"] for r in store.load()] == ["k1"]
        assert store.completed_keys() == {"k1"}

    def test_persistent_failures_reraise(self, tmp_path):
        flaky = FlakyStore(str(tmp_path / "s.jsonl"), failures=99)
        store = RetryingStore(flaky, policy=RetryPolicy(
            attempts=2, base_delay=0.001, jitter=0.0))
        with pytest.raises(OSError):
            store.append({"key": "k1"})

    def test_delegates_the_whole_backend_surface(self, tmp_path):
        inner = JSONLStore(str(tmp_path / "s.jsonl"))
        store = RetryingStore(inner)
        assert not store.exists
        store.truncate()
        store.append({"key": "a", "outcome": "masked"})
        store.append({"key": "a", "outcome": "masked"})
        assert store.exists
        assert store.path == inner.path
        kept, dropped = store.compact()
        assert (kept, dropped) == (1, 1)


# -- PoolSupervisor ----------------------------------------------------------
#
# Worker functions must be module-level (pickled into the pool).  The
# cross-process state that makes "fail once, succeed on resubmit"
# deterministic is a flag file handed in via the payload.

def _work_ok(payload):
    return {"key": payload["key"], "value": payload["key"].upper()}


def _die_once(payload):
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"key": payload["key"], "value": "recovered"}


def _hang_once(payload):
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(600)
    return {"key": payload["key"], "value": "recovered"}


def _hang_forever(payload):
    time.sleep(600)


class SupervisedPool:
    """A tiny stand-in for the session/backend pool holders."""

    def __init__(self, workers=1):
        self.workers = workers
        self.pool = None
        self.resets = 0

    def get(self):
        from concurrent.futures import ProcessPoolExecutor
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self.pool

    def reset(self, broken=None):
        pool = self.pool
        if pool is None or (broken is not None and pool is not broken):
            return
        self.pool = None
        self.resets += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)
            self.pool = None


class TestPoolSupervisor:
    def test_plain_results_come_back_with_context(self):
        holder = SupervisedPool()
        supervisor = PoolSupervisor(get_pool=holder.get,
                                    reset_pool=holder.reset)
        try:
            supervisor.submit("a", _work_ok, {"key": "a"}, context="A")
            supervisor.submit("b", _work_ok, {"key": "b"}, context="B")
            results = dict(supervisor.drain())
        finally:
            holder.shutdown()
        assert results == {"A": {"key": "a", "value": "A"},
                           "B": {"key": "b", "value": "B"}}

    def test_killed_worker_rebuilds_pool_and_resubmits(self, tmp_path):
        holder = SupervisedPool()
        resubmitted = []
        supervisor = PoolSupervisor(
            get_pool=holder.get, reset_pool=holder.reset,
            trial_retries=2,
            on_resubmit=lambda ctx, attempt: resubmitted.append(ctx))
        try:
            supervisor.submit("k", _die_once,
                              {"key": "k",
                               "flag": str(tmp_path / "died")},
                              context="K")
            results = dict(supervisor.drain())
        finally:
            holder.shutdown()
        assert results == {"K": {"key": "k", "value": "recovered"}}
        assert resubmitted == ["K"]
        assert supervisor.recoveries >= 1
        assert holder.resets >= 1

    def test_hung_trial_is_killed_and_resubmitted(self, tmp_path):
        holder = SupervisedPool()
        supervisor = PoolSupervisor(
            get_pool=holder.get, reset_pool=holder.reset,
            trial_timeout=1.0, trial_retries=2)
        try:
            supervisor.submit("k", _hang_once,
                              {"key": "k",
                               "flag": str(tmp_path / "hung")},
                              context="K")
            results = dict(supervisor.drain())
        finally:
            holder.shutdown()
        assert results == {"K": {"key": "k", "value": "recovered"}}
        assert supervisor.hangs >= 1

    def test_trial_hanging_past_its_retry_budget_raises(self):
        holder = SupervisedPool()
        supervisor = PoolSupervisor(
            get_pool=holder.get, reset_pool=holder.reset,
            trial_timeout=0.5, trial_retries=0)
        try:
            supervisor.submit("k", _hang_forever, {"key": "k"})
            with pytest.raises(TrialHangError):
                supervisor.drain()
        finally:
            holder.shutdown()

    def test_trial_hang_error_is_a_resilience_error(self):
        assert issubclass(TrialHangError, ResilienceError)


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf, 0, -1])
def test_trial_timeout_is_finite_and_positive_everywhere(tmp_path,
                                                         timeout):
    """One rule for the per-trial deadline: the supervisor, the
    service's backend-wide default and ``ExecutionOptions`` all refuse
    one that is not finite and > 0.  A NaN deadline never expires, so
    it would silently turn off the only hang detector."""
    from repro.campaign import ExecutionOptions
    from repro.service import ServiceBackend
    holder = SupervisedPool()
    for build in (
            lambda: PoolSupervisor(holder.get, holder.reset,
                                   trial_timeout=timeout),
            lambda: ServiceBackend(str(tmp_path), trial_timeout=timeout),
            lambda: ExecutionOptions(trial_timeout=timeout)):
        with pytest.raises(ConfigError, match="trial_timeout"):
            build()


class TestSessionTrialDeadline:
    def test_pool_deadline_counts_from_dispatch_not_from_the_queue(self):
        """A pooled session hands its pool at most ``workers`` trials,
        so a trial's deadline never includes time spent queued.  The
        deadline is 8x the median serial trial (every trial stays well
        under it) while the pooled run lasts several deadlines:
        submitting the whole grid up front expired the queued tail and
        exhausted its retry budget."""
        from repro.campaign import (CampaignSession, CampaignSpec,
                                    ExecutionOptions, TRIAL_FINISHED,
                                    TRIAL_STARTED)
        spec = CampaignSpec(name="deadline", workloads=("gcc",),
                            models=("SS-1",),
                            rates_per_million=(3000.0,),
                            replicates=60, instructions=1000)
        serial = CampaignSession(spec)
        spans, started = [], {}

        def clock(event):
            if event.kind == TRIAL_STARTED:
                started["at"] = time.perf_counter()
            elif event.kind == TRIAL_FINISHED:
                spans.append(time.perf_counter() - started["at"])

        serial.subscribe(clock)
        expected = serial.run().records
        timeout = max(0.25, 8 * statistics.median(spans))
        pooled = CampaignSession(spec, options=ExecutionOptions(
            workers=2, trial_timeout=timeout)).run()
        assert pooled.records == expected


# -- ExecutionOptions resilience fields --------------------------------------

class TestExecutionOptionsResilience:
    def test_defaults_leave_the_wire_form_unchanged(self):
        # Worker payloads and persisted job files from pre-resilience
        # runs must stay loadable: at defaults, none of the new
        # fields appear on the wire.
        from repro.campaign import ExecutionOptions
        wire = ExecutionOptions().to_dict()
        assert "trial_timeout" not in wire
        assert "trial_retries" not in wire
        assert ExecutionOptions.from_dict(wire) == ExecutionOptions()

    def test_resilience_fields_round_trip(self):
        from repro.campaign import ExecutionOptions
        options = ExecutionOptions(trial_timeout=4.0, trial_retries=5)
        wire = json.loads(json.dumps(options.to_dict(),
                                     sort_keys=True))
        assert ExecutionOptions.from_dict(wire) == options
