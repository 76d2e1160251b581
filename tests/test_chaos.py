"""The chaos harness: seeded schedules and real disturbed runs.

The end-to-end tests here use explicit early-firing schedules and a
reduced grid so the whole file stays inside a CI budget; the
full-size seeded runs live in the ``chaos-smoke`` CI job
(``repro-ft chaos``).
"""

import pytest

from repro.errors import ConfigError
from repro.resilience.chaos import (ChaosOp, ChaosSchedule, KILL,
                                    STALL, run_service_chaos)

SMALL_SPEC = {
    "name": "chaos-test",
    "workloads": ["gcc"],
    "models": ["SS-1", "SS-2"],
    "rates_per_million": [0.0, 3000.0],
    "replicates": 8,
    "instructions": 3000,
}


class TestChaosSchedule:
    def test_deterministic_per_seed(self):
        one = ChaosSchedule.generate(42, kills=2, stalls=1)
        two = ChaosSchedule.generate(42, kills=2, stalls=1)
        assert [op.as_dict() for op in one.ops] \
            == [op.as_dict() for op in two.ops]
        other = ChaosSchedule.generate(43, kills=2, stalls=1)
        assert [op.as_dict() for op in one.ops] \
            != [op.as_dict() for op in other.ops]

    def test_counts_and_ordering(self):
        schedule = ChaosSchedule.generate(7, kills=2, stalls=3)
        assert schedule.counts() == {KILL: 2, STALL: 3}
        assert schedule.applied_counts() == {KILL: 0, STALL: 0}
        assert not schedule.all_applied()
        times = [op.at for op in schedule.ops]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosSchedule.generate(0, kills=-1)
        with pytest.raises(ConfigError):
            ChaosSchedule.generate(0, horizon=0.0)


class TestServiceChaos:
    def test_killed_pool_worker_jobs_still_finish_identical(
            self, tmp_path):
        schedule = ChaosSchedule([ChaosOp(at=0.3, kind=KILL)])
        report = run_service_chaos(
            str(tmp_path / "svc"), jobs=2, slots=2,
            trial_timeout=5.0, spec=SMALL_SPEC, schedule=schedule)
        assert report["error"] == ""
        assert report["ops_applied"][KILL] == 1
        assert report["all_done"]
        assert report["records_mismatched"] == []
        assert report["ledger_ok"]
        assert report["ok"]

    def test_stalled_pool_worker_is_recovered_by_the_trial_deadline(
            self, tmp_path):
        """A SIGSTOPped pool worker never exits on its own; the
        per-trial deadline alone must detect it, kill the pool and
        resubmit, with every job still identical to a clean run."""
        schedule = ChaosSchedule([ChaosOp(at=0.3, kind=STALL)])
        report = run_service_chaos(
            str(tmp_path / "svc"), jobs=2, slots=2, trial_timeout=2.0,
            spec=SMALL_SPEC, schedule=schedule)
        assert report["error"] == ""
        assert report["ops_applied"][STALL] == 1
        assert report["all_done"]
        assert report["records_mismatched"] == []
        assert report["ok"]
