"""The service's fair scheduler: weighted max-min properties.

The headline property test (a PR satellite) checks the allocator
against the *definition* of weighted max-min fairness, not against
examples: for every random capacity/demand/weight instance there must
exist a single water level theta with ``a_i = min(d_i, w_i * theta)``,
demands capped, capacity conserved, and no backlogged tenant below the
common level.  The integral allocator must stay within one slot of the
fractional ideal while conserving whole-slot capacity exactly.
"""

import sys
import threading
import time

import pytest

pytest.importorskip(
    "hypothesis",
    reason="property suite needs the optional 'test' extra "
           "(pip install .[test])")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service.scheduler import (FairScheduler, ReplicateBudget,
                                     SlotPool, TenantConfig,
                                     integral_allocation,
                                     weighted_max_min)

# -- strategies -------------------------------------------------------------

demands_st = st.lists(st.integers(min_value=0, max_value=50),
                      min_size=1, max_size=8)
weights_st = st.floats(min_value=0.1, max_value=8.0,
                       allow_nan=False, allow_infinity=False)
capacity_st = st.integers(min_value=1, max_value=40)

_TOL = 1e-6


def _weights_for(demands, weights):
    return (weights * len(demands))[:len(demands)]


# -- weighted max-min: the fairness definition ------------------------------

class TestWeightedMaxMinProperties:
    @given(capacity=capacity_st, demands=demands_st,
           weights=st.lists(weights_st, min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_allocation_is_weighted_max_min(self, capacity, demands,
                                            weights):
        weights = _weights_for(demands, weights)
        allocation = weighted_max_min(capacity, demands, weights)

        # (1) demand cap: nobody exceeds what they asked for.
        for alloc, demand in zip(allocation, demands):
            assert -_TOL <= alloc <= demand + _TOL

        # (2) work conservation: all capacity is out whenever total
        # demand covers it, and never more than min(capacity, demand).
        expected = min(capacity, sum(demands))
        assert abs(sum(allocation) - expected) < 1e-6 * max(1, expected)

        # (3) single water level: unsaturated tenants sit at a common
        # normalised level theta, and no saturated tenant is above it.
        unsaturated = [index for index in range(len(demands))
                       if allocation[index] < demands[index] - _TOL]
        if unsaturated:
            theta = allocation[unsaturated[0]] / weights[unsaturated[0]]
            for index in unsaturated:
                assert allocation[index] / weights[index] \
                    == pytest.approx(theta, abs=1e-6)
            for index in range(len(demands)):
                if index not in unsaturated:
                    # Saturated at d_i: its normalised level cannot
                    # exceed the water level (else it took from a
                    # backlogged tenant).
                    assert demands[index] / weights[index] \
                        <= theta + 1e-6

    @given(capacity=capacity_st, demands=demands_st)
    @settings(max_examples=100, deadline=None)
    def test_unweighted_equals_weight_one(self, capacity, demands):
        assert weighted_max_min(capacity, demands) == \
            weighted_max_min(capacity, demands, [1.0] * len(demands))

    @given(capacity=capacity_st, demands=demands_st,
           weights=st.lists(weights_st, min_size=8, max_size=8),
           scale=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_of_weights(self, capacity, demands,
                                         weights, scale):
        weights = _weights_for(demands, weights)
        base = weighted_max_min(capacity, demands, weights)
        scaled = weighted_max_min(capacity, demands,
                                  [weight * scale for weight in weights])
        for a, b in zip(base, scaled):
            assert a == pytest.approx(b, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            weighted_max_min(4, [1, -1])
        with pytest.raises(ConfigError):
            weighted_max_min(4, [1, 1], [1.0, 0.0])
        with pytest.raises(ConfigError):
            weighted_max_min(4, [1, 1], [1.0])
        assert weighted_max_min(0, [3, 3]) == [0.0, 0.0]
        assert weighted_max_min(4, []) == []


class TestIntegralAllocation:
    @given(capacity=capacity_st, demands=demands_st,
           weights=st.lists(weights_st, min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_integral_tracks_the_fractional_ideal(self, capacity,
                                                  demands, weights):
        weights = _weights_for(demands, weights)
        fractional = weighted_max_min(capacity, demands, weights)
        integral = integral_allocation(capacity, demands, weights)
        assert sum(integral) == min(capacity, sum(demands))
        for whole, ideal, demand in zip(integral, fractional, demands):
            assert 0 <= whole <= demand
            assert abs(whole - ideal) < 1.0 + _TOL

    def test_largest_remainder_prefers_heavier_weight(self):
        # 3 slots, two tenants wanting everything: 2:1 weights give
        # fractional 2.0/1.0 — exact; with 4 slots it's 2.67/1.33 and
        # the leftover slot goes to the heavier tenant.
        assert integral_allocation(3, [3, 3], [2.0, 1.0]) == [2, 1]
        assert integral_allocation(4, [4, 4], [2.0, 1.0]) == [3, 1]

    def test_leftover_never_exceeds_a_demand(self):
        assert integral_allocation(10, [1, 2], [1.0, 1.0]) == [1, 2]


# -- TenantConfig -----------------------------------------------------------

class TestTenantConfig:
    def test_round_trip(self):
        config = TenantConfig(name="alice", weight=2.5, max_queued=3,
                              max_running=1)
        assert TenantConfig.from_dict(config.to_dict()) == config

    def test_defaults_omitted_from_dict(self):
        assert TenantConfig(name="bob").to_dict() == \
            {"name": "bob", "weight": 1.0}

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "weight": 0},
        {"name": "x", "weight": -1.0},
        {"name": "x", "weight": True},
        {"name": "x", "max_queued": 0},
        {"name": "x", "max_running": -2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TenantConfig(**kwargs)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            TenantConfig.from_dict({"name": "x", "mystery": 1})


# -- FairScheduler grants ---------------------------------------------------

class TestFairScheduler:
    def test_grants_respect_the_allocation(self):
        scheduler = FairScheduler(
            4, [TenantConfig("alice", weight=3.0),
                TenantConfig("bob", weight=1.0)])
        scheduler.set_demand("alice", "j1", 10)
        scheduler.set_demand("bob", "j2", 10)
        assert scheduler.allocation() == {"alice": 3, "bob": 1}
        assert [scheduler.grant("alice") for _ in range(4)] == \
            [True, True, True, False]
        assert scheduler.grant("bob") is True
        assert scheduler.grant("bob") is False      # pool exhausted

    def test_freed_slots_flow_to_the_backlogged_tenant(self):
        scheduler = FairScheduler(2, [TenantConfig("alice"),
                                      TenantConfig("bob")])
        scheduler.set_demand("alice", "j1", 5)
        assert scheduler.grant("alice") and scheduler.grant("alice")
        scheduler.set_demand("bob", "j2", 5)
        # Equal weights, both demanding: alice is over her share of 1
        # and cannot re-acquire after a release, bob can.
        scheduler.release("alice", executed_trials=1)
        assert scheduler.grant("alice") is False
        assert scheduler.grant("bob") is True

    def test_in_flight_counts_as_demand(self):
        scheduler = FairScheduler(2)
        scheduler.set_demand("alice", "j1", 2)
        assert scheduler.grant("alice") and scheduler.grant("alice")
        scheduler.set_demand("alice", "j1", 0)
        # Demand withdrawn but slots still held: the allocation must
        # keep covering them so release accounting stays consistent.
        assert scheduler.allocation() == {"alice": 2}
        scheduler.release("alice")
        scheduler.release("alice")
        assert scheduler.allocation() == {}

    def test_release_without_grant_raises(self):
        scheduler = FairScheduler(2)
        with pytest.raises(ConfigError, match="release"):
            scheduler.release("ghost")

    def test_report_shape_and_busy_accounting(self):
        clock = {"now": 0.0}
        scheduler = FairScheduler(2, [TenantConfig("alice")],
                                  clock=lambda: clock["now"])
        scheduler.set_demand("alice", "j1", 2)
        assert scheduler.grant("alice")
        clock["now"] = 2.0
        scheduler.release("alice", executed_trials=7)
        report = scheduler.report()
        entry = report["tenants"]["alice"]
        assert report["slots"] == 2
        assert entry["trials_executed"] == 7
        assert entry["busy_seconds"] == pytest.approx(2.0)
        assert entry["demand_seconds"] == pytest.approx(2.0)

    def test_idle_time_before_demand_is_not_booked(self):
        clock = {"now": 0.0}
        scheduler = FairScheduler(2, [TenantConfig("alice")],
                                  clock=lambda: clock["now"])
        clock["now"] = 100.0        # long idle gap after registration
        scheduler.set_demand("alice", "j1", 1)
        clock["now"] = 101.0
        report = scheduler.report()
        assert report["tenants"]["alice"]["demand_seconds"] == \
            pytest.approx(1.0)


class TestSlotPool:
    def test_nonblocking_acquire_and_release(self):
        pool = SlotPool(FairScheduler(1))
        pool.set_demand("alice", "j1", 1)
        assert pool.acquire("alice", timeout=0) is True
        assert pool.acquire("alice", timeout=0) is False
        pool.release("alice")
        assert pool.acquire("alice", timeout=0) is True

    def test_timeout_expires(self):
        pool = SlotPool(FairScheduler(1))
        pool.set_demand("alice", "j1", 2)
        assert pool.acquire("alice", timeout=0)
        assert pool.acquire("alice", timeout=0.05) is False

    def test_single_grants_under_contention(self):
        """More threads than cores acquire and release one slot at a
        time under mixed demands: the held slots never exceed the
        pool, and every thread finishes."""
        pool = SlotPool(FairScheduler(3))
        held = {"now": 0, "peak": 0}
        lock = threading.Lock()
        failures = []

        def worker(index):
            tenant = "t%d" % (index % 3)
            pool.set_demand(tenant, "c%d" % index, 1 + index % 2)
            for _ in range(40):
                if not pool.acquire(tenant, timeout=20.0):
                    failures.append(index)
                    return
                with lock:
                    held["now"] += 1
                    held["peak"] = max(held["peak"], held["now"])
                time.sleep(0)       # hold the slot across a switch
                with lock:
                    held["now"] -= 1
                pool.release(tenant)
            pool.set_demand(tenant, "c%d" % index, 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert held["peak"] <= 3
        assert all(entry["in_flight"] == 0 for entry in
                   pool.scheduler.report()["tenants"].values())


class TestReplicateBudget:
    def test_unpaced_budget_always_grants(self):
        budget = ReplicateBudget(FairScheduler(2))
        assert all(budget.try_take("alice") for _ in range(100))

    def test_epoch_budget_splits_by_weight(self):
        clock = {"now": 0.0}
        scheduler = FairScheduler(
            2, [TenantConfig("alice", weight=2.0),
                TenantConfig("bob", weight=1.0)])
        budget = ReplicateBudget(scheduler, budget=3, epoch=1.0,
                                 clock=lambda: clock["now"])
        budget.set_demand("alice", 10)
        budget.set_demand("bob", 10)
        grants = {"alice": 0, "bob": 0}
        for _ in range(10):
            for tenant in grants:
                if budget.try_take(tenant):
                    grants[tenant] += 1
        assert grants == {"alice": 2, "bob": 1}
        # The next epoch refills the shares.
        clock["now"] = 1.5
        assert budget.try_take("alice")

    def test_refusal_is_pacing_not_capping(self):
        clock = {"now": 0.0}
        budget = ReplicateBudget(FairScheduler(2), budget=1,
                                 epoch=1.0,
                                 clock=lambda: clock["now"])
        budget.set_demand("alice", 5)
        taken = 0
        for epoch in range(5):
            clock["now"] = float(epoch)
            if budget.try_take("alice"):
                taken += 1
            assert budget.try_take("alice") is False
        assert taken == 5       # every epoch pays out; nothing is lost

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReplicateBudget(FairScheduler(1), budget=0)
        with pytest.raises(ConfigError):
            ReplicateBudget(FairScheduler(1), epoch=0.0)
