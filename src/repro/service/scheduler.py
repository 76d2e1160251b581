"""HARE-style fair allocation of the service's worker slots.

Every tenant competes for one resource: the backend's execution
slots, one process-pool worker per running trial.  An adaptive job's
extra replicates are ordinary trials and take slots like any other.
Slots are apportioned by **weighted max-min over declared demand**
(:func:`weighted_max_min`), the classic water-filling allocation.
The guarantee, precisely:

    every tenant ``i`` receives ``a_i = min(d_i, w_i * theta)`` for a
    single water level ``theta``, where ``d_i`` is the tenant's
    declared demand and ``w_i`` its configured weight.  Consequences:
    (1) *demand cap* — nobody gets more than they asked for;
    (2) *work conservation* — the full capacity is handed out
    whenever total demand covers it;
    (3) *fair share floor* — a backlogged tenant (``a_i < d_i``)
    never receives a smaller weight-normalised allocation than any
    other tenant: increasing its share is impossible without taking
    from someone at or below the same normalised level.

:func:`integral_allocation` rounds the water-filling result to whole
slots by largest remainder (weight, then tenant order break ties), so
the scheduler can grant indivisible workers while staying within one
slot of the fractional ideal.

:class:`FairScheduler` wraps the allocator with live tenant state —
weights, quotas, per-(tenant, consumer) demands, in-flight grants and
the busy-time integrals the fairness report is built from — and is
the single decision point: a job runner calls :meth:`FairScheduler.
grant` once per trial it wants to start.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..wire import Wire, integer, number, optional, text, wire

#: Numerical slack for the water-filling comparisons; demands and
#: capacities are small integers in practice, so this is generous.
_EPSILON = 1e-9


def weighted_max_min(capacity: float, demands: Sequence[float],
                     weights: Optional[Sequence[float]] = None
                     ) -> List[float]:
    """Weighted max-min (water-filling) allocation of one resource.

    Returns one allocation per demand, in order.  ``weights`` defaults
    to all-1 (plain max-min).  Demands must be >= 0 and weights > 0;
    a non-positive capacity allocates nothing.
    """
    n = len(demands)
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ConfigError("weights and demands must align (%d vs %d)"
                          % (len(weights), n))
    for demand in demands:
        if demand < 0:
            raise ConfigError("demands must be >= 0, got %r" % (demand,))
    for weight in weights:
        if weight <= 0:
            raise ConfigError("weights must be > 0, got %r" % (weight,))
    allocation = [0.0] * n
    if n == 0 or capacity <= 0:
        return allocation
    # Raise the water level theta; tenant i saturates at d_i / w_i.
    order = sorted(range(n), key=lambda i: demands[i] / weights[i])
    remaining = float(capacity)
    active_weight = float(sum(weights))
    level = 0.0
    for position, index in enumerate(order):
        saturation = demands[index] / weights[index]
        cost = (saturation - level) * active_weight
        if cost <= remaining + _EPSILON:
            remaining -= cost
            level = saturation
            allocation[index] = float(demands[index])
            active_weight -= weights[index]
        else:
            level += remaining / active_weight
            for rest in order[position:]:
                allocation[rest] = weights[rest] * level
            break
    return allocation


def integral_allocation(capacity: int, demands: Sequence[int],
                        weights: Optional[Sequence[float]] = None
                        ) -> List[int]:
    """Whole-unit weighted max-min: floor the water-filling result,
    then hand the leftover units out by largest fractional remainder
    (ties: heavier weight, then earlier index), never past a demand.

    Every allocation is within one unit of the fractional ideal, the
    demand cap and work conservation hold exactly.
    """
    fractional = weighted_max_min(capacity, demands, weights)
    if weights is None:
        weights = [1.0] * len(demands)
    base = [min(int(value + _EPSILON), demand)
            for value, demand in zip(fractional, demands)]
    target = min(int(capacity), sum(demands))
    leftover = target - sum(base)
    if leftover > 0:
        by_remainder = sorted(
            range(len(demands)),
            key=lambda i: (-(fractional[i] - base[i]), -weights[i], i))
        for index in by_remainder:
            if leftover == 0:
                break
            if base[index] < demands[index]:
                base[index] += 1
                leftover -= 1
    return base


@dataclass
class TenantConfig(Wire):
    """Declared scheduling identity of one tenant.

    ``weight`` scales the tenant's fair share; ``max_queued`` and
    ``max_running`` are admission quotas on whole jobs (``None`` =
    unlimited).
    """

    name: str = wire(text(empty=False))
    weight: float = wire(number(0, above=True), 1.0)
    max_queued: Optional[int] = wire(optional(integer(1)), None, omit=True)
    max_running: Optional[int] = wire(optional(integer(1)), None,
                                      omit=True)

    def __post_init__(self):
        self.check()


class _TenantState:
    """Live accounting for one tenant (scheduler-internal)."""

    __slots__ = ("config", "in_flight", "trials_executed",
                 "busy_seconds", "demand_seconds", "_last_stamp")

    def __init__(self, config: TenantConfig, now: float):
        self.config = config
        self.in_flight = 0              # slots currently granted
        self.trials_executed = 0        # lifetime completed trials
        self.busy_seconds = 0.0         # integral of in_flight over time
        self.demand_seconds = 0.0       # integral of min(demand, 1)>0
        self._last_stamp = now

    def integrate(self, now: float, demand: int):
        elapsed = now - self._last_stamp
        if elapsed > 0:
            self.busy_seconds += elapsed * self.in_flight
            if demand > 0 or self.in_flight > 0:
                self.demand_seconds += elapsed
        self._last_stamp = now


class FairScheduler:
    """Decides, at every grant point, which tenant a slot belongs to.

    Consumers (job runners) declare demand with :meth:`set_demand`
    under a ``(tenant, consumer)`` key; the scheduler sums demands per
    tenant, computes the integral weighted max-min allocation over the
    slot capacity, and :meth:`grant` hands a slot to the caller's
    tenant only while the tenant is under its allocation.  All methods
    are thread-safe and none blocks: a caller refused a slot asks
    again later.
    """

    def __init__(self, slots: int,
                 tenants: Sequence[TenantConfig] = (),
                 clock=time.monotonic):
        if not isinstance(slots, int) or isinstance(slots, bool) \
                or slots < 1:
            raise ConfigError("slots must be an integer >= 1, got %r"
                              % (slots,))
        self.slots = slots
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._demands: Dict[Tuple[str, str], int] = {}
        for config in tenants:
            self.register(config)

    # -- tenant registry ---------------------------------------------------

    def register(self, config: TenantConfig) -> TenantConfig:
        """Declare (or re-declare) a tenant; returns its config."""
        with self._lock:
            state = self._tenants.get(config.name)
            if state is None:
                self._tenants[config.name] = _TenantState(
                    config, self._clock())
            else:
                state.config = config
        return config

    def tenant(self, name: str) -> TenantConfig:
        """The tenant's config, auto-registering defaults on first use."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = _TenantState(TenantConfig(name=name),
                                     self._clock())
                self._tenants[name] = state
            return state.config

    def tenant_names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    # -- demand + allocation ----------------------------------------------

    def set_demand(self, tenant: str, consumer: str, demand: int):
        """Declare how many slots one consumer of ``tenant`` could use
        right now (0 removes the entry)."""
        self.tenant(tenant)
        with self._lock:
            # Integrate the elapsed window under the OLD demands
            # first, or the idle gap before a declaration would be
            # booked as time spent demanding.
            self._tick_locked()
            key = (tenant, consumer)
            if demand <= 0:
                self._demands.pop(key, None)
            else:
                self._demands[key] = demand

    def _demand_by_tenant_locked(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (tenant, _consumer), demand in self._demands.items():
            totals[tenant] = totals.get(tenant, 0) + demand
        return totals

    def _allocation_locked(self) -> Dict[str, int]:
        demands = self._demand_by_tenant_locked()
        # In-flight grants count as demand even if the consumer has
        # already lowered its declaration — a granted slot must stay
        # covered by the allocation until released.
        names = sorted(set(demands)
                       | {name for name, state in self._tenants.items()
                          if state.in_flight > 0})
        if not names:
            return {}
        vector = [max(demands.get(name, 0),
                      self._tenants[name].in_flight) for name in names]
        weights = [self._tenants[name].config.weight for name in names]
        allocation = integral_allocation(self.slots, vector, weights)
        return dict(zip(names, allocation))

    def allocation(self) -> Dict[str, int]:
        """Current integral slot allocation per demanding tenant."""
        with self._lock:
            return self._allocation_locked()

    def _tick_locked(self):
        now = self._clock()
        demands = self._demand_by_tenant_locked()
        for name, state in self._tenants.items():
            state.integrate(now, demands.get(name, 0))

    # -- grants ------------------------------------------------------------

    def grant(self, tenant: str) -> bool:
        """Try to hand one slot to ``tenant``; True on success.

        A grant succeeds while (a) a physical slot is free and (b) the
        tenant stays within its current weighted max-min allocation.
        The allocation is recomputed from live demand on every call,
        so slots freed by a departing tenant flow to the backlogged
        ones immediately.
        """
        self.tenant(tenant)
        with self._lock:
            self._tick_locked()
            state = self._tenants[tenant]
            total_in_flight = sum(s.in_flight
                                  for s in self._tenants.values())
            if total_in_flight >= self.slots:
                return False
            allocation = self._allocation_locked()
            if state.in_flight >= allocation.get(tenant, 0):
                return False
            state.in_flight += 1
            return True

    def release(self, tenant: str, executed_trials: int = 0):
        """Return one slot; ``executed_trials`` feeds the report."""
        with self._lock:
            self._tick_locked()
            state = self._tenants.get(tenant)
            if state is None or state.in_flight < 1:
                raise ConfigError(
                    "release without a matching grant for tenant %r"
                    % tenant)
            state.in_flight -= 1
            state.trials_executed += executed_trials

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The fairness report: per-tenant weights, live demand and
        allocation, and the busy-time integrals.

        ``busy_seconds`` is the integral of granted slots over time;
        ``demand_seconds`` the time the tenant had work wanting slots.
        ``busy_seconds / demand_seconds`` is therefore the average
        number of slots the tenant actually held while it wanted any —
        the number the no-starvation acceptance check compares against
        the weighted max-min share.
        """
        with self._lock:
            self._tick_locked()
            demands = self._demand_by_tenant_locked()
            allocation = self._allocation_locked()
            tenants = {}
            for name in sorted(self._tenants):
                state = self._tenants[name]
                tenants[name] = {
                    "weight": state.config.weight,
                    "demand": demands.get(name, 0),
                    "allocation": allocation.get(name, 0),
                    "in_flight": state.in_flight,
                    "trials_executed": state.trials_executed,
                    "busy_seconds": round(state.busy_seconds, 6),
                    "demand_seconds": round(state.demand_seconds, 6),
                }
            return {"slots": self.slots, "tenants": tenants}
