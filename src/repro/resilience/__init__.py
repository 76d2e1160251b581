"""Fault tolerance for the campaign stack, one layer up.

The paper's thesis is detect-and-recover inside the datapath; this
package reproduces the pattern at infrastructure level so the
session and service layers survive the same class of faults we
inject into the simulated machine:

* :mod:`~repro.resilience.retry` — exponential backoff with
  *deterministic* jitter (seeded, replayable — same reason trial
  seeds derive from trial keys);
* :mod:`~repro.resilience.circuit` — a CLOSED/OPEN/HALF_OPEN circuit
  breaker used by the service to shed adaptive extra replicates
  before failing a job outright;
* :mod:`~repro.resilience.watchdog` — :class:`PoolSupervisor`, the
  process-pool babysitter: per-trial wall-clock deadlines (the one
  hang detector, so a SIGSTOPped worker is as visible as a dead one),
  ``BrokenProcessPool`` recovery (rebuild the pool, re-submit
  in-flight trials by key) and bounded per-trial retry accounting.

The chaos harness that validates all of this lives in
:mod:`repro.resilience.chaos`; it is deliberately NOT imported here
(it pulls in the campaign and service layers, which import this
package) — reach it as ``repro.resilience.chaos``.
"""

from .circuit import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .retry import RetryPolicy
from .watchdog import PoolSupervisor

__all__ = [
    "CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker",
    "RetryPolicy",
    "PoolSupervisor",
]
