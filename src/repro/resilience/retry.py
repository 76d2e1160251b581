"""Retry policies: exponential backoff, deterministic jitter, budgets.

Everything in the campaign stack that replays work is replayable
*byte-for-byte* (trial seeds derive from trial keys), and the retry
layer follows the same discipline: jitter is derived from a hash of
``(seed, token, attempt)``, not from a live RNG, so a re-run of the
same failure schedule backs off on the same timeline.

:class:`RetryBudget` is the token bucket that keeps retries from
amplifying an outage: each retry spends a token, tokens refill at a
fixed rate, and an empty bucket turns a retryable failure into a
surfaced one.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..errors import ConfigError


def _jitter_factor(seed: int, token: str, attempt: int,
                   jitter: float) -> float:
    """Deterministic multiplier in ``[1 - jitter, 1 + jitter]``.

    sha256 over the identifying triple, mapped to [0, 1) — the same
    construction trial seeds use, for the same reason: replayability.
    """
    if jitter <= 0.0:
        return 1.0
    digest = hashlib.sha256(
        ("retry:%d:%s:%d" % (seed, token, attempt)).encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + jitter * (2.0 * unit - 1.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with deterministic jitter.

    ``attempts`` counts *total* tries (1 = no retries).  The delay
    before retry ``attempt`` (0-based) is::

        min(max_delay, base_delay * multiplier ** attempt) * jitter

    where jitter is a seeded hash of ``(seed, token, attempt)`` —
    pass a distinct ``token`` per retried entity (trial key, URL
    path) to decorrelate their timelines without losing
    replayability.
    """

    attempts: int = 3
    base_delay: float = 0.2
    max_delay: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.attempts, int) \
                or isinstance(self.attempts, bool) or self.attempts < 1:
            raise ConfigError("attempts must be an integer >= 1, got %r"
                              % (self.attempts,))
        for name in ("base_delay", "max_delay", "multiplier", "jitter"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                raise ConfigError("%s must be a number >= 0, got %r"
                                  % (name, value))
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if self.jitter > 1.0:
            raise ConfigError("jitter must be within [0, 1]")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed must be an integer")

    # -- schedule ----------------------------------------------------------

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before 0-based retry ``attempt`` (deterministic)."""
        if attempt < 0:
            raise ConfigError("attempt must be >= 0")
        base = min(self.max_delay,
                   self.base_delay * self.multiplier ** attempt)
        return base * _jitter_factor(self.seed, token, attempt,
                                     self.jitter)

    def call(self, fn: Callable, *,
             retry_on: Tuple[type, ...] = (OSError,),
             token: str = "",
             sleep: Callable[[float], None] = time.sleep,
             budget: Optional["RetryBudget"] = None,
             on_retry: Optional[Callable] = None):
        """Run ``fn()`` under this policy.

        Exceptions matching ``retry_on`` are retried (up to
        ``attempts`` total tries, respecting ``budget`` when given);
        anything else — and the final failure — propagates.
        ``on_retry(attempt, exc)`` observes each retry decision.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:
                last_try = attempt >= self.attempts - 1
                if last_try or (budget is not None
                                and not budget.try_spend()):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt, token=token))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"attempts": self.attempts,
                "base_delay": self.base_delay,
                "max_delay": self.max_delay,
                "multiplier": self.multiplier,
                "jitter": self.jitter,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        known = {"attempts", "base_delay", "max_delay", "multiplier",
                 "jitter", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown RetryPolicy fields: %s"
                              % sorted(unknown))
        return cls(**data)


class RetryBudget:
    """Token bucket bounding retry amplification (thread-safe).

    ``capacity`` tokens to start; each :meth:`try_spend` takes one;
    tokens refill continuously at ``refill_per_second`` up to
    ``capacity``.  When the bucket is empty a would-be retry is
    refused — the caller surfaces the original failure instead of
    piling retries onto whatever is already on fire.
    """

    def __init__(self, capacity: int = 10,
                 refill_per_second: float = 0.5,
                 clock: Callable[[], float] = time.monotonic):
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ConfigError("capacity must be an integer >= 1")
        if not isinstance(refill_per_second, (int, float)) \
                or isinstance(refill_per_second, bool) \
                or refill_per_second < 0:
            raise ConfigError("refill_per_second must be >= 0")
        self.capacity = capacity
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()
        self.spent = 0
        self.refused = 0

    def _refill_locked(self, now: float):
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(float(self.capacity),
                           self._tokens
                           + elapsed * self.refill_per_second)

    def try_spend(self) -> bool:
        """Take one token; ``False`` (refusal) when the bucket is dry."""
        with self._lock:
            self._refill_locked(self._clock())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.refused += 1
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill_locked(self._clock())
            return self._tokens
