"""Retry policies: exponential backoff with deterministic jitter.

Everything in the campaign stack that replays work is replayable
*byte-for-byte* (trial seeds derive from trial keys), and the retry
layer follows the same discipline: jitter is derived from a hash of
``(seed, token, attempt)``, not from a live RNG, so a re-run of the
same failure schedule backs off on the same timeline.  Two callers
use it: :class:`~repro.campaign.store.RetryingStore` (store writes)
and :class:`~repro.service.loadgen.ServiceClient` (HTTP calls).
"""

from __future__ import annotations

import hashlib
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
             on_retry: Optional[Callable] = None):
        """Run ``fn()`` under this policy.

        Exceptions matching ``retry_on`` are retried (up to
        ``attempts`` total tries); anything else — and the final
        failure — propagates.  ``on_retry(attempt, exc)`` observes each
        retry decision.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:
                if attempt >= self.attempts - 1:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt, token=token))
