"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class AssemblerError(ReproError):
    """Raised when assembly source cannot be assembled."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded or decoded."""


class SimulationError(ReproError):
    """Raised when a simulator reaches an inconsistent state."""


class ConfigError(ReproError):
    """Raised when a machine configuration is invalid."""


class SkippedStrikeError(ReproError):
    """Raised when a run dispatches past a strike its injection policy
    scheduled — a snapshot restored past the run's first strike.
    Deliberately NOT a :class:`SimulationError`: the trial runner turns
    those into ``timeout`` records, and a skipped strike is a harness
    bug, not an outcome of the simulated machine."""


class ResilienceError(ReproError):
    """Base class for fault-tolerance layer failures (retry budgets
    exhausted, unrecoverable pool state, hung-trial limits)."""


class TrialHangError(ResilienceError):
    """Raised when a trial keeps hanging or dying across pool rebuilds
    past its retry budget.  Distinct from the simulated ``timeout``
    outcome: that one is a *result* (the injected fault wedged the
    simulated machine); this one means the host-side worker process
    never came back — an infrastructure failure."""


class HistoryError(ReproError):
    """Raised when the bench history file (``BENCH_simulator.json``)
    cannot be loaded, validated or resolved — a torn write, a hand
    edit that broke an entry's schema, or a version reference that
    does not exist.  The performance version system refuses to guess:
    silently dropping history would defeat regression gating."""


class ServiceError(ReproError):
    """Raised when the campaign service cannot honour a request
    (unknown job, invalid submission, service not running)."""


class QuotaError(ServiceError):
    """Raised when a tenant's submission exceeds its queue quota."""


class JobGoneError(ServiceError):
    """Raised for a job whose ``job.json`` the service skipped at
    start-up: its files are kept, but the service cannot serve it."""
