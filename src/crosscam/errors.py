"""Exception hierarchy shared by all crosscam modules.

Every error raised by the package derives from CrosscamError so callers
(and the CLI) can distinguish our failures from programming errors.
"""

from __future__ import annotations


class CrosscamError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(CrosscamError):
    """A precondition or invariant of an operation was violated; sample is
    the row index of the sample that breaks it, where one does."""

    def __init__(self, message: str, sample: int | None = None):
        self.sample = sample
        super().__init__(message)


class FormatError(CrosscamError):
    """A file could not be parsed.

    Carries enough context to name the offending record.
    """

    def __init__(self, path: str, line: int | None, reason: str):
        self.path = str(path)
        self.line = line
        self.reason = reason
        where = f"{self.path}" if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {reason}")


class NonFiniteFeatureError(ContractError):
    """A feature vector holds NaN or infinity; sample is its row index."""


class VersionError(FormatError):
    """A file declared a format version this code does not understand."""


class ConfigError(CrosscamError):
    """A configuration value or key is invalid."""


class AffinityError(CrosscamError):
    """The affinity matrix cannot be built or queried as requested."""


class SelectionError(CrosscamError):
    """A per-anchor sample selection could not be satisfied.

    Raised by negative selection when an anchor has no negative.  Positive
    selection reports degenerate anchors in a mask instead, which the
    trainer skips.
    """


class TrainingError(CrosscamError):
    """Training hit a non-recoverable numeric problem (NaN/Inf)."""


class EvaluationError(CrosscamError):
    """Retrieval evaluation is impossible (e.g. no query has a match)."""
