"""Exception hierarchy shared across the package.

Argument-contract violations raise plain ``ValueError``; everything that is a
property of the *data* (malformed files, too few samples, degenerate inputs,
a value outside the float64 range) derives from :class:`DataError` so the CLI
can map it to a distinct exit code.
"""


class DataError(Exception):
    """Base class for data-dependent failures (CLI exit code 1)."""


class TrajectoryFormatError(DataError):
    """Structurally malformed trajectory or curve file (e.g. ragged rows)."""


class TrajectoryParseError(DataError):
    """A cell in a trajectory file could not be parsed as a number."""


class EmptyInputError(DataError):
    """A file or sample set contained no usable data."""


class InsufficientDataError(DataError):
    """Not enough samples to run the requested estimator."""


class DegenerateDataError(DataError):
    """Input is degenerate for the requested estimator (e.g. zero spread)."""
