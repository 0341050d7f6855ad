"""Exception types shared across the package."""


class RatingLabError(Exception):
    """Base class for all package-specific errors."""


class DataFormatError(RatingLabError):
    """Malformed or inconsistent input data (bad label, conflicting rows, ...).

    The CLI maps this to exit code 2.
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class SpanError(RatingLabError, ValueError):
    """A span whose end precedes its start."""

    def __init__(self, start, end):
        super().__init__(f"span end {end} before start {start}")
        self.start = start
        self.end = end
