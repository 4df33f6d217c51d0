"""Exception types shared across the package."""


class FilmRecError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(FilmRecError):
    """Input file is structurally unusable (e.g. missing CSV columns)."""


class RowError(FilmRecError):
    """A single input row is malformed; carries its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DataError(FilmRecError):
    """Input parsed but violates a data contract (e.g. ratio above 1)."""


class DomainError(FilmRecError):
    """An argument is outside the domain an operation accepts."""


class StageError(FilmRecError):
    """A pipeline stage failed; wraps the original error with stage context."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
