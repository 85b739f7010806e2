"""Exception types shared across the package."""

from __future__ import annotations


class LinewatchError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDataError(LinewatchError, ValueError):
    """Fewer observations than the operation needs."""


class DegenerateScaleError(LinewatchError, ValueError):
    """Historical segment has zero variance, cannot standardize."""


class DetectorStoppedError(LinewatchError, RuntimeError):
    """step() called on a detector that has already raised an alarm."""


class CalibrationResolutionError(LinewatchError, ValueError):
    """Requested error level is below the Monte Carlo sample resolution."""


class FileFormatError(LinewatchError, ValueError):
    """Malformed config or data file; carries a line number when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)
