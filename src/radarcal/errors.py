"""Exception types raised across the calibration pipeline, and the check
that turns an input byte that is not UTF-8 into a :class:`ParseError`.

Everything derives from :class:`CalibrationError` so callers can catch one
base class at pipeline boundaries.  The CLI maps each subclass to a distinct
exit code.
"""

from __future__ import annotations


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CalibrationError, ValueError):
    """An argument is malformed (non-finite, wrong shape, out of range)."""


class EmptyInputError(InvalidArgumentError):
    """An input collection that must be non-empty is empty."""


class InsufficientDataError(CalibrationError):
    """Too few measurements to determine the requested quantity."""


class DegenerateGeometryError(CalibrationError):
    """Measurement geometry does not constrain the solution.

    Raised e.g. when all detections in a scan share (nearly) one azimuth, so
    the normal matrix of the ego-velocity fit is numerically singular.
    """


class NoConsensusError(CalibrationError):
    """RANSAC failed to find a consensus set of the required size."""


class InsufficientExcitationError(CalibrationError):
    """The motion contains no usable signal for the requested parameter.

    Typical cause: zero angular rate throughout a dataset, which makes the
    lever arm between the two radars invisible.
    """


class UnidentifiableError(CalibrationError):
    """The dataset fails the excitation check; calibration is refused.

    Carries the diagnostic report on ``self.report`` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvalidWeightError(InvalidArgumentError):
    """A supplied measurement covariance is not positive definite."""


class ParseError(CalibrationError, ValueError):
    """A data or config file does not conform to its documented format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def open_text(path, newline=None):
    """Open a UTF-8 text input for reading.

    A byte that is not UTF-8 is kept as a surrogate escape instead of
    failing the block being decoded, so that :func:`utf8_text` can refuse
    it with the number of its line.
    """
    return open(path, encoding="utf-8", errors="surrogateescape", newline=newline)


def utf8_text(text: str, lineno: int = 1) -> str:
    """``text``, read by :func:`open_text` from line ``lineno`` on, if all of
    it was UTF-8; otherwise a ParseError naming the line of the first byte
    that was not."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(text[exc.start]) - 0xDC00
            raise ParseError(
                f"byte 0x{byte:02x} is not UTF-8 text", lineno + text.count("\n", 0, exc.start)
            ) from None
    return text
