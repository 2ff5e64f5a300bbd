"""Exception hierarchy shared across the library.

Errors split into three families that the CLI maps to distinct exit codes:
usage problems (bad flags), data problems (unreadable or unusable input),
and numeric problems (degenerate or diverging computations).

Each input rule is one helper here (``checked_int``, ``checked_real``,
``checked_choice``, ``checked_series``), whose error names the bad input.
"""

import math
from numbers import Integral, Real

import numpy as np


class IrrevError(Exception):
    """Base class for all library errors."""


class DataError(IrrevError):
    """Input data cannot be used (parsing, length, finiteness)."""


class NumericError(IrrevError):
    """Computation is degenerate or diverges for the given input."""


# -- data errors --------------------------------------------------------------

class NonFiniteSample(DataError):
    """A sample is NaN or infinite."""


class LengthMismatch(DataError):
    """Window length disagrees with the configured dimension."""


class SeriesTooShort(DataError):
    """Series has fewer samples than one embedding window requires."""


class ParseError(DataError):
    """A text file could not be parsed; carries line number and content."""

    def __init__(self, line_no, content, message="cannot parse sample"):
        self.line_no = line_no
        self.content = content
        super().__init__(f"line {line_no}: {message}: {content!r}")


class EmptyFile(DataError):
    """File or series contains no samples."""


class EmptyInput(DataError):
    """An operation received an empty collection."""


class InvalidPattern(DataError):
    """Label sequence is not realizable by any window."""


class TiedPatternUnsupported(IrrevError):
    """Pattern-level time reversal is undefined for tied patterns."""


class DomainError(IrrevError):
    """A numeric argument is outside its documented domain."""


class InvalidParams(IrrevError, ValueError):
    """A parameter or configuration value is out of range (a usage error)."""


def checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """``int(value)`` for an integer in ``low..high`` (no upper bound if
    ``high`` is None), else :class:`InvalidParams` naming ``name``."""
    if isinstance(value, Integral) and low <= value and (high is None or value <= high):
        return int(value)
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    raise InvalidParams(f"{name} must be an integer {bounds}, got {value!r}")


def checked_real(name: str, value, above: float = -math.inf):
    """``value`` if a finite real number > ``above``, else :class:`InvalidParams`."""
    if isinstance(value, Real) and above < value < math.inf:  # NaN fails too
        return value
    bound = "" if above == -math.inf else f" > {above:g}"
    raise InvalidParams(f"{name} must be a finite real number{bound}, got {value!r}")


def checked_choice(name: str, value, choices: tuple):
    """``value`` if it is one of ``choices``, else :class:`InvalidParams`."""
    if value in choices:
        return value
    raise InvalidParams(f"{name} must be one of {choices}, got {value!r}")


def checked_series(series) -> np.ndarray:
    """``series`` as a 1-D float64 array of finite samples, not copied if it
    is one: complex and text samples are refused, and ``None`` is NaN."""
    try:  # a ragged nesting is a ValueError, a complex object a TypeError
        x = np.asarray(series)
        real = x.dtype.kind in "biuf" or x.dtype.kind == "O" and not any(
            isinstance(v, (str, bytes)) for v in x.flat)  # float() parses text
        x = x.astype(float, copy=False) if real else x
    except (TypeError, ValueError):
        x = np.asarray(None)
    if x.dtype != np.float64:
        raise InvalidParams("series must hold real numbers")
    if x.ndim != 1:
        raise InvalidParams("series must be one-dimensional")
    finite = np.isfinite(x)
    if not finite.all():
        raise NonFiniteSample(f"non-finite sample {float(x[np.argmin(finite)])!r}")
    return x


# -- numeric errors -----------------------------------------------------------

class DivergedOrbit(NumericError):
    """Map iteration produced a non-finite or escaping value."""


class DegenerateSeries(NumericError):
    """Series is constant; surrogate generation is impossible."""

