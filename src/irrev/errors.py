"""Exception hierarchy shared across the library.

Errors split into three families that the CLI maps to distinct exit codes:
usage problems (bad flags), data problems (unreadable or unusable input),
and numeric problems (degenerate or diverging computations).
"""


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


# -- numeric errors -----------------------------------------------------------

class DivergedOrbit(NumericError):
    """Map iteration produced a non-finite or escaping value."""


class DegenerateSeries(NumericError):
    """Series is constant; surrogate generation is impossible."""

