"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, DataError
(and its subclasses) exit 2, NumericalError exit 3.
"""


class DataError(Exception):
    """Input data is malformed or inconsistent."""


class ParseError(DataError):
    """A file could not be parsed; message includes the offending line number."""


class NumericalError(Exception):
    """Training hit a floating-point fault, or a non-finite loss or gradient."""
