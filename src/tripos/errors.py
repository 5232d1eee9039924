"""Exception types shared across the package.

Everything raised here signals bad input or unusable configuration, never a
failed mathematical property (property failures are reported, not raised).
"""

import sys


class TriposError(Exception):
    """Base class for all input / configuration errors."""


class DimensionError(TriposError):
    """Matrix input has the wrong shape (e.g. non-square for a determinant)."""


class SequenceRangeError(TriposError):
    """A sequence is too short for the requested construction."""


class SchemeDomainError(TriposError):
    """A table-backed coefficient scheme does not cover a queried index."""


class UnknownPresetError(TriposError):
    """Preset name not in the registry."""


class OracleMismatchError(TriposError):
    """A generated preset triangle disagrees with its independent oracle."""


class FileFormatError(TriposError):
    """A triangle / polynomial-sequence file does not match its format."""


class BFileError(TriposError):
    """Malformed b-file line (carries the 1-based line number)."""


class ContiguityError(BFileError):
    """b-file indices are not contiguous."""


class ReshapeError(TriposError):
    """Flat sequence does not fill a whole number of triangle rows."""


class CacheMissError(TriposError):
    """Offline mode requested but the id is not in the local cache."""


class FetchError(TriposError):
    """Network retrieval failed."""


class DigitLimitError(TriposError):
    """A number has more digits than Python's int-to-str limit allows to print."""

    def __init__(self) -> None:
        super().__init__(
            f"cannot print a number of more than {sys.get_int_max_str_digits()} "
            "digits (Python's int-to-str limit)"
        )
