"""Exception hierarchy for latinplex.

Every error raised by the package derives from LatinSquareError so callers
can catch broadly.  Search engines never raise to signal nonexistence: a
``None`` result is a certificate of exhaustion, while OrderTooLargeError
means the engine refused the input outright.
"""

import reprlib
from itertools import islice


class LatinSquareError(Exception):
    """Base class for all latinplex errors."""


class NotSquareError(LatinSquareError):
    """Input grid is not n rows of n entries."""


class SymbolOutOfRangeError(LatinSquareError):
    """A grid entry is not an integer in 1..n."""


class RowRepeatError(LatinSquareError):
    """A symbol occurs twice in one row."""

    def __init__(self, row: int, symbol: int):
        self.row = row
        self.symbol = symbol
        super().__init__(f"symbol {symbol} repeats in row {row}")


class ColumnRepeatError(LatinSquareError):
    """A symbol occurs twice in one column."""

    def __init__(self, column: int, symbol: int):
        self.column = column
        self.symbol = symbol
        super().__init__(f"symbol {symbol} repeats in column {column}")


class DimensionMismatchError(LatinSquareError):
    """Shapes or orders of two arguments disagree."""


class OrderTooLargeError(LatinSquareError):
    """The exhaustive engine refuses this order; result would not be certified."""


class OrderTooSmallError(LatinSquareError):
    """Construction needs a larger order."""


class NotAPermutationError(LatinSquareError):
    """An isotopy component is not a bijection on 1..n."""


class InvalidCellSetError(LatinSquareError):
    """Cells out of range, duplicated, or cardinality inconsistent with kind."""


class InvalidPlexError(LatinSquareError):
    """Input claimed to be a k-plex fails the k-plex checker."""


class InvalidPartialError(LatinSquareError):
    """Input claimed to be a partial transversal repeats a row, column or symbol."""


class StructureMismatchError(LatinSquareError):
    """Square lacks the block structure a construction requires."""


class ValidationFailureError(LatinSquareError):
    """A constructed witness failed its own validator (implementation bug)."""


class NoWitnessFoundError(LatinSquareError):
    """An exhaustive search found none of the witnesses a construction starts from."""


class NotConstructibleError(LatinSquareError):
    """The requested transformation has no valid output for this input."""


class FormatError(LatinSquareError):
    """Malformed .ls or JSON input."""


class _BoundedRepr(reprlib.Repr):
    def repr_dict(self, x, level):
        """As reprlib's, but in insertion order, as repr prints a dict."""
        if not x or level <= 0:
            return "{...}" if x else "{}"
        pieces = [f"{self.repr1(key, level - 1)}: {self.repr1(value, level - 1)}"
                  for key, value in islice(x.items(), self.maxdict)]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"


_bounded = _BoundedRepr()
_bounded.maxlevel = 4
_bounded.maxlist = _bounded.maxtuple = _bounded.maxdict = 8
_bounded.maxstring = _bounded.maxother = 80
MAX_ECHO = 200


def short_repr(value) -> str:
    """repr(value), bounded, for error messages that quote untrusted input.
    Strings up to 78 characters, containers up to 8 items and 4 levels deep,
    and integers up to 40 digits print exactly as repr prints them; longer
    ones are cut, and the result never exceeds MAX_ECHO characters."""
    text = _bounded.repr(value)
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO - 3] + "..."
