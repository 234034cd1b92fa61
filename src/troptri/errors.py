"""Exception types, one per exit code of ``troptri.cli``, kept in ``exit_code``:

    2  NonSplittingError    a residue polynomial does not split over the field
    3  PrecisionLimitError  a reinforcement passes, or gains nothing within, --pmax
    4  ParseError           the input text cannot be parsed
    4  NonTriangularError   the polynomials are not a triangular set
    5  TropError            any other failure of a run

An argument outside a call's domain raises ``ValueError``: the zero
polynomial where a nonzero one is needed, the valuation of 0, a target
that is not a tropical point, a float for an exact number.  A residue
division by 0 raises ``ZeroDivisionError``.  A valid run raises neither.
"""


class TropError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 5


class NonSplittingError(TropError):
    """A residue polynomial does not factor into linear pieces.

    The configured residue field is too small to enumerate all roots; the
    computation cannot continue soundly, so it aborts instead of silently
    dropping branches.
    """

    exit_code = 2


class PrecisionLimitError(TropError):
    """Reinforcement would push the branch precision past its upper bound."""

    exit_code = 3


class NonTriangularError(TropError):
    """The input polynomials do not form a triangular set."""

    exit_code = 4


class ParseError(TropError):
    """Syntax error in a system file, with a 1-based position."""

    exit_code = 4

    def __init__(self, message, line, col):
        super().__init__("line %s, column %s: %s" % (line, col, message))
        self.line = line
        self.col = col
