"""Exception types shared across the package."""


class TropError(Exception):
    """Base class for every error this package raises on purpose."""


class DivisionByZero(TropError):
    """Division or inversion with a zero divisor in a residue field."""


class ZeroHasNoValuation(TropError):
    """Valuation or initial coefficient requested for an exact zero."""


class ZeroPolynomialError(TropError):
    """An operation that needs a nonzero polynomial received zero."""


class ZeroSubstitutionError(TropError):
    """Substituting roots produced the identically zero polynomial.

    This signals a degenerate (non zero-dimensional) input system.
    """


class NonSplittingError(TropError):
    """A residue polynomial does not factor into linear pieces.

    The configured residue field is too small to enumerate all roots; the
    computation cannot continue soundly, so it aborts instead of silently
    dropping branches.
    """


class InvalidTargetError(TropError):
    """The requested valuation is not a tropical point of the polynomial."""


class RecursionLimitError(TropError):
    """Expansion exceeded the configured recursion depth safeguard."""


class PrecisionLimitError(TropError):
    """Reinforcement would push the branch precision past its upper bound."""


class NonTriangularError(TropError):
    """The input polynomials do not form a triangular set."""


class ParseError(TropError):
    """Syntax error in a system file, with a 1-based position."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %s, column %s: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class ReservedIdentifierError(ParseError):
    """An identifier starting with 'u' was used; those are reserved."""
