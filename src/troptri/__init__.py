"""Exact tropical points of zero-dimensional triangular systems.

The coefficient field is the field of Puiseux series over an exact
residue field (rationals or a small prime field), represented by finite
sums; truncated root tails stay symbolic so no precision is ever lost to
cancellation.
"""

from .errors import NonSplittingError, NonTriangularError, ParseError, PrecisionLimitError, TropError
from .expansion import ApproxRoot, puiseux_expansion
from .polygon import Polygon, is_unique, newton_polygon
from .puiseux import PuiseuxScalar
from .rationals import format_rat, parse_rat
from .residue import PrimeField, RationalField, ResiduePoly, roots_in_units
from .roottree import RootTree, TriangularSystem, trop_triangular
from .sysparse import format_system, parse_system
from .upoly import MPoly, UPoly, compose, initial_form

__version__ = "0.1.0"

__all__ = [
    "ApproxRoot",
    "MPoly",
    "NonSplittingError",
    "NonTriangularError",
    "ParseError",
    "Polygon",
    "PrecisionLimitError",
    "PrimeField",
    "PuiseuxScalar",
    "RationalField",
    "ResiduePoly",
    "RootTree",
    "TriangularSystem",
    "TropError",
    "UPoly",
    "compose",
    "format_rat",
    "format_system",
    "initial_form",
    "is_unique",
    "newton_polygon",
    "parse_rat",
    "parse_system",
    "puiseux_expansion",
    "roots_in_units",
    "trop_triangular",
]
