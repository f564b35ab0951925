"""Exception types shared across the package."""
from __future__ import annotations


class DgfError(Exception):
    pass


class CatalogError(DgfError):
    """Unknown constructor name or parameter out of its documented range."""


class MasterEquationError(DgfError, ValueError):
    """Master equation cannot supply a prime-uniform polynomial value."""


class DegreeBoundError(DgfError):
    """No exact form is built: a termwise product past its work bound, a
    shift that is not integral, no exact gcd over Z[p], or no zeta form
    to evaluate."""


class SeriesWindowError(DgfError, ValueError):
    """A series or denominator whose constant term is not 1."""


class ParseError(DgfError):
    """Expression syntax error; carries a 1-based column position."""

    def __init__(self, message: str, position: int):
        super().__init__("col %d: %s" % (position, message))
        self.position = position
        self.bare_message = message


class DivergenceError(DgfError):
    """Numeric evaluation requested outside the region of convergence."""


class BFileError(DgfError):
    """Malformed b-file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class SieveLimitError(DgfError, ValueError):
    """Sieve, prime or term bound outside [0, sequences.MAX_SIEVE]."""
