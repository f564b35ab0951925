"""Exception types shared across the package."""
from __future__ import annotations


class DgfError(Exception):
    pass


class CatalogError(DgfError):
    """Unknown constructor name or parameter out of its documented range."""


class MasterEquationError(DgfError, ValueError):
    """Master equation cannot supply a prime-uniform polynomial value."""


class DegreeBoundError(DgfError):
    """No rational form within the requested degree bound matches the series."""


class SeriesWindowError(DgfError, ValueError):
    """Series too short for the degree bound, or not starting at 1."""


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
