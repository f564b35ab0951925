"""Symbolic and numeric engine for multiplicative arithmetic functions.

From a prime-power rule the package derives the Bell series, factors
the Dirichlet generating function into Riemann-zeta products or
truncated Euler products, generates and checks sequence terms, and
evaluates the series numerically inside its half-plane of convergence.
"""
from .bell import (BellRational, MasterEquation, MultiplicativeFunction,
                   dirichlet_convolve, dirichlet_inverse, pointwise_power,
                   pointwise_product, shift_by_power, unitary_convolve)
from .catalog import CATALOG, CatalogEntry, make, names
from .errors import (BFileError, CatalogError, DegreeBoundError, DgfError,
                     DivergenceError, MasterEquationError, ParseError,
                     SeriesWindowError, SieveLimitError)
from .euler import (INFINITE, UNKNOWN, ConvergenceInfo, EulerFactor,
                    EulerFactorList, LocalFactor, ZetaFactor, ZetaForm,
                    abscissa, euler_expand, factor_bell, finite_zeta_form,
                    zeta_factors_from_euler, zeta_form_to_coeffs)
from .numeric import (EvalResult, eval_euler_product, eval_partial_sum,
                      eval_zeta_form, riemann_zeta, wynn_epsilon)
from .parser import build, parse, parse_function
from .polys import PrimePoly, XPoly
from .sequences import FactorSieve, compare_bfile, terms

__version__ = "0.1.0"

__all__ = [
    "BellRational", "MasterEquation", "MultiplicativeFunction",
    "dirichlet_convolve", "dirichlet_inverse",
    "pointwise_power", "pointwise_product", "shift_by_power",
    "unitary_convolve",
    "CATALOG", "CatalogEntry", "make", "names",
    "BFileError", "CatalogError", "DegreeBoundError", "DgfError",
    "DivergenceError", "MasterEquationError", "ParseError",
    "SeriesWindowError", "SieveLimitError",
    "INFINITE", "UNKNOWN", "ConvergenceInfo", "EulerFactor",
    "EulerFactorList", "LocalFactor", "ZetaFactor", "ZetaForm", "abscissa",
    "euler_expand",
    "factor_bell", "finite_zeta_form", "zeta_factors_from_euler",
    "zeta_form_to_coeffs",
    "EvalResult", "eval_euler_product", "eval_partial_sum", "eval_zeta_form",
    "riemann_zeta", "wynn_epsilon",
    "build", "parse", "parse_function",
    "PrimePoly", "XPoly",
    "FactorSieve", "compare_bfile", "terms",
    "__version__",
]
