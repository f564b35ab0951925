"""Top-level acceptance gate: one check per shipped guarantee.

Each test prints exactly one "criterion NN: PASS" or "criterion NN: FAIL"
line so the suite output doubles as a release checklist.
"""
from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

from dgf.bell import (
    BellRational,
    dirichlet_convolve,
    dirichlet_inverse,
    shift_by_power,
)
from dgf.catalog import make
from dgf.errors import DegreeBoundError
from dgf.euler import (
    INFINITE,
    abscissa,
    euler_expand,
    factor_bell,
    finite_zeta_form,
    zeta_form_to_coeffs,
)
from dgf.numeric import (
    eval_euler_product,
    eval_partial_sum,
    eval_zeta_form,
    riemann_zeta,
)
from dgf.parser import parse_function
from dgf.polys import PrimePoly, XPoly
from dgf.sequences import FactorSieve, terms

from conftest import GRID, GRID_ONE_PER_NAME, ef_tuples, zf_tuples
from oracles import _ofactor, brute_convolve, oracle, rationalize


def criterion(num: int):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print("criterion %02d: FAIL" % num)
                raise
            print("criterion %02d: PASS" % num)
        return wrapper
    return deco


# -- criterion 1: closed zeta forms ------------------------------------------

ZETA_SUITE = [
    ("mu", [(1, 0, -1)]),
    ("mu^2", [(1, 0, 1), (2, 0, -1)]),
    ("liouville", [(1, 0, -1), (2, 0, 1)]),
    ("eps(2)", [(2, 0, 1)]),
    ("eps(3)", [(3, 0, 1)]),
    ("eps(4)", [(4, 0, 1)]),
    ("xi(2)", [(1, 0, 1), (2, 0, -1)]),
    ("xi(3)", [(1, 0, 1), (3, 0, -1)]),
    ("core(2)", [(1, 1, 1), (2, 0, 1), (2, 2, -1)]),
    ("core(3)", [(1, 1, 1), (3, 0, 1), (3, 3, -1)]),
    ("sigma(1)", [(1, 0, 1), (1, 1, 1)]),
    ("sigma(2)", [(1, 0, 1), (1, 2, 1)]),
    ("sigma(5)", [(1, 0, 1), (1, 5, 1)]),
    ("sigma_pow(1,2)", [(1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 2, -1)]),
    ("sigma_pow(2,2)", [(1, 0, 1), (1, 2, 1), (1, 4, 1), (2, 4, -1)]),
    ("sigma(1)^2", [(1, 0, 1), (1, 1, 2), (1, 2, 1), (2, 2, -1)]),
    ("sigma(2)^2", [(1, 0, 1), (1, 2, 2), (1, 4, 1), (2, 4, -1)]),
    ("sigma(1) * sigma(2)",
     [(1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, -1)]),
    ("tau(1)", [(1, 0, 1)]),
    ("tau(2)", [(1, 0, 2)]),
    ("tau(3)", [(1, 0, 3)]),
    ("tau(4)", [(1, 0, 4)]),
    ("tau(5)", [(1, 0, 5)]),
    ("tau(6)", [(1, 0, 6)]),
    ("phi", [(1, 0, -1), (1, 1, 1)]),
    ("jordan(2)", [(1, 0, -1), (1, 2, 1)]),
    ("jordan(3)", [(1, 0, -1), (1, 3, 1)]),
    ("dedekind", [(1, 0, 1), (1, 1, 1), (2, 0, -1)]),
    ("psi_k(2)", [(1, 0, 1), (1, 2, 1), (2, 0, -1)]),
    ("psi_k(3)", [(1, 0, 1), (1, 3, 1), (2, 0, -1)]),
    ("gcd_pairs(1)", [(1, 0, 2), (2, 0, -1), (2, 1, 1)]),
    ("gcd_pairs(2)", [(1, 0, 2), (2, 0, -1), (2, 2, 1)]),
    ("gcd_pairs(3)", [(1, 0, 2), (2, 0, -1), (2, 3, 1)]),
    ("lcm_pairs(1)", [(1, 1, 2), (2, 1, 1), (2, 2, -1)]),
    ("lcm_pairs(2)", [(1, 2, 2), (2, 2, 1), (2, 4, -1)]),
    ("lcm_pairs(3)", [(1, 3, 2), (2, 3, 1), (2, 6, -1)]),
    ("sigma_star(1)", [(1, 0, 1), (1, 1, 1), (2, 1, -1)]),
    ("sigma_star(2)", [(1, 0, 1), (1, 2, 1), (2, 2, -1)]),
    ("max_tpow(2)", [(1, 0, 1), (2, 0, -1), (2, 2, 1)]),
    ("max_tpow(3)", [(1, 0, 1), (3, 0, -1), (3, 3, 1)]),
    ("root_tpow(2)", [(1, 0, 1), (2, 0, -1), (2, 1, 1)]),
    ("root_tpow(3)", [(1, 0, 1), (3, 0, -1), (3, 1, 1)]),
    ("sigma_tfree(1,2)", [(1, 0, 1), (1, 1, 1), (2, 2, -1)]),
    ("sigma_tfree(2,3)", [(1, 0, 1), (1, 2, 1), (3, 6, -1)]),
    ("congruence_min(2)", [(1, 1, 1), (2, 1, 1), (2, 2, -1)]),
    ("tfull_count(2)", [(1, 0, 1), (2, 0, 1), (3, 0, 1), (6, 0, -1)]),
]


@criterion(1)
def test_criterion_01_finite_zeta_forms():
    t0 = time.monotonic()
    for expr, want in ZETA_SUITE:
        zf = finite_zeta_form(parse_function(expr))
        assert zf is not INFINITE, expr
        assert zf_tuples(zf) == want, expr
    assert time.monotonic() - t0 < 10.0


# -- criterion 2: frozen Euler-product expansions -----------------------------

EXPANSIONS = {
    # (expression, order U) -> full factor list, reference order
    ("mu^2 * phi", 5): [
        (-1, 1, 1, 1), (1, 0, 1, 1), (-1, 1, 2, 1), (1, 2, 3, 1),
        (-1, 1, 3, 1), (-1, 3, 4, 1), (1, 2, 4, 1), (-1, 1, 4, 1),
        (1, 4, 5, 1), (-1, 3, 5, 2), (1, 2, 5, 2), (-1, 1, 5, 1),
    ],
    ("phi^2", 5): [
        (1, 2, 1, -1), (1, 1, 1, 2), (-1, 0, 1, 1), (1, 2, 2, 1),
        (-1, 1, 2, 2), (1, 3, 3, 2), (-1, 2, 3, 4), (1, 1, 3, 2),
        (1, 4, 4, 3), (-1, 3, 4, 8), (1, 2, 4, 5), (-1, 1, 4, 2),
        (1, 5, 5, 6), (-1, 4, 5, 16), (1, 3, 5, 16), (-1, 2, 5, 8),
        (1, 1, 5, 2),
    ],
    ("sigma(0) * phi", 5): [
        (1, 1, 1, -2), (1, 0, 1, 2), (-1, 1, 2, 1), (1, 0, 2, 1),
        (-1, 1, 3, 2), (1, 0, 3, 2), (-1, 1, 4, 4), (1, 0, 4, 3),
        (1, 2, 5, 2), (-1, 1, 5, 8), (1, 0, 5, 6),
    ],
    ("sigma_pow(1,3)", 5): [
        (1, 3, 1, -1), (-1, 2, 1, 1), (-1, 1, 1, 1), (1, 0, 1, -1),
        (1, 3, 2, 1), (-1, 5, 3, 1), (-1, 4, 3, 1), (1, 7, 4, 1),
        (1, 6, 4, 1), (1, 5, 4, 1), (-1, 9, 5, 1), (-1, 8, 5, 2),
        (-1, 7, 5, 2), (-1, 6, 5, 1),
    ],
    ("sigma_pow(1,4)", 4): [
        (1, 4, 1, -1), (-1, 3, 1, 1), (-1, 2, 1, 1), (-1, 1, 1, 1),
        (1, 0, 1, -1), (1, 5, 2, 1), (1, 4, 2, 1), (1, 3, 2, 1),
        (-1, 8, 3, 1), (-1, 7, 3, 2), (-1, 6, 3, 2), (-1, 5, 3, 2),
        (-1, 4, 3, 1), (1, 11, 4, 1), (1, 10, 4, 2), (1, 9, 4, 4),
        (1, 8, 4, 4), (1, 7, 4, 4), (1, 6, 4, 2), (1, 5, 4, 1),
    ],
    ("sigma(5)^3", 4): [
        (1, 15, 1, -1), (-1, 10, 1, 2), (1, 10, 1, -1), (-1, 5, 1, 2),
        (1, 5, 1, -1), (1, 0, 1, -1), (1, 20, 2, 1), (1, 15, 2, 3),
        (1, 10, 2, 1), (-1, 30, 3, 2), (-1, 25, 3, 6), (-1, 20, 3, 6),
        (-1, 15, 3, 2), (1, 40, 4, 3), (1, 35, 4, 12), (1, 30, 4, 15),
        (1, 25, 4, 12), (1, 20, 4, 3),
    ],
    ("sigma(5)^4", 3): [
        (1, 20, 1, -1), (-1, 15, 1, 3), (1, 15, 1, -1), (-1, 10, 1, 5),
        (1, 10, 1, -1), (-1, 5, 1, 3), (1, 5, 1, -1), (1, 0, 1, -1),
        (1, 30, 2, 3), (1, 25, 2, 12), (1, 20, 2, 14), (1, 15, 2, 12),
        (1, 10, 2, 3), (-1, 45, 3, 8), (-1, 40, 3, 36), (-1, 35, 3, 72),
        (-1, 30, 3, 88), (-1, 25, 3, 72), (-1, 20, 3, 36), (-1, 15, 3, 8),
    ],
    ("sigma_prime", 6): [
        (-1, 1, 1, 1), (1, 0, 1, -1), (1, 1, 2, 1), (-1, 2, 3, 1),
        (1, 3, 4, 1), (-1, 4, 5, 1), (-1, 3, 5, 1), (1, 5, 6, 1),
        (1, 4, 6, 1),
    ],
    ("mu_star", 8): [
        (1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 3, 2), (1, 0, 4, 3),
        (1, 0, 5, 6), (1, 0, 6, 9), (1, 0, 7, 18), (1, 0, 8, 30),
    ],
    ("mu_apostol(2)", 11): [
        (-1, 0, 1, 1), (1, 0, 2, 1), (-1, 0, 3, 1), (1, 0, 4, 1),
        (-1, 0, 5, 2), (1, 0, 6, 2), (-1, 0, 7, 4), (1, 0, 8, 5),
        (-1, 0, 9, 8), (1, 0, 10, 11), (-1, 0, 11, 18),
    ],
    ("jordan_star(3)", 5): [
        (1, 3, 1, -1), (1, 0, 1, 1), (-1, 3, 2, 1), (1, 0, 2, 1),
        (-1, 3, 3, 2), (1, 0, 3, 2), (-1, 3, 4, 4), (1, 0, 4, 3),
        (1, 6, 5, 2), (-1, 3, 5, 8), (1, 0, 5, 6),
    ],
    ("congruence_count(3)", 6): [
        (-1, 0, 1, 1), (-1, 1, 2, 1), (1, 2, 3, -1), (1, 1, 3, 1),
        (-1, 1, 4, 1), (-1, 2, 5, 1), (1, 1, 5, 1), (1, 2, 6, 1),
        (-1, 1, 6, 1),
    ],
    ("congruence_min(3)", 6): [
        (-1, 1, 1, 1), (-1, 1, 2, 1), (1, 2, 3, 1), (1, 1, 3, -1),
        (-1, 3, 4, 1), (1, 4, 5, 1), (-1, 3, 5, 1), (-1, 5, 6, 1),
        (1, 4, 6, 1),
    ],
}

# numerator-only peels for the detection-order family: its published
# order-by-order lists keep the geometric pole as a standalone 1/(1-x)
NUM_PEELS = {
    (2, 11): [
        (1, 0, 2, 2), (-1, 0, 3, 1), (1, 0, 4, 1), (-1, 0, 5, 2),
        (1, 0, 6, 2), (-1, 0, 7, 4), (1, 0, 8, 5), (-1, 0, 9, 8),
        (1, 0, 10, 11), (-1, 0, 11, 18),
    ],
    (3, 16): [
        (1, 0, 3, 2), (-1, 0, 4, 1), (1, 0, 6, 1), (-1, 0, 7, 2),
        (1, 0, 9, 2), (-1, 0, 10, 4), (1, 0, 11, 2), (1, 0, 12, 3),
        (-1, 0, 13, 8), (1, 0, 14, 5), (1, 0, 15, 4), (-1, 0, 16, 16),
    ],
    (4, 21): [
        (1, 0, 4, 2), (-1, 0, 5, 1), (1, 0, 8, 1), (-1, 0, 9, 2),
        (1, 0, 12, 2), (-1, 0, 13, 4), (1, 0, 14, 2), (1, 0, 16, 3),
        (-1, 0, 17, 8), (1, 0, 18, 5), (-1, 0, 19, 2), (1, 0, 20, 6),
        (-1, 0, 21, 16),
    ],
}


@criterion(2)
def test_criterion_02_frozen_expansions():
    for (expr, U), want in EXPANSIONS.items():
        got = ef_tuples(factor_bell(parse_function(expr), U=U))
        assert got == want, expr

    # reference list for sigma(0)*phi stops two factors early at its top
    # order; its shown factors are the exact prefix of ours
    shown = [
        (1, 1, 1, -2), (1, 0, 1, 2), (-1, 1, 2, 1), (1, 0, 2, 1),
        (-1, 1, 3, 2), (1, 0, 3, 2), (-1, 1, 4, 4), (1, 0, 4, 3),
        (1, 2, 5, 2), (-1, 1, 5, 8),
    ]
    full = EXPANSIONS[("sigma(0) * phi", 5)]
    assert full[:len(shown)] == shown

    # detection-order family: numerator peel plus the bare geometric pole
    for (k, U), want in NUM_PEELS.items():
        num = [1] + [0] * (k - 1) + [-2, 1]
        b = BellRational(XPoly.from_ints(num), XPoly.from_ints([1]))
        assert ef_tuples(euler_expand(b, U)) == want, k
        # the peeled numerator over a bare 1/(1-x) pole is the same
        # rational function as the entry's (reduced) Bell series
        f = make("mu_apostol", k)
        assert f.bell is not None
        pole = XPoly.from_ints([1, -1])
        assert (f.bell.num * pole).coeffs == \
            (XPoly.from_ints(num) * f.bell.den).coeffs
    # at orders 1..2 the canonical and reference readings differ only by
    # the polynomial identity (1 - x^2)^2 / (1 - x) = (1 + x)(1 - x^2)^... ;
    # check the two factorizations multiply to the same series
    canon = factor_bell(make("mu_apostol", 2), U=11)
    from oracles import expand_factor_list, series_eq
    assert series_eq(expand_factor_list(canon, 11),
                     make("mu_apostol", 2).series(11), 11)


# -- criterion 3: abscissae of convergence ------------------------------------

@criterion(3)
def test_criterion_03_abscissae():
    cases = [
        ("mu^2 * phi", Fraction(2)), ("phi^2", Fraction(3)),
        ("sigma_pow(1,3)", Fraction(4)), ("sigma_pow(1,4)", Fraction(5)),
        ("sigma(0) * phi", Fraction(2)), ("sigma_prime", Fraction(2)),
        ("sigma(5)^3", Fraction(16)), ("sigma(5)^4", Fraction(21)),
    ]
    for expr, want in cases:
        assert abscissa(factor_bell(parse_function(expr), U=4)) == want, expr


# -- criterion 4: convolution identity suite ----------------------------------

@criterion(4)
def test_criterion_04_identity_suite():
    t0 = time.monotonic()
    N = 10**4
    sieve = FactorSieve()

    def T(name, *args):
        return terms(make(name, *args), N, sieve=sieve)

    def argpow(name, args, k):
        f = make(name, *args)
        return [math.prod(f.coeff(p, k * e) for p, e in _ofactor(n))
                for n in range(1, N + 1)]

    ones, k, t = T("one"), 2, 2
    assert brute_convolve(T("liouville"), ones) == T("eps", 2)
    assert brute_convolve(T("phi"), ones) == T("id")
    assert brute_convolve(T("xi", t), T("eps", t)) == ones
    assert T("sigma_pow", k, 2) == brute_convolve(
        T("sigma", 2 * k), terms(shift_by_power(make("xi", 2), k), N,
                                 sieve=sieve))
    assert brute_convolve(T("max_tpow", t), T("core", t)) == T("sigma", 1)
    musq = [m * m for m in T("mu")]
    assert brute_convolve(T("power", k), musq) == T("psi_k", k)
    assert brute_convolve(T("eps", 2), T("psi_k", k)) == T("sigma", k)
    assert brute_convolve(T("phi_star"), T("phi")) == \
        [a * b for a, b in zip(T("sigma", 0), T("phi"))]
    assert T("jordan_star", k) == argpow("phi_star", (), k)
    assert brute_convolve(ones, T("phi_prime")) == T("rad", 2)
    assert brute_convolve(ones, T("tau_star", k)) == argpow("sigma", (0,), k)
    assert brute_convolve(
        ones, terms(shift_by_power(make("jordan_ratio", k), 1), N,
                    sieve=sieve)) == T("sigma_pow", 1, k)
    sig = T("sigma", k)
    assert [v * v for v in sig] == \
        brute_convolve(T("sigma_pow", k, 2), T("power", k))
    assert brute_convolve(T("sigma", k), T("power", t)) == \
        brute_convolve(T("sigma", t), T("power", k))
    assert time.monotonic() - t0 < 60.0


# -- criterion 5: every entry against its definition oracle -------------------

@criterion(5)
def test_criterion_05_terms_match_oracles():
    N = 2000
    for name, args in GRID:
        assert terms(make(name, *args), N) == oracle(name, args, N), \
            (name, args)


# -- criterion 6: zeta form reproduces coefficients ---------------------------

@criterion(6)
def test_criterion_06_zeta_form_round_trip():
    N = 2000
    for name, args in GRID:
        f = make(name, *args)
        zf = finite_zeta_form(f)
        if zf is INFINITE:
            continue
        assert zeta_form_to_coeffs(zf, N) == terms(f, N), (name, args)


# -- criterion 7: rational reconstruction of Bell series ----------------------

@criterion(7)
def test_criterion_07_rationalize_fixtures():
    P = PrimePoly

    def check(f, num_rows, den_factors):
        num = XPoly([r if isinstance(r, PrimePoly) else P.const(r)
                     for r in num_rows])
        den = XPoly.from_ints([1])
        for S, l, u in den_factors:
            den = den * XPoly.binomial(S, l, u)
        b = f.bell
        assert b is not None
        assert (b.num * den).coeffs == (num * b.den).coeffs
        assert b.num.degree() == num.degree()
        assert b.den.degree() == den.degree()

    from dgf.bell import pointwise_power, pointwise_product
    check(pointwise_power(make("phi"), 2),
          [1, P.const(1) + P.monomial(1, -2)], [(1, 2, 1)])
    check(pointwise_product(make("sigma", 0), make("phi")),
          [1, -2, P.monomial(1)], [(1, 1, 1), (1, 1, 1)])
    check(pointwise_product(pointwise_power(make("sigma", 0), 2), make("phi")),
          [1, P.monomial(1) + P.const(-4), P.monomial(1, 3), P.monomial(2, -1)],
          [(1, 1, 1), (1, 1, 1), (1, 1, 1)])
    check(pointwise_product(make("sigma", 1), make("phi")),
          [1, P.monomial(1, -1) + P.const(-1), P.monomial(2)],
          [(1, 2, 1), (1, 1, 1)])
    check(pointwise_power(make("sigma", 2), 3),
          [1, P.monomial(4, 2) + P.monomial(2, 2), P.monomial(6)],
          [(1, 0, 1), (1, 2, 1), (1, 4, 1), (1, 6, 1)])
    geo = rationalize([P.one] * 6, 1)
    assert geo.num.coeffs == XPoly.from_ints([1]).coeffs
    assert geo.den.coeffs == XPoly.binomial(1, 0, 1).coeffs
    try:
        rationalize([P.const(math.factorial(n)) for n in range(9)], 3)
    except DegreeBoundError:
        pass
    else:
        raise AssertionError("factorial series must not rationalize")


# -- criterion 8: peel exponents against the free-necklace count --------------

@criterion(8)
def test_criterion_08_necklace_exponents():
    def mobius(n):
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out

    b = BellRational(XPoly.from_ints([1, -2]), XPoly.from_ints([1]))
    got = ef_tuples(euler_expand(b, 8))
    assert [g for (_, _, _, g) in got] == [2, 1, 2, 3, 6, 9, 18, 30]
    for S, l, u, g in got:
        assert (S, l) == (1, 0)
        total = sum(mobius(u // d) * 2 ** d
                    for d in range(1, u + 1) if u % d == 0)
        assert g * u == total, u


# -- criterion 9: numeric evaluation ------------------------------------------

@criterion(9)
def test_criterion_09_numeric_evaluation():
    t0 = time.monotonic()
    f = make("sigma", 1)
    truth = riemann_zeta(3.0) * riemann_zeta(2.0)
    r = eval_euler_product(f, 3.0, P=10**6, accel="wynn")
    assert abs(r.value - truth) <= 1e-6
    z = eval_zeta_form(finite_zeta_form(f), 3.0)
    assert abs(z.value - truth) <= 1e-10
    p = eval_partial_sum(f, 3.0, N=10**5)
    assert abs(p.value - truth) <= p.error
    assert time.monotonic() - t0 < 30.0


# -- criterion 10: structural properties --------------------------------------

@criterion(10)
def test_criterion_10_structural_properties():
    # multiplicativity on every coprime pair up to 300, for every entry
    B = 300
    coprime = [(m, n) for m in range(2, B + 1) for n in range(m + 1, B + 1)
               if math.gcd(m, n) == 1]
    sieve = FactorSieve()
    for name, args in GRID_ONE_PER_NAME:
        seq = terms(make(name, *args), B * B, sieve=sieve)
        for m, n in coprime:
            assert seq[m * n - 1] == seq[m - 1] * seq[n - 1], (name, m, n)

    # convolution algebra on term streams
    N = 1000
    a = terms(make("sigma", 1), N)
    b = terms(make("phi"), N)
    c = terms(make("mu"), N)
    assert brute_convolve(a, b) == brute_convolve(b, a)
    assert brute_convolve(brute_convolve(a, b), c) == \
        brute_convolve(a, brute_convolve(b, c))

    # inverse round trip for every entry
    delta = [1] + [0] * (N - 1)
    for name, args in GRID_ONE_PER_NAME:
        f = make(name, *args)
        conv = dirichlet_convolve(f, dirichlet_inverse(f))
        assert terms(conv, N) == delta, (name, args)
