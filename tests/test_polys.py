"""Polynomial substrate: coefficients in Z[p], dense series in x."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dgf.errors import DgfError, MasterEquationError, SeriesWindowError
from dgf.polys import PrimePoly, XPoly, series_div

import oracles
from oracles import series_eq, series_inv, series_mul

P = PrimePoly


def test_primepoly_construction():
    assert P.const(0).is_zero()
    assert P.const(1).is_one()
    assert P.const(7).constant_value() == 7
    assert P.monomial(3).degree() == 3
    assert P.monomial(0, 5) == P.const(5)
    assert not P.monomial(2).is_constant()


def test_primepoly_arithmetic():
    a = P.const(1) + P.monomial(1)          # 1 + p
    b = P.monomial(1) + P.const(-1)         # p - 1
    assert a * b == P.monomial(2) + P.const(-1)
    assert a + b == P.monomial(1, 2)
    assert -b == P.const(1) + P.monomial(1, -1)
    assert a.scale(3) == P.const(3) + P.monomial(1, 3)
    assert (a - a).is_zero()


def test_primepoly_evaluate():
    q = P.monomial(2) + P.monomial(1, -1)   # p^2 - p
    assert q.evaluate(2) == 2
    assert q.evaluate(5) == 20
    assert P.const(9).evaluate(101) == 9


def test_block_evaluation_matches_points():
    ps = [2, 3, 5, 7919, 10**7 + 19]
    # gaps in the exponents of p, a zero and a constant coefficient
    cs = [P.const(1), P.zero, P.monomial(3, 4) + P.const(-7),
          P.monomial(5, -2) + P.monomial(1), P.const(6)]
    # sparse: one stage per stored power, across each gap a pow, from a
    # leading 1 or not, ending above p^0 or not, past _STAGES stages
    sparse = [P.monomial(30, -155117520), P.monomial(12), P.monomial(1),
              P({40: 1, 3: 5}), P({9: 2, 8: -1, 2: 3}), P({7: 1, 1: -1}),
              P({3 * e: (-1) ** e for e in range(1500)})]
    for c in cs + sparse:
        assert list(c.evaluate_block(ps)) == list(map(c.evaluate, ps))
    xp = XPoly(cs)
    xs = [Fraction(1, p) for p in ps]
    assert xp.evaluate_block(ps, xs) == \
        [sum(c.evaluate(p) * x**i for i, c in enumerate(cs))
         for p, x in zip(ps, xs)]
    assert [xp.evaluate(p, x) for p, x in zip(ps, xs)] == \
        xp.evaluate_block(ps, xs)
    assert XPoly([]).evaluate_block(ps, xs) == [0] * len(ps)


def test_primepoly_shift():
    assert P.monomial(3).shift_p(-1) == P.monomial(2)
    assert P.monomial(1, 4).shift_p(2) == P.monomial(3, 4)
    with pytest.raises(ValueError):
        P.const(3).shift_p(-1)              # 3/p is not in Z[p]


def test_primepoly_errors_are_library_errors():
    # reachable from the library, so they exit 3 in the CLI; still
    # ValueErrors for callers that catch those
    for bad in (lambda: P.const(3).shift_p(-1), lambda: P({-1: 2}),
                lambda: XPoly([P.one, P.one]).substitute_x_pk(-1)):
        with pytest.raises(MasterEquationError) as exc:
            bad()
        assert isinstance(exc.value, DgfError)
        assert isinstance(exc.value, ValueError)


def test_primepoly_pack():
    # the value at p = 2^k, negative coefficients included
    for c in (P.zero, P.one, P({0: -3, 2: 5, 7: -1}), P.monomial(4, 2**40)):
        for k in (1, 2, 5, 33):
            assert c.pack(k) == c.evaluate(2**k)


def test_primepoly_str():
    assert str(P.monomial(2) + P.monomial(1, -1)) == "p^2-p"
    assert str(P.const(1)) == "1"
    assert str(P.monomial(1) + P.const(1)) == "p+1"


def test_primepoly_hash_eq():
    assert hash(P.const(2) + P.monomial(1)) == hash(P.monomial(1) + P.const(2))
    assert P.const(2) != P.const(3)


def test_xpoly_basics():
    f = XPoly.from_ints([1, -2, 1])
    assert f.degree() == 2
    assert f.coeff(1) == P.const(-2)
    assert f.coeff(99).is_zero()
    assert XPoly.from_ints([1]).is_one()
    assert XPoly.binomial(1, 2, 3).coeff(3) == P.monomial(2, -1)


def test_xpoly_mul():
    a = XPoly.binomial(1, 0, 1)             # 1 - x
    b = XPoly.binomial(-1, 0, 1)            # 1 + x
    assert (a * b).coeffs == XPoly.from_ints([1, 0, -1]).coeffs
    assert (a + b).coeffs == XPoly.from_ints([2]).coeffs


def test_xpoly_divide():
    prod = XPoly.binomial(1, 1, 1) * XPoly.binomial(-1, 0, 2)
    q = prod.divide(XPoly.binomial(1, 1, 1))
    assert q is not None and q.coeffs == XPoly.binomial(-1, 0, 2).coeffs
    assert prod.divide(XPoly.binomial(1, 0, 1)) is None
    assert prod.divide(XPoly.binomial(1, 1, 2)) is None
    # a divisor of higher degree than the dividend
    assert prod.divide(XPoly.binomial(1, 0, 4)) is None


def test_xpoly_substitute():
    f = XPoly.from_ints([1, 1, 1])
    g = f.substitute_x_pk(2)                # x -> p^2 x
    assert g.coeff(1) == P.monomial(2)
    assert g.coeff(2) == P.monomial(4)
    # negative substitution needs divisibility in every coefficient
    h = XPoly([P.const(1), P.monomial(3)])
    assert h.substitute_x_pk(-2).coeff(1) == P.monomial(1)
    with pytest.raises(ValueError):
        XPoly([P.const(1), P.const(1)]).substitute_x_pk(-1)


def test_series_div_pads_polynomial():
    s = series_div(XPoly.from_ints([1, 5]).coeffs, [P.one], 4)
    assert len(s) == 5
    assert s[1] == P.const(5)
    assert all(c.is_zero() for c in s[2:])
    assert series_div([P.one, P.const(5)], [P.one], 0) == [P.one]


def test_series_div_geometric():
    a = XPoly.from_ints([1, -1]).coeffs     # 1 - x
    inv = series_div([P.one], a, 8)
    assert inv == [P.one] * 9               # geometric series
    pole = XPoly.binomial(1, 1, 2).coeffs   # 1 - p x^2
    assert series_div([P.one], pole, 5) == \
        [P.one, P.zero, P.monomial(1), P.zero, P.monomial(2), P.zero]


def test_series_inverse_round_trip():
    a = XPoly.from_ints([1, -1]).coeffs     # 1 - x
    inv = series_inv(a, 8)
    assert all(c.is_one() for c in inv)     # geometric series
    assert series_eq(series_mul(a, inv, 8), [P.one], 8)


def test_series_div_needs_unit():
    for den in ([P.const(2), P.one], [P.zero, P.one], []):
        with pytest.raises(SeriesWindowError) as exc:
            series_div([P.one], den, 3)
        assert isinstance(exc.value, DgfError)
        assert isinstance(exc.value, ValueError)


def test_series_mul_symbolic():
    a = [P.const(1), P.monomial(1)]         # 1 + p x
    b = [P.const(1), P.monomial(1, -1)]     # 1 - p x
    prod = series_mul(a, b, 3)
    assert prod[1].is_zero()
    assert prod[2] == P.monomial(2, -1)


def test_block_evaluation_matches_the_list_kernel():
    # Horner from the top coefficient's integer values, constant
    # coefficients as one float at float points and Horner in p from the
    # points under a leading coefficient 1 give the bits of Horner from int
    # 0 with one list per stage and every value in p taken point by point
    ps = [2, 3, 5, 7919]
    vanishing = P.monomial(1) + P.const(-2)         # p - 2, zero at p = 2
    cs = [P.const(1), P.zero, P.monomial(2, -5) + P.const(3), vanishing]
    xpolys = [XPoly([P.const(7)]), XPoly([vanishing]), XPoly(cs),
              XPoly(cs[::-1]), XPoly([vanishing, P.monomial(3)])]
    # p, p + 1 and p^2 - 1 under constants 0, +-1 and 2^53 + 1, the last
    # rounded to 2^53 as a float
    units = [P.monomial(1), P.monomial(1) + P.const(1),
             P.monomial(2) + P.const(-1)]
    for k in (0, 1, -1, 2**53 + 1):
        for u in units:
            xpolys += [XPoly([P.const(k), u, P.const(k), u]),
                       XPoly([u, P.const(k)])]
        xpolys.append(XPoly([P.const(k), vanishing, P.const(k)]))
    # too wide for a float: at float points both raise OverflowError
    wide = [XPoly([P.const(2**1100), u]) for u in units] + \
        [XPoly([P.const(1), P.const(2**1100)])]
    for xs in ([p ** -1.5 for p in ps], [-(p ** -0.7) for p in ps],
               [Fraction(-3, p * p) for p in ps]):
        for xp in xpolys:
            got = xp.evaluate_block(ps, xs)
            want = oracles.evaluate_block_by_lists(xp, ps, xs)
            assert got == want, xp
            if isinstance(xs[0], float):
                assert [float(v).hex() for v in got] == \
                    [float(v).hex() for v in want], xp
        # a constant XPoly keeps its integers
        assert repr(xpolys[0].evaluate_block(ps, xs)) == "[7, 7, 7, 7]"
        for xp in wide:
            if isinstance(xs[0], Fraction):
                assert xp.evaluate_block(ps, xs) == \
                    oracles.evaluate_block_by_lists(xp, ps, xs)
                continue
            with pytest.raises(OverflowError):
                xp.evaluate_block(ps, xs)
            with pytest.raises(OverflowError):
                oracles.evaluate_block_by_lists(xp, ps, xs)


def test_block_evaluation_of_a_high_degree():
    # degrees a Horner chained lazily through every stage would take past
    # the C stack: p^122880 is a(p) of power(30)^4096, and convolutions
    # reach dens of degree tens of thousands
    assert list(P.monomial(200000).evaluate_block([1, -1, 0])) == [1, 1, 0]
    assert list((P.monomial(200000) + P.monomial(1)).evaluate_block(
        [2])) == [2**200000 + 2]
    xp = XPoly.binomial(1, 0, 50000)
    ps, xs = [2, 3], [0.5, -1.0]
    assert xp.evaluate_block(ps, xs) == [1.0, 0.0] == \
        oracles.evaluate_block_by_lists(xp, ps, xs)
