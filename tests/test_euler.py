"""Euler-product factorization, zeta forms, and coefficient streams."""
from __future__ import annotations

from fractions import Fraction

import pytest

import dgf.bell as bell_module
import dgf.euler as euler_module
import dgf.polys as polys_module
from dgf.bell import BellRational, dirichlet_convolve, pointwise_power, pointwise_product
from dgf.catalog import make
from dgf.euler import (
    INFINITE,
    UNKNOWN,
    EulerFactor,
    EulerFactorList,
    _log_series,
    _peel,
    ZetaFactor,
    ZetaForm,
    abscissa,
    euler_expand,
    factor_bell,
    finite_zeta_form,
    round_trips,
    zeta_form_to_coeffs,
)
from dgf.errors import SieveLimitError
from dgf.parser import parse_function
from dgf.polys import PrimePoly, XPoly, series_div
from dgf.sequences import terms

from conftest import EXCEPTIONAL, ef_tuples, grid_instances, zf_tuples
from oracles import (_zeta_base_stream, dirichlet_mul_streams,
                     expand_factor_list, log_series_by_division, series_eq,
                     totients)

P = PrimePoly

SQUAREFREE_TOTIENT = [  # expansion of 1 + (p-1)x through order 5
    (-1, 1, 1, 1), (1, 0, 1, 1), (-1, 1, 2, 1), (1, 2, 3, 1), (-1, 1, 3, 1),
    (-1, 3, 4, 1), (1, 2, 4, 1), (-1, 1, 4, 1), (1, 4, 5, 1), (-1, 3, 5, 2),
    (1, 2, 5, 2), (-1, 1, 5, 1),
]


def num_only(coeff_rows) -> BellRational:
    poly = XPoly([P.const(c) if isinstance(c, int) else c for c in coeff_rows])
    return BellRational(poly, XPoly.from_ints([1]))


def test_expand_squarefree_totient_numerator():
    b = num_only([1, P.monomial(1) + P.const(-1)])
    efl = euler_expand(b, 5)
    assert ef_tuples(efl) == SQUAREFREE_TOTIENT
    assert efl.truncated_at == 5


def test_expand_cleared_totient_square():
    # phi^2 numerator after clearing its pole
    b = num_only([1, P.const(1) + P.monomial(1, -2)])
    efl = euler_expand(b, 3)
    assert ef_tuples(efl) == [
        (1, 1, 1, 2), (-1, 0, 1, 1), (1, 2, 2, 1), (-1, 1, 2, 2),
        (1, 3, 3, 2), (-1, 2, 3, 4), (1, 1, 3, 2),
    ]


def test_expand_unit_is_empty():
    efl = euler_expand(num_only([1]), 6)
    assert list(efl) == []


def test_expand_merges_repeated_roots():
    sq = XPoly.binomial(1, 0, 1) * XPoly.binomial(1, 0, 1)
    efl = euler_expand(BellRational(sq, XPoly.from_ints([1])), 4)
    assert ef_tuples(efl) == [(1, 0, 1, 2)]


def necklace_gamma(c: int, j: int) -> int:
    # count of aperiodic cycles of length j over c symbols
    def mu(n: int) -> int:
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out

    total = sum(mu(j // d) * c ** d for d in range(1, j + 1) if j % d == 0)
    assert total % j == 0
    return total // j


def test_binary_pole_peels_to_necklace_counts():
    # the factor base of 1/(1-2x) comes from peeling 1-2x itself
    b = BellRational(XPoly.from_ints([1, -2]), XPoly.from_ints([1]))
    efl = euler_expand(b, 8)
    got = ef_tuples(efl)
    assert got == [(1, 0, u, necklace_gamma(2, u)) for u in range(1, 9)]
    assert [g for (_, _, _, g) in got] == [2, 1, 2, 3, 6, 9, 18, 30]


def test_expansion_round_trips_series():
    for name, args in [("phi", ()), ("sigma", (2,)), ("mu_apostol", (2,)),
                       ("jordan_star", (3,)), ("congruence_min", (3,))]:
        f = make(name, *args)
        efl = factor_bell(f, U=6)
        assert series_eq(expand_factor_list(efl, 6), f.series(6), 6)


def test_round_trip_agrees_with_binomial_products():
    # the engine's one matches check against the factors multiplied out,
    # on every grid list and on each list with one exponent bumped
    U = 8
    for name, args, f in grid_instances():
        S = f.series(U)
        efl = factor_bell(f, U)
        assert round_trips(efl, S), (name, args)
        for i, g in enumerate(efl.factors):
            bumped = EulerFactorList(efl.factors[:i] + efl.factors[i + 1:]
                                     + [g._replace(gamma=g.gamma + 1)])
            ok = round_trips(bumped, S)
            assert ok == series_eq(expand_factor_list(bumped, U), S, U)
            assert ok == (g.u > U), (name, args, g)


def test_log_pass_makes_no_series_products(monkeypatch):
    infinite = pointwise_product(make("sigma", 1), make("phi"))
    b, raw = infinite.bell, infinite.series(12)
    # a copy, so that no earlier read of the shared catalog series filled
    # its log series
    core = make("core", 2).bell
    finite = BellRational(core.num, core.den)
    dens = []

    def divide(num, den, K, out=None):
        dens.append(list(den))
        return series_div(num, den, K, out)

    def banned(*args):
        raise AssertionError("series product in the log-derivative pass")

    # the pass may divide, but only by a numerator, a denominator or the
    # raw series: never by a product, and never expanding B itself
    monkeypatch.setattr(euler_module, "series_div", divide)
    for module in (polys_module, bell_module):
        monkeypatch.setattr(module, "series_div", banned)
    monkeypatch.setattr(XPoly, "__mul__", banned)
    efl = euler_expand(b, 12)
    assert euler_expand(raw, 12).factors == efl.factors
    assert _peel(_log_series(b, 16), signed=False, weight_cap=64) is None
    peeled = _peel(_log_series(finite, 16), signed=False, weight_cap=64)
    assert sorted((e.u, e.l, e.gamma) for e in peeled) \
        == [(1, 1, -1), (2, 0, -1), (2, 2, 1)]
    divisions = len(dens)
    assert round_trips(efl, raw)
    monkeypatch.undo()
    # b's num and den to order 12, the raw series, b's num and den again
    # only from order 13 to 16 (its log series is kept and extended), and
    # finite's num and den
    assert len(dens) == divisions == 2 + 1 + 2 + 2
    allowed = [b.num.coeffs, b.den.coeffs, raw,
               finite.num.coeffs, finite.den.coeffs]
    assert all(den in allowed for den in dens)
    assert series_eq(expand_factor_list(efl, 12), b.series(12), 12)


# rests of degree 2 whose zeta-form peel stops below U = 8, and one of
# degree 10 whose peel reads to order 30
MEMO_TEXTS = ["sigma(1)*phi", "jordan(3)*sigma_star(1)",
              "(phi*id)*sigma_star(2)", "sigma(1)^12"]


@pytest.mark.parametrize("src", MEMO_TEXTS)
def test_log_series_divides_each_order_once(monkeypatch, src):
    f = parse_function(src)
    rest = f.bell.split[1]
    calls = []

    def divide(num, den, K, out=None):
        calls.append((id(den), len(out) if out is not None else 0, K))
        return series_div(num, den, K, out)

    monkeypatch.setattr(euler_module, "series_div", divide)
    first = factor_bell(f, 8).to_json()
    zf = str(finite_zeta_form(f))
    assert factor_bell(f, 8).to_json() == first
    # num and den, each divided from where it stopped, once per new order
    for den in (rest.num.coeffs, rest.den.coeffs):
        spans = [(n, K) for d, n, K in calls if d == id(den)]
        assert spans and spans[0] == (0, 8)
        assert all(n == K0 + 1 and K > K0 for (_, K0), (n, K)
                   in zip(spans, spans[1:]))
    assert len(calls) in (2, 4)
    monkeypatch.undo()
    fresh = parse_function(src)
    assert factor_bell(fresh, 8).to_json() == first
    assert str(finite_zeta_form(fresh)) == zf


def test_log_series_copies_are_not_the_memo():
    # each peel mutates its T in place; later reads see the series intact
    f = parse_function("sigma(1)*phi")
    rest = f.bell.split[1]
    efl, zf = factor_bell(f, 8), finite_zeta_form(f)
    for K in (8, 4, 12):
        T = _log_series(rest, K)
        assert T == log_series_by_division(rest, K)
        assert _peel(T, signed=True)
        T[1][7] = 5
    assert factor_bell(f, 8) == efl
    assert str(finite_zeta_form(f)) == str(zf)
    assert _log_series(rest, 12) == log_series_by_division(rest, 12)


@pytest.mark.parametrize("src", MEMO_TEXTS)
def test_log_series_extends_like_a_fresh_division(src):
    rest = parse_function(src).bell.split[1]
    want = log_series_by_division(rest, 64)
    for K in (6, 8, 12, 64):
        assert _log_series(rest, K) == want[:K + 1], K


def test_factor_bell_exact_totient():
    efl = factor_bell(make("phi"))
    assert ef_tuples(efl) == [(1, 1, 1, -1), (1, 0, 1, 1)]
    assert str(efl) == "(1 - p x)^-1 (1 - x)"
    assert efl.truncated_at is None
    assert efl.to_json() == {
        "factors": [
            {"S": 1, "l": 1, "u": 1, "gamma": -1},
            {"S": 1, "l": 0, "u": 1, "gamma": 1},
        ],
        "truncated_at": None,
    }


def test_factor_bell_exact_alternating():
    efl = factor_bell(make("liouville"))
    assert ef_tuples(efl) == [(-1, 0, 1, -1)]
    assert str(efl) == "(1 + x)^-1"
    assert efl.truncated_at is None


def test_factor_bell_truncates_when_not_exact():
    efl = factor_bell(pointwise_power(make("phi"), 2), U=5)
    assert efl.truncated_at == 5


def test_finite_zeta_form_small():
    assert zf_tuples(finite_zeta_form(make("phi"))) == [(1, 0, -1), (1, 1, 1)]
    assert str(finite_zeta_form(make("phi"))) == "zeta(s-1)/zeta(s)"
    assert str(finite_zeta_form(make("mu"))) == "1/zeta(s)"
    assert str(finite_zeta_form(make("core", 2))) == "zeta(s-1)*zeta(2s)/zeta(2s-2)"
    assert str(finite_zeta_form(make("tau", 2))) == "zeta(s)^2"
    assert str(finite_zeta_form(make("tfull_count", 2))) == \
        "zeta(s)*zeta(2s)*zeta(3s)/zeta(6s)"
    assert str(finite_zeta_form(make("lcm_pairs", 2))) == \
        "zeta(s-2)^2*zeta(2s-2)/zeta(2s-4)"


def test_finite_zeta_form_detects_infinite():
    f = pointwise_product(make("sigma", 0), make("phi"))
    assert finite_zeta_form(f) is INFINITE
    assert finite_zeta_form(make("mu_star")) is INFINITE
    # a rest of degree 14 after the binomial split, the largest seen
    f = parse_function("rad(8) <*> rad(7) <*> inv(phi_star)")
    assert finite_zeta_form(f) is INFINITE


def test_finite_zeta_form_unknown_without_a_local_series():
    # a generic series, but none at the exceptional prime 2, where the
    # shift by p^-1 is not integral
    f = parse_function("shift(lcmc(2), -1)")
    assert f.bell is not None and f.local_bell(2) is None
    assert finite_zeta_form(f) == UNKNOWN


def test_peel_caps_match_trial_division():
    # phi(m) >= sqrt(m/2) bounds the m to look at by 2 D^2
    phi, psi = totients(2 * 30 * 30)
    for D in range(1, 31):
        ms = [m for m in range(1, 2 * D * D + 1) if phi[m] <= D]
        assert euler_module._peel_caps(D) == (
            max(m * (D // phi[m]) for m in ms),
            max(Fraction(psi[m], phi[m]) for m in ms)), D


def test_finite_zeta_form_of_a_cyclotomic_bell_series():
    # the Bell series is Phi_30(x) = prod_{d|30} (1 - x^d)^mu(30/d), of
    # degree 8 but order 30 and weight psi(30) = 72
    f = parse_function(
        "inv(eps(5)*eps(6)) <*> inv(eps(3)) <*> inv(eps(5)) <*> inv(eps(2))"
        " <*> (eps(3)*eps(5)) <*> (eps(2)*eps(5)) <*> eps(6) <*> one")
    assert f.bell.num == XPoly.from_ints([1, 1, 0, -1, -1, -1, 0, 1, 1])
    assert str(finite_zeta_form(f)) == \
        "zeta(s)*zeta(6s)*zeta(10s)*zeta(15s)/(zeta(2s)*zeta(3s)*zeta(5s)*zeta(30s))"


def test_finite_zeta_form_leaves_out_trivial_local_factors():
    zf = finite_zeta_form(make("periodic2", 1))
    assert zf.local == {} and str(zf) == "zeta(s)"
    zf = finite_zeta_form(parse_function("gcdc(12) <*> inv(gcdc(12))"))
    assert zf.local == {} and zf.zeta_factors == [] and str(zf) == "1"
    assert zf.to_json() == {"zeta": [], "local": []}


def test_zeta_form_local_factors():
    zf = finite_zeta_form(make("gcdc", 4))
    assert str(zf) == "zeta(s) * (1 + 2^(-s) + 2*4^(-s)) [p=2]"
    assert zf.local == {2: BellRational(XPoly.from_ints([1, 1, 2]),
                                        XPoly.from_ints([1]))}
    assert zf.to_json()["local"] == [{"prime": 2, "poly": [[1, 0], [1, 1], [2, 2]]}]

    zf = finite_zeta_form(make("ramanujan", 9))
    assert str(zf) == "1/zeta(s) * (1 + 3*3^(-s) + 9*9^(-s)) [p=3]"


def test_zeta_form_rational_local_factor():
    zf = finite_zeta_form(make("sigma_star_odd", 1))
    assert str(zf) == \
        "zeta(s-1)*zeta(s)/zeta(2s-1) * (1 - 2*2^(-s))/(1 - 2*4^(-s)) [p=2]"
    b = zf.local[2]
    assert not b.den.is_one()
    assert [c.constant_value() for c in b.series(6)] == \
        [1, -2, 2, -4, 4, -8, 8]
    assert zf.to_json()["local"] == [{
        "prime": 2,
        "poly": [[1, 0], [-2, 1]],
        "den_poly": [[1, 0], [-2, 2]],
    }]


@pytest.mark.parametrize("name,args", EXCEPTIONAL)
def test_local_json_rebuilds_the_local_series(name, args):
    # each JSON entry is its local series: poly the numerator, den_poly
    # the denominator or 1 where it is absent
    def xpoly(terms):
        cs = [0] * (max(j for _, j in terms) + 1)
        for c, j in terms:
            cs[j] = c
        return XPoly.from_ints(cs)

    zf = finite_zeta_form(make(name, *args))
    docs = zf.to_json()["local"]
    assert [d["prime"] for d in docs] == list(zf.local)
    for d in docs:
        den = xpoly(d.get("den_poly", [[1, 0]]))
        assert BellRational(xpoly(d["poly"]), den) == zf.local[d["prime"]]


def test_zeta_form_to_coeffs_fixtures():
    two = ZetaForm([ZetaFactor(1, 0, 1), ZetaFactor(1, 1, 1)], [])
    assert zeta_form_to_coeffs(two, 6) == [1, 3, 4, 7, 6, 12]
    assert zeta_form_to_coeffs(ZetaForm([ZetaFactor(1, 0, 1)], []), 5) == [1] * 5
    ratio = ZetaForm([ZetaFactor(1, 1, 1), ZetaFactor(1, 0, -1)], [])
    assert zeta_form_to_coeffs(ratio, 6) == [1, 1, 2, 2, 4, 2]
    # zeta(s)/zeta(2s): the indicator of the squarefree numbers
    squarefree = ZetaForm([ZetaFactor(1, 0, 1), ZetaFactor(2, 0, -1)], [])
    assert zeta_form_to_coeffs(squarefree, 12) == \
        [1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0]
    # counts as terms() takes them: none is empty, a negative one an error
    assert zeta_form_to_coeffs(two, 1) == [1]
    assert zeta_form_to_coeffs(two, 0) == []
    with pytest.raises(SieveLimitError, match="term count -3 is negative"):
        zeta_form_to_coeffs(two, -3)


def test_zeta_form_applies_one_euler_factor_per_prime(monkeypatch):
    N = 3000
    primes = [n for n in range(2, N + 1)
              if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    applied = []
    mul_local = euler_module._mul_local

    def counted(acc, p, cs):
        applied.append(p)
        mul_local(acc, p, cs)

    monkeypatch.setattr(euler_module, "_mul_local", counted)
    for name, args in [("sigma", (1,)), ("tau", (4,)), ("sigma_star_odd", (1,))]:
        f = make(name, *args)
        zf = finite_zeta_form(f)
        applied.clear()
        assert zeta_form_to_coeffs(zf, N) == terms(f, N)
        # every zeta factor at once per prime, then each local factor
        assert applied == primes + list(zf.local)


def test_zeta_form_round_trip_with_local():
    for name, args in [("gcdc", (4,)), ("sigma_star_odd", (1,)),
                       ("depleted", (2, 3)), ("sigma_odd", (1,))]:
        f = make(name, *args)
        zf = finite_zeta_form(f)
        assert zf is not INFINITE
        assert zeta_form_to_coeffs(zf, 64) == terms(f, 64)


def test_positive_zeta_factors_match_stream_product():
    # zeta(s)^2 zeta(2s-1) zeta(3s-2) (1 - 2x + 5x^2)/(1 + x) at p = 3,
    # against whole-stream Dirichlet products
    N = 3000
    local = BellRational(XPoly.from_ints([1, -2, 5]), XPoly.from_ints([1, 1]))
    zf = ZetaForm([ZetaFactor(1, 0, 2), ZetaFactor(2, 1, 1),
                   ZetaFactor(3, 2, 1)], {3: local})
    want = [0, 1] + [0] * (N - 1)
    for z in zf.zeta_factors:
        for _ in range(z.gamma):
            want = dirichlet_mul_streams(want, _zeta_base_stream(z.u, z.l, N))
    at3 = [0] * (N + 1)
    for j, c in enumerate(local.series(7)):
        at3[3**j] = c.constant_value()
    want = dirichlet_mul_streams(want, at3)
    assert zeta_form_to_coeffs(zf, N) == want[1:]


def test_coefficient_streams():
    # streams are 1-indexed with an unused slot at 0
    ones = [0] + [1] * 8
    moebius = [0, 1, -1, -1, 0, -1, 1, -1, 0]
    assert dirichlet_mul_streams(ones, moebius) == [0, 1] + [0] * 7


def test_abscissa_values():
    assert abscissa(factor_bell(make("phi"))) == Fraction(2)
    assert abscissa(factor_bell(make("mu"))) == Fraction(1)
    assert abscissa(finite_zeta_form(make("phi")).zeta_factors) == Fraction(2)
    assert str(abscissa(factor_bell(make("phi")))) == "2"
    # l = -1 gives 0 from a factor, as the empty product does
    assert abscissa([ZetaFactor(1, -1, 1)]) == 0


def test_abscissa_empty_product():
    delta = dirichlet_convolve(make("mu"), make("one"))
    absc = abscissa(factor_bell(delta))
    assert type(absc) is Fraction and absc == 0
    assert abscissa([]) == abscissa(iter(())) == 0


def test_records_print_compare_and_normalise():
    # the constructors merge exponents, drop zero ones and sort
    efl = EulerFactorList([EulerFactor(1, 0, 1, 1), EulerFactor(1, 1, 1, 2),
                           EulerFactor(1, 0, 1, -1)], truncated_at=4)
    assert efl.factors == [EulerFactor(1, 1, 1, 2)]
    assert efl == EulerFactorList([EulerFactor(1, 1, 1, 2)], 4)
    assert efl != EulerFactorList([EulerFactor(1, 1, 1, 2)])
    assert repr(efl) == ("EulerFactorList(factors=[EulerFactor(S=1, l=1, u=1,"
                         " gamma=2)], truncated_at=4, residual_ok=True)")
    assert efl.factors[0]._replace(gamma=3) == EulerFactor(1, 1, 1, 3)
    at3 = BellRational(XPoly.from_ints([1, 2]), XPoly.from_ints([1]))
    at2 = BellRational(XPoly.from_ints([1, 1]), XPoly.from_ints([1, -1]))
    zf = ZetaForm([ZetaFactor(1, 0, 1), ZetaFactor(1, 1, 1),
                   ZetaFactor(1, 0, 1)], {3: at3, 2: at2})
    assert zf.zeta_factors == [ZetaFactor(1, 1, 1), ZetaFactor(1, 0, 2)]
    assert list(zf.local) == [2, 3]
    assert zf.local[3] == at3
    assert zf == ZetaForm([ZetaFactor(1, 0, 2), ZetaFactor(1, 1, 1)],
                          {2: at2, 3: at3})
    assert zf != ZetaForm(zf.zeta_factors)
    assert str(zf) == ("zeta(s-1)*zeta(s)^2 * (1 + 2^(-s))/(1 - 2^(-s)) [p=2]"
                       " * (1 + 2*3^(-s)) [p=3]")
    assert zf.to_json()["local"] == [
        {"prime": 2, "poly": [[1, 0], [1, 1]], "den_poly": [[1, 0], [-1, 1]]},
        {"prime": 3, "poly": [[1, 0], [2, 1]]}]
    assert repr(ZetaForm([ZetaFactor(2, 0, -1)])) == (
        "ZetaForm(zeta_factors=[ZetaFactor(u=2, l=0, gamma=-1)], local={})")
    assert repr(ZetaForm([], {3: at3})) == (
        "ZetaForm(zeta_factors=[], local={3: BellRational(1 + 2*x)})")
    # mutable records are unhashable, as before
    for rec in (efl, zf):
        with pytest.raises(TypeError):
            hash(rec)
