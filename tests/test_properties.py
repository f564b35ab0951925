"""Randomized structural properties of the engine."""
from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from dgf.bell import (
    BellRational,
    _reduce_product,
    dirichlet_convolve,
    dirichlet_inverse,
    shift_by_power,
    unitary_convolve,
)
from dgf.catalog import make
from dgf.errors import DegreeBoundError
from dgf.euler import (INFINITE, EulerFactor, ZetaForm, euler_expand,
                       finite_zeta_form, zeta_factors_from_euler)
from dgf.parser import parse, parse_function
from dgf.polys import PrimePoly, XPoly, series_div
from dgf.sequences import terms

from conftest import GRID
from oracles import (_ofactor, _scalar_pade, brute_convolve,
                     brute_unitary_convolve, capped_zeta_form, divide_binomial,
                     expand_factor_list, fraction_pade, name_by_formatting,
                     peel_by_division, rationalize, reduce_by_prs,
                     reduce_by_refit, refit_bell, refit_local_bell, series_eq,
                     series_inv, series_mul)

MODEST = settings(deadline=None, max_examples=60)
FEW = settings(deadline=None, max_examples=25)


@lru_cache(maxsize=None)
def cached_terms(name: str, args: tuple, N: int) -> tuple:
    return tuple(terms(make(name, *args), N))


@MODEST
@given(st.sampled_from(GRID), st.integers(2, 44), st.integers(2, 44))
def test_values_multiply_on_coprime_pairs(entry, m, n):
    if math.gcd(m, n) != 1:
        return
    name, args = entry
    seq = cached_terms(name, args, 2000)
    assert seq[m * n - 1] == seq[m - 1] * seq[n - 1]


small_seq = st.lists(st.integers(-9, 9), min_size=8, max_size=24)


@MODEST
@given(small_seq, small_seq)
def test_brute_convolution_commutes(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert brute_convolve(a, b) == brute_convolve(b, a)
    assert brute_unitary_convolve(a, b) == brute_unitary_convolve(b, a)


@FEW
@given(small_seq, small_seq, small_seq)
def test_brute_convolution_associates(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    assert brute_convolve(brute_convolve(a, b), c) == \
        brute_convolve(a, brute_convolve(b, c))


@FEW
@given(st.sampled_from(GRID))
def test_dirichlet_inverse_round_trip(entry):
    name, args = entry
    f = make(name, *args)
    conv = dirichlet_convolve(f, dirichlet_inverse(f))
    assert terms(conv, 1000) == [1] + [0] * 999


@FEW
@given(st.sampled_from(GRID), st.sampled_from(GRID))
def test_inverse_distributes_over_convolution(left, right):
    f, g = make(left[0], *left[1]), make(right[0], *right[1])
    a = terms(dirichlet_inverse(dirichlet_convolve(f, g)), 1000)
    b = terms(dirichlet_convolve(dirichlet_inverse(f), dirichlet_inverse(g)),
              1000)
    assert a == b


@MODEST
@given(st.sampled_from(GRID), st.sampled_from(GRID))
def test_convolution_of_functions_commutes(left, right):
    f, g = make(left[0], *left[1]), make(right[0], *right[1])
    assert terms(dirichlet_convolve(f, g), 200) == \
        terms(dirichlet_convolve(g, f), 200)
    assert terms(unitary_convolve(f, g), 200) == \
        terms(unitary_convolve(g, f), 200)


int_poly = st.lists(st.integers(-4, 4), min_size=0, max_size=4)


@MODEST
@given(int_poly, int_poly)
def test_euler_expansion_round_trips(num_tail, den_tail):
    b = BellRational(XPoly.from_ints([1] + num_tail),
                     XPoly.from_ints([1] + den_tail))
    U = 5
    efl = euler_expand(b, U)
    assert series_eq(expand_factor_list(efl, U), b.series(U), U)


prime_poly = st.dictionaries(st.integers(0, 3), st.integers(-3, 3),
                             max_size=3).map(PrimePoly)
prime_poly_tail = st.lists(prime_poly, max_size=3)


@MODEST
@given(st.lists(prime_poly, max_size=4), prime_poly_tail, st.integers(0, 6))
def test_series_div_matches_product_with_inverse(num, den_tail, K):
    # K runs below and above both degrees; an empty tail is den = 1
    den = [PrimePoly.one] + den_tail
    assert series_div(num, den, K) == series_mul(num, series_inv(den, K), K)
    assert series_div(num, [PrimePoly.one], K) == \
        series_mul(num, [PrimePoly.one], K)


@MODEST
@given(prime_poly_tail, prime_poly_tail, st.integers(1, 10))
def test_euler_expansion_matches_series_division(num_tail, den_tail, U):
    b = BellRational(XPoly([PrimePoly.one] + num_tail),
                     XPoly([PrimePoly.one] + den_tail))
    series = b.series(U)
    efl = euler_expand(b, U)
    assert efl.factors == peel_by_division(series, U).factors
    assert efl.residual_ok
    assert euler_expand(series, U).factors == efl.factors
    assert series_eq(expand_factor_list(efl, U), series, U)


@MODEST
@given(int_poly, int_poly)
def test_rationalize_recovers_rational_series(num_tail, den_tail):
    b = BellRational(XPoly.from_ints([1] + num_tail),
                     XPoly.from_ints([1] + den_tail))
    d = max(b.num.degree(), b.den.degree())
    K = 2 * d + 4
    r = rationalize(b.series(K), d)
    assert (r.num * b.den).coeffs == (b.num * r.den).coeffs


@st.composite
def kernel_windows(draw):
    """(vals, cap): an integer window of a rational fit, of one with a
    common factor, of a non-integral one, of a fit with one perturbed
    value, or pure noise."""
    cap = draw(st.integers(0, 6))
    M = draw(st.integers(2 * cap + 1, 2 * cap + 6))
    kind = draw(st.sampled_from(["fit", "common", "nonintegral", "perturbed",
                                 "noise"]))
    if kind == "noise":
        big = st.integers(-10**12, 10**12)
        return [1] + draw(st.lists(big, min_size=M, max_size=M)), cap
    if kind == "nonintegral":
        # a geometric tail of ratio u/v, integral on the window only
        u, v = draw(st.integers(-9, 9)), draw(st.integers(2, 9))
        a = draw(st.integers(1, 9)) * v ** M
        return [1] + [a * u**n // v**n for n in range(M)], cap
    tail = st.lists(st.integers(-2**40, 2**40), max_size=cap + 1)
    num = XPoly.from_ints([1] + draw(tail))
    den = XPoly.from_ints([1] + draw(tail))
    if kind == "common":
        c = XPoly.from_ints([1] + draw(st.lists(st.integers(-9, 9),
                                                min_size=1, max_size=2)))
        num, den = num * c, den * c
    vals = [c.constant_value() for c in series_div(num.coeffs, den.coeffs, M)]
    if kind == "perturbed":
        vals[draw(st.integers(1, M))] += draw(st.integers(1, 9))
    return vals, cap


@settings(deadline=None, max_examples=300)
@given(kernel_windows())
def test_integer_kernel_matches_fraction_kernel(window):
    vals, cap = window
    want = fraction_pade(vals, cap)
    if want is not None and any(v.denominator != 1 for v in want[0] + want[1]):
        with pytest.raises(DegreeBoundError):
            _scalar_pade(vals, cap)
    else:
        assert _scalar_pade(vals, cap) == want


@FEW
@given(st.sampled_from(GRID), st.integers(1, 3))
def test_shift_round_trip(entry, k):
    f = make(entry[0], *entry[1])
    g = shift_by_power(shift_by_power(f, k), -k)
    assert series_eq(g.series(6), f.series(6), 6)
    assert terms(g, 100) == terms(f, 100)


atoms = st.sampled_from([
    "phi", "mu", "one", "sigma(1)", "jordan(2)", "sigma_pow(1, 2)",
])


exceptional_atoms = st.sampled_from([
    "gcdc(12)", "ramanujan(6)", "sigma_odd(1)", "periodic4(3, 7)",
])


def expr_strategy(leaves=atoms, shifts=st.integers(-3, 3),
                  powers=st.integers(1, 5), max_leaves=6):
    """Expression texts with every composite in parentheses; a power's
    base has a pair of its own, so powers of powers are drawn too."""
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map("(%s <*> %s)".__mod__),
            st.tuples(kids, kids).map("(%s <+> %s)".__mod__),
            st.tuples(kids, kids).map("(%s * %s)".__mod__),
            st.tuples(kids, powers).map("(%s)^%d".__mod__),
            kids.map("inv(%s)".__mod__),
            st.tuples(kids, shifts).map("shift(%s, %d)".__mod__),
        ),
        max_leaves=max_leaves,
    )


@MODEST
@given(expr_strategy(st.one_of(atoms, exceptional_atoms),
                     shifts=st.integers(0, 2)))
def test_name_parses_back_to_the_same_function(text):
    # a function's name is its text: it parses to the nodes it was built
    # from, and builds the same function under the same name
    f = parse_function(text)
    g = parse_function(f.name)
    assert g.name == f.name
    assert parse(f.name) == parse(text)
    assert terms(g, 200) == terms(f, 200)


@MODEST
@given(expr_strategy(st.one_of(atoms, exceptional_atoms)))
def test_name_is_the_eager_formatting(text):
    # the name joined from each node's own pieces is the one formatted
    # from the operands' full names at every node
    assert parse_function(text).name == name_by_formatting(parse(text))


# operands whose dens do not split into binomials: const(c)'s 1 - c x,
# and the inverses of atoms whose dens split but whose numerators do not
unsplit_atoms = st.sampled_from([
    "inv(phi_star)", "const(2)", "const(3)", "inv(sigma_prime)",
    "inv(tau_star(3))", "inv(rad(3))",
])
# mixed with split and exceptional atoms under every combinator; integral
# shifts, so that every operand has its coefficients
unsplit_trees = expr_strategy(st.one_of(unsplit_atoms, atoms,
                                        exceptional_atoms),
                              shifts=st.integers(0, 2),
                              powers=st.integers(1, 2), max_leaves=3)


@MODEST
@given(st.one_of(
    st.tuples(unsplit_trees, unsplit_trees).map("(%s * %s)".__mod__),
    st.tuples(unsplit_trees, st.integers(2, 3)).map("(%s)^%d".__mod__),
    unsplit_trees))
def test_pointwise_bell_is_built_over_unsplit_dens(text):
    # every series built, generic and at each exceptional prime, holds
    # past twice its degrees, and where it is small enough to refit it is
    # already reduced
    h = parse_function(text)
    for q in [None, *h.exceptional_primes]:
        b = h.bell if q is None else h.local_bell(q)
        if b is None:
            continue
        K = 2 * (b.num.degree() + b.den.degree()) + 8
        if q is None:
            assert b.series(K) == h.series(K)
        else:
            assert ([c.constant_value() for c in b.series(K)]
                    == h.local_series(q, K))
        if max(b.num.degree(), b.den.degree()) <= 16:
            assert b == reduce_by_refit(b.num, b.den)


# all six combinators over generic and exceptional atoms; integral shifts,
# so that every node has its coefficients
mixed_trees = expr_strategy(st.one_of(atoms, exceptional_atoms),
                            shifts=st.integers(0, 2), powers=st.integers(1, 2),
                            max_leaves=4)


@settings(deadline=None, max_examples=150)
@given(mixed_trees)
def test_derived_bell_is_the_refit_on_mixed_trees(text):
    # wherever the cap refit finds a form, the Bell rules derive the same
    # series from the operands', generic and at every exceptional prime
    h = parse_function(text)
    want = refit_bell(h)
    assert want is None or h.bell == want
    for q in h.exceptional_primes:
        want = refit_local_bell(h, q)
        assert want is None or h.local_bell(q) == want


# atoms whose dens are products of binomials 1 - S p^l x^u with u | 6, so
# that the Bell rules cancel and build termwise products exactly, and the
# exceptional atoms; every combinator, pointwise powers up to 3
split_atoms = st.sampled_from([
    "phi", "mu", "one", "sigma(1)", "core(2)", "eps(2)", "eps(3)",
    "liouville", "psi_k(2)", "sigma_star(1)",
])
exact_trees = expr_strategy(st.one_of(split_atoms, exceptional_atoms),
                            shifts=st.integers(0, 2), powers=st.integers(1, 3),
                            max_leaves=3)


@settings(deadline=None, max_examples=80)
@given(exact_trees)
def test_exact_bell_rules_are_the_refit(text):
    # wherever the cap refit finds a form, the exact rules derive the same
    # series, generic and at every exceptional prime; and every series
    # they derive holds past the window a refit would read
    h = parse_function(text)
    want = refit_bell(h)
    assert want is None or h.bell == want
    if h.bell is not None:
        K = 2 * max(h.bell.num.degree(), h.bell.den.degree()) + 8
        assert h.bell.matches(h.series(K))
    for q in h.exceptional_primes:
        want = refit_local_bell(h, q)
        assert want is None or h.local_bell(q) == want


@MODEST
@given(exact_trees, exact_trees)
def test_exact_cancellation_is_the_refit_reduction(left, right):
    # the products <*> and <+> form before cancelling, reduced exactly over
    # binomial pieces, are the refit reduction of the same num/den
    fb, gb = parse_function(left).bell, parse_function(right).bell
    if fb is None or gb is None:
        return
    den = fb.den * gb.den
    for num in (fb.num * gb.num, fb.num * gb.den + gb.num * fb.den - den):
        assert _reduce_product(num, den) == reduce_by_refit(num, den)


# x-polynomials with constant term 1, x-degree at most 6 and coefficients
# up to 2^40: over Z[p] (the generic prime) or integers (a concrete one)
_wide = st.integers(-2**40, 2**40)
_coeffs = st.sampled_from([
    st.dictionaries(st.integers(0, 3), _wide, max_size=3).map(PrimePoly),
    _wide.map(PrimePoly.const)])


def _xpoly(coeff):
    return st.lists(coeff, max_size=6).map(
        lambda cs: XPoly([PrimePoly.one, *cs]))


@MODEST
@given(_coeffs.flatmap(lambda c: st.tuples(*[_xpoly(c)] * 3)))
def test_integer_gcd_is_the_remainder_sequence(fgh):
    # the one integer gcd cancels what the primitive remainder sequence
    # over Z cancels, common factor h or not
    f, g, h = fgh
    num, den = f * h, g * h
    assert _reduce_product(num, den) == reduce_by_prs(num, den)


# products of up to four binomials 1 - S p^l x^u: their values at
# p = 2^k, x = 2^K are 1 - S 2^(lk + uK), and where K is a multiple of k
# those of coprime binomials share wide factors 2^e - 1
_binomials = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, 4),
                                st.integers(1, 6)), max_size=4).map(
    lambda bs: math.prod((XPoly.binomial(*b) for b in bs),
                         start=XPoly([PrimePoly.one])))


@MODEST
@given(st.tuples(*[_binomials] * 3), st.sampled_from([None, 2, 3]))
def test_integer_gcd_on_binomial_products(fgh, q):
    f, g, h = fgh
    b = BellRational(f * h, g * h)
    if q:
        b = b.bind_prime(q)
    assert _reduce_product(b.num, b.den) == reduce_by_prs(b.num, b.den)


@MODEST
@given(_coeffs.flatmap(_xpoly), st.sampled_from((1, -1)), st.integers(0, 4),
       st.integers(1, 6), st.sampled_from([None, 2, 3]))
def test_divide_by_a_binomial_is_the_recurrence(f, S, l, u, q):
    # XPoly.divide, a series division, against the binomial recurrence it
    # replaced, on a multiple of the binomial and on f alone; at q = 2, 3
    # every coefficient is an integer, as at an exceptional prime
    binomial = XPoly.binomial(S, l, u)
    prod = f * binomial
    if q:
        f, prod = (BellRational(xp, XPoly([PrimePoly.one])).bind_prime(q).num
                   for xp in (f, prod))
    assert prod.divide(binomial) == divide_binomial(prod, S, l, u)
    assert f.divide(binomial) == divide_binomial(f, S, l, u)
    if not q:
        assert prod.divide(binomial) == f


@MODEST
@given(mixed_trees)
def test_zeta_form_is_the_capped_peels_on_mixed_trees(text):
    # wherever the peel of the whole series under guessed caps finds a
    # form, the binomial split finds the same one
    h = parse_function(text)
    want = capped_zeta_form(h)
    if want is not INFINITE:
        assert str(finite_zeta_form(h)) == str(want)


def _mobius(n: int) -> int:
    out = 1
    for _, e in _ofactor(n):
        if e > 1:
            return 0
        out = -out
    return out


def _cyclotomic_binomials(m: int) -> list[tuple[int, int]]:
    """(d, mu(m/d)) over d | m: Phi_m(t) = prod (1 - t^d)^mu(m/d) for
    m > 1, and 1 - t for m = 1."""
    return [(d, _mobius(m // d)) for d in range(1, m + 1)
            if m % d == 0 and _mobius(m // d)]


def _cyclotomic(m: int, sign: int, a: int, b: int) -> XPoly:
    """Phi_m(y), y = sign p^a x^b (1 - y for m = 1), by exact division of
    the binomials 1 - y^d of exponent +1 by those of exponent -1."""
    sides = [XPoly.from_ints([1]), XPoly.from_ints([1])]
    for d, mu in _cyclotomic_binomials(m):
        sides[mu < 0] = sides[mu < 0] * XPoly.binomial(sign ** d, a * d, b * d)
    num, den = sides
    return XPoly(series_div(num.coeffs, den.coeffs,
                            num.degree() - den.degree()))


# Euler's phi(m) wherever it is at most 16 (phi(m) >= sqrt(m/2))
_PHI = {m: phi for m in range(1, 513)
        if (phi := sum(math.gcd(m, k) == 1 for k in range(1, m + 1))) <= 16}


@st.composite
def cyclotomic_factor(draw):
    """(m, sign, a, b, gamma): Phi_m(sign p^a x^b)^gamma, phi(m) b <= 16."""
    m = draw(st.sampled_from(sorted(_PHI)))
    return (m, draw(st.sampled_from([1, -1])), draw(st.integers(0, 2)),
            draw(st.integers(1, 16 // _PHI[m])), draw(st.sampled_from([1, -1])))


def _cyclotomic_product(factors) -> tuple[BellRational, list]:
    """The product of the factors as a BellRational, and its zeta factors
    read off prod_{d|m} (1 - y^d)^mu(m/d)."""
    sides = [XPoly.from_ints([1]), XPoly.from_ints([1])]
    euler = []
    for m, sign, a, b, gamma in factors:
        sides[gamma < 0] = sides[gamma < 0] * _cyclotomic(m, sign, a, b)
        euler += [EulerFactor(sign ** d, a * d, b * d, gamma * mu)
                  for d, mu in _cyclotomic_binomials(m)]
    return BellRational(*sides), zeta_factors_from_euler(euler)


@FEW
@given(st.lists(cyclotomic_factor(), min_size=1, max_size=3))
def test_zeta_form_of_cyclotomic_products(factors):
    b, want = _cyclotomic_product(factors)
    got = finite_zeta_form(b)
    assert got is not INFINITE
    assert got.zeta_factors == ZetaForm(want).zeta_factors


NON_CYCLOTOMIC = [XPoly.from_ints([1, -2]),
                  XPoly([PrimePoly.one, PrimePoly({0: -1, 1: -1})]),
                  XPoly([PrimePoly.one, PrimePoly.const(-2),
                         PrimePoly.monomial(1)])]


@FEW
@given(st.lists(cyclotomic_factor(), max_size=3),
       st.sampled_from(NON_CYCLOTOMIC), st.booleans())
def test_no_zeta_form_with_a_non_cyclotomic_factor(factors, extra, in_den):
    b, _ = _cyclotomic_product(factors)
    b = (BellRational(b.num, b.den * extra) if in_den
         else BellRational(b.num * extra, b.den))
    assert finite_zeta_form(b) is INFINITE
