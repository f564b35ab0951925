"""Master equations, Bell series reconstruction, and the combinators."""
from __future__ import annotations

import gc
import time
import weakref
from collections import Counter

import pytest

import dgf.bell as bell_module
from dgf.bell import (
    BellRational,
    EulerFactor as EF,
    MasterEquation,
    MultiplicativeFunction,
    dirichlet_convolve,
    dirichlet_inverse,
    pointwise_power,
    pointwise_product,
    shift_by_power,
    unitary_convolve,
)
from dgf.catalog import make
from dgf.errors import (DegreeBoundError, DgfError, MasterEquationError,
                        SeriesWindowError)
from dgf.parser import parse_function
from dgf.polys import PrimePoly, XPoly
from dgf.sequences import terms

import oracles
from oracles import (brute_convolve, brute_unitary_convolve, hadamard_degree,
                     rationalize, refit_bell, refit_local_bell, series_eq)

P = PrimePoly


def xp(*rows) -> XPoly:
    return XPoly([P.const(r) if isinstance(r, int) else r for r in rows])


def bell_is(b: BellRational, num: XPoly, den: XPoly) -> bool:
    # representation-free equality plus minimality of the reduced form
    cross = (b.num * den).coeffs == (num * b.den).coeffs
    return cross and b.num.degree() == num.degree() \
        and b.den.degree() == den.degree()


def test_bell_from_master_examples():
    K = 3
    assert make("mu").series(K) == [P.const(1), P.const(-1), P.zero, P.zero]
    assert make("one").series(2) == [P.one, P.one, P.one]
    assert make("id").series(2) == [P.one, P.monomial(1), P.monomial(2)]
    assert make("sigma", 1).series(2) == \
        [P.one, P.monomial(1) + P.one, P.monomial(2) + P.monomial(1) + P.one]


def test_rationalize_geometric():
    b = rationalize([P.one] * 6, 1)
    assert bell_is(b, xp(1), XPoly.binomial(1, 0, 1))


def test_rationalize_phi_squared():
    f = pointwise_power(make("phi"), 2)
    num = xp(1, P.const(1) + P.monomial(1, -2))          # 1 + (1-2p)x
    den = XPoly.binomial(1, 2, 1)                        # 1 - p^2 x
    assert bell_is(f.bell, num, den)


def test_rationalize_sigma0_phi():
    f = pointwise_product(make("sigma", 0), make("phi"))
    num = xp(1, -2, P.monomial(1))                       # 1 - 2x + p x^2
    den = XPoly.binomial(1, 1, 1) * XPoly.binomial(1, 1, 1)
    assert bell_is(f.bell, num, den)


def test_rationalize_sigma0_squared_phi():
    f = pointwise_product(pointwise_power(make("sigma", 0), 2), make("phi"))
    num = xp(1, P.monomial(1) + P.const(-4), P.monomial(1, 3),
             P.monomial(2, -1))
    den = XPoly.binomial(1, 1, 1) ** 3 if hasattr(XPoly, "__pow__") else \
        XPoly.binomial(1, 1, 1) * XPoly.binomial(1, 1, 1) * XPoly.binomial(1, 1, 1)
    assert bell_is(f.bell, num, den)


def test_rationalize_sigma1_phi():
    f = pointwise_product(make("sigma", 1), make("phi"))
    num = xp(1, P.monomial(1, -1) + P.const(-1), P.monomial(2))
    den = XPoly.binomial(1, 2, 1) * XPoly.binomial(1, 1, 1)
    assert bell_is(f.bell, num, den)


def test_rationalize_sigma2_cubed():
    f = pointwise_power(make("sigma", 2), 3)
    num = xp(1, P.monomial(4, 2) + P.monomial(2, 2), P.monomial(6))
    den = XPoly.binomial(1, 0, 1) * XPoly.binomial(1, 2, 1) \
        * XPoly.binomial(1, 4, 1) * XPoly.binomial(1, 6, 1)
    assert bell_is(f.bell, num, den)


def test_rationalize_round_trips_series():
    for name, args in [("phi", ()), ("tau", (3,)), ("sigma_star", (2,))]:
        f = make(name, *args)
        b = f.bell
        assert b is not None
        assert series_eq(b.series(10), f.series(10), 10)


def test_rationalize_degree_bound():
    # factorial coefficients are not a rational series
    ser = [P.const(1), P.const(1), P.const(2), P.const(6), P.const(24),
           P.const(120), P.const(720), P.const(5040), P.const(40320)]
    with pytest.raises(DegreeBoundError):
        rationalize(ser, 3)


@pytest.mark.parametrize("num, den, d", [
    # collapses to 1 at p = 2, a degenerate specialisation
    (xp(1, -2), XPoly.binomial(1, 1, 1), 1),
    # numerator of higher degree than the denominator
    (xp(1, 0, 0, 0, P.monomial(1)), XPoly.binomial(1, 1, 1), 4),
    (xp(1, -1, 0, 0, 0, 1), xp(1), 5),
    # a constant window with a coefficient far above the first digit
    (xp(1), xp(1, -10**6), 1),
    # negative digits: phi_star's (1 - 2x + p x^2)/((1 - x)(1 - px))
    (xp(1, -2, P.monomial(1)), XPoly.binomial(1, 0, 1) * XPoly.binomial(1, 1, 1),
     2),
])
def test_rationalize_kernel_edges(num, den, d):
    # recovered exactly from the fewest coefficients the degree needs
    b = BellRational(num, den)
    assert rationalize(b.series(2 * d + 1), d) == b


def test_rationalize_radix_doubling(monkeypatch):
    # a first radix of 2 bits is too narrow for the digits of sigma(1)*sigma(2)
    # and fails the re-check over Z[p]; doubling the bits finds the same form.
    # The fit is the test oracle's: it runs on the window at the degree
    # bound D and finds the series the Bell rule builds
    f = parse_function("sigma(1)*sigma(2)")
    want = f.bell
    D = hadamard_degree([make("sigma", 1).bell, make("sigma", 2).bell])
    window = f.series(2 * D + 1)
    calls = Counter()
    fit, kernel = oracles.rationalize, oracles._scalar_pade

    def counting_fit(series, max_degree):
        calls["rationalize"] += 1
        return fit(series, max_degree)

    def counting_kernel(vals, d_cap):
        calls["kernel"] += 1
        return kernel(vals, d_cap)

    monkeypatch.setattr(oracles, "_start_bits", lambda series: 2)
    monkeypatch.setattr(oracles, "rationalize", counting_fit)
    monkeypatch.setattr(oracles, "_scalar_pade", counting_kernel)
    assert oracles.rationalize(window, D) == want
    assert calls["kernel"] > calls["rationalize"] > 0
    # (1 - 2x)/(1 - px) collapses to 1 at p = 2 and (1 - 4x)/(1 - px) at the
    # 2-bit radix p = 4, whose fit then fails the re-check once
    for a, fits in [(2, 1), (4, 2)]:
        calls.clear()
        degenerate = BellRational(xp(1, -a), XPoly.binomial(1, 1, 1))
        assert oracles.rationalize(degenerate.series(5), 1) == degenerate
        assert calls["kernel"] == fits


def test_matches_is_a_proof_over_zp():
    # 1 + 2^k x agrees with the window 1 + p x at p = 2^k only; the check's
    # own radix is wide enough to tell them apart
    window = [P.one, P.monomial(1)] + [P.zero] * 4
    assert BellRational(xp(1, P.monomial(1)), xp(1)).matches(window)
    for k in range(1, 12):
        fake = BellRational(xp(1, 2**k), xp(1))
        assert fake.num.coeffs[1].pack(k) == window[1].pack(k)
        assert not fake.matches(window)
        # (1 + c x)/(1 - c x), c = 2^(k-1), is 1 + 2^k x + ...: the bound
        # must count den, whose coefficients exceed every one in the window
        c = 2 ** (k - 1)
        fake = BellRational(xp(1, c), xp(1, -c))
        assert fake.series(1)[1].pack(k) == window[1].pack(k)
        assert not fake.matches(window[:2])
    b = parse_function("sigma(1)*sigma(2)").bell
    ser = b.series(12)
    assert b.matches(ser)
    ser[12] = ser[12] + P.monomial(30)
    assert not b.matches(ser)


def test_rationalize_makes_no_series_product(monkeypatch):
    window = parse_function("sigma(1)*sigma(2)").series(35)
    want = rationalize(window, 16)
    calls = Counter()
    div, mul = bell_module.series_div, P.__mul__

    def counting_div(*args):
        calls["series_div"] += 1
        return div(*args)

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(bell_module, "series_div", counting_div)
    monkeypatch.setattr(P, "__mul__", counting_mul)
    assert rationalize(window, 16) == want
    assert calls == Counter()


def test_rationalize_argument_errors():
    for series, d in [([P.one] * 5, 2), ([P.const(2)] + [P.one] * 5, 1)]:
        with pytest.raises(SeriesWindowError) as exc:
            rationalize(series, d)
        assert isinstance(exc.value, DgfError)
        assert isinstance(exc.value, ValueError)


def test_exceptional_primes_local_bell():
    f = make("sigma_odd", 1)
    assert f.exceptional_primes == [2]
    # at p=2 only the odd divisor 1 contributes at every power
    loc = f.local_series(2, 4)
    assert [c for c in loc] == [1, 1, 1, 1, 1]
    generic = f.series(3)
    assert generic[1] == P.monomial(1) + P.one


def test_master_value_uses_exceptions():
    f = make("sigma_odd", 1)
    assert f.coeff(2, 5) == 1
    assert f.coeff(3, 2) == 13
    assert terms(f, 12) == [1, 1, 4, 1, 6, 4, 8, 1, 13, 6, 12, 4]


def test_dirichlet_convolve_matches_brute():
    f = dirichlet_convolve(make("phi"), make("one"))
    assert terms(f, 10) == list(range(1, 11))


def test_dirichlet_inverse_round_trip():
    f = make("sigma", 1)
    g = dirichlet_convolve(f, dirichlet_inverse(f))
    assert terms(g, 50) == [1] + [0] * 49


def test_unitary_convolve_unit():
    # eps-like unit: inverse of one under unitary convolution is mu_star
    f = unitary_convolve(make("one"), make("mu_star"))
    assert terms(f, 30) == [1] + [0] * 29


@pytest.mark.parametrize("src, want", [
    # 1 - x^6 over (1 - x^2)(1 - x^3): Phi_1 Phi_2 Phi_3 Phi_6 over
    # Phi_1 Phi_2 Phi_1 Phi_3, so Phi_6 over Phi_1
    ("inv(eps(6)) <*> eps(2) <*> eps(3)", "(1 - x + x^2)/(1 - x)"),
    ("mu <*> one", "1"),
    # 1 - p^2 x^2 over (1 - p x)(1 - x^2)
    ("core(2)", "(1 + p*x)/(1 - x^2)"),
    # no piece Phi_1, Phi_2 or Phi_3 of the den (1 - x^2)(1 - x^3)
    # divides the num: the gcd is 1
    ("(eps(2) <*> eps(3)) <+> inv(eps(6))",
     "(1 - x^6 + x^8 + x^9 - x^11)/(1 - x^2 - x^3 + x^5)"),
    # packed pairs whose integer gcd picks up a spurious factor where K is
    # a multiple of k, as x = 2^K = p^(K/k) there
    ("(core(2) <+> (depleted(2,2) * (liouville <+> core(2))))",
     "(1 + (2p-1)*x + 2*x^2)/(1 - x^2)"),
    ("(((liouville <+> core(2)))^2)^2",
     "(1 + (p^4-4p^3+6p^2-4p+1)*x + 15*x^2)/(1 - x^2)"),
    ("(one <*> ((eps(3) <*> sigma_prime) <+> jordan_star(2)))",
     "(1 + (p-1)*x + (-p^3-p)*x^2 + p^3*x^3 + (-p^2+1)*x^4)"
     "/(1 + (-p^2-2)*x + (2p^2+1)*x^2 + (-p^2-1)*x^3 + (p^2+2)*x^4"
     " + (-2p^2-1)*x^5 + p^2*x^6)"),
])
def test_gcd_cancels_cyclotomic_pieces(src, want):
    # common cyclotomic factors of binomial dens go through the one gcd
    assert str(parse_function(src).bell) == want


def test_gcd_test_prime_keeps_powers_of_two_apart(monkeypatch):
    # 1 - 2^(61 k) x and 1 - x are coprime; mod 2^61 - 1 they were equal,
    # and the exact gcd ran on them
    def no_gcd(*args):
        raise AssertionError("integer gcd on coprime polynomials")

    for k in (1, 2, 3, 64):
        assert bell_module._coprime_mod([1, -2**(61 * k)], [1, -1])
    monkeypatch.setattr(bell_module.math, "gcd", no_gcd)
    num, den = xp(1, P.monomial(61, -1)), xp(1, -1)
    assert bell_module._reduce_product(num, den) == BellRational(num, den)


@pytest.fixture
def divisions(monkeypatch):
    # every candidate gcd the division proof is asked to check, as text
    calls, divide = [], XPoly.divide

    def counted(self, other):
        calls.append(str(other))
        return divide(self, other)

    monkeypatch.setattr(XPoly, "divide", counted)
    return calls


def test_gcd_where_the_test_prime_divides_the_top(divisions):
    # M divides the top coefficient of 1 + M x, so the modular test proves
    # nothing, and the integer gcd finds the pair coprime
    M = 2**61 - 2373
    assert not bell_module._coprime_mod([1, M], [1, -1])
    num, den = xp(1, M), xp(1, -1)
    assert bell_module._reduce_product(num, den) == BellRational(num, den)
    assert divisions == ["1", "1"]


def test_gcd_retries_with_a_wider_x_radix(divisions):
    # at a concrete prime k changes nothing, yet K grows: at x = 2^13 the
    # values 1 - 2^80 of 1 - 4 x^6 and 1 - 2^16 of 1 - 8 x share 2^16 - 1,
    # too wide for the digits of (2^16 - 1)(1 - x); at x = 2^37 they share
    # 2^8 - 1, and the digits hold 255 (1 - x)
    b = bell_module._reduce_product(xp(1, -1, 0, 0, 0, 0, -4, 4),
                                    xp(1, -9, 8))
    assert str(b) == "(1 - 4*x^6)/(1 - 8*x)"
    assert divisions[2:] == ["1 - x", "1 - x"]


def test_pointwise_product_bell_path():
    f = pointwise_product(make("phi"), make("phi"))
    g = pointwise_power(make("phi"), 2)
    assert series_eq(f.series(8), g.series(8), 8)
    assert terms(f, 40) == [phi * phi for phi in terms(make("phi"), 40)]


def test_pointwise_refit_reads_its_degree_bound(monkeypatch):
    # 1/((1 - p x)(1 - p^2 x)) times 1 + x termwise: R = 2 * 0 and e0 = 2,
    # so D = 1 and the fit reads a(p^0..p^3), not the 36 of the cap refit
    ops = [parse_function("phi <*> sigma(2)"), parse_function("mu^2")]
    D = hadamard_degree([f.bell for f in ops])
    assert D == 1
    h = pointwise_product(*ops)
    read = set()
    rule = h.rule

    def counted(node, q, e):
        read.add(e)
        return rule(node, q, e)

    h.rule = counted
    assert h.bell == BellRational(xp(1, P({1: 1, 2: 1})), xp(1))
    assert read and len(read) <= 2 * D + 2
    assert h.bell == refit_bell(h)


def test_functions_free_without_the_cycle_collector():
    # the rules get their function as an argument and never hold it
    gc.disable()
    try:
        for src in ["(phi <*> sigma(2)) * mu^2", "sigma(1)^3", "gcdc(12) * phi"]:
            f = parse_function(src)
            assert f.bell is not None and f.local_bell(2) is not None
            ref = weakref.ref(f)
            del f
            assert ref() is None
    finally:
        gc.enable()


def test_pointwise_falls_back_to_the_cap_refit():
    # four degree-2 operands bound the product by D = 16, the cap itself
    ops = [make("sigma", k) for k in (1, 2, 3, 4)]
    assert hadamard_degree([f.bell for f in ops]) == 16
    h = ops[0]
    for f in ops[1:]:
        h = pointwise_product(h, f)
    assert h.bell is not None and h.bell == refit_bell(h)
    assert max(h.bell.num.degree(), h.bell.den.degree()) <= 16


def test_hadamard_den_adds_the_powers_of_equal_binomials():
    # 1/((1 - x)(1 - x^2)) has the double root 1: its coefficients are
    # n//2 + 1, so times 1/(1 - x^2) termwise they are k + 1 at x^(2k), the
    # series 1/(1 - x^2)^2; both tuples give 1 - x^2, and their powers add
    f, g = parse_function("one <*> eps(2)"), make("eps", 2)
    blocks = [f.bell.den_binomials, g.bell.den_binomials]
    assert blocks == [(EF(1, 0, 1, -1), EF(1, 0, 2, -1)), (EF(1, 0, 2, -1),)]
    assert bell_module._hadamard_den(blocks) == [EF(1, 0, 2, -2)]
    h = pointwise_product(f, g)
    square = XPoly.binomial(1, 0, 2) * XPoly.binomial(1, 0, 2)
    assert h.bell == BellRational(xp(1), square)
    # with the larger power alone, den * S below x^2 over den is wrong
    S, den = h.series(12), XPoly.binomial(1, 0, 2)
    num = bell_module._expand([EF(1, 0, 2, -1)], S, 2)
    assert not BellRational(num, den).matches(S)
    # u = 1 blocks share no roots, so there the larger power suffices:
    # sigma(1)^2 is (1 + p x)/((1 - x)(1 - p x)(1 - p^2 x))
    b = make("sigma", 1).bell
    assert bell_module._hadamard_den([b.den_binomials] * 2) == \
        [EF(1, 2, 1, -1), EF(1, 1, 1, -1), EF(1, 0, 1, -1)]


def test_termwise_products_read_their_den_off_the_binomials():
    # each series is built from den_H and reduced by exact division; a cap
    # refit once read 36 coefficients 1, 0, ..., 0 of eps(7)*eps(8) as 1
    for src, L in [("eps(5)*eps(6)", 30), ("eps(7)*eps(8)", 56)]:
        b = parse_function(src).bell
        assert str(b) == "(1)/(1 - x^%d)" % L
    # hadamard_degree bounds it by 216; it is 25/28
    f = parse_function("((gcdc(12) <*> sigma_odd(1))^2)^3")
    assert (f.bell.num.degree(), f.bell.den.degree()) == (25, 28)
    assert f.bell.series(60) == f.series(60)
    # sparse dens are built past degree MAX_ORDER: 2 terms of degree 280
    for src, L in [("eps(5)*eps(7)*eps(8)", 280),
                   ("eps(5)*eps(6)*eps(7)*eps(8)", 840)]:
        assert str(parse_function(src).bell) == "(1)/(1 - x^%d)" % L


def test_termwise_products_past_the_work_bound_have_no_series():
    # den_H of degree 616 with 12 terms, (1 - x^56)...(1 - p^560 x^56), is
    # past the work bound, and no series is guessed (a cap refit read 1)
    for src in ["(eps(7)*eps(8)) * sigma(1)^10", "sigma(1)^300",
                "((gcdc(12) <*> sigma_odd(1))^4)^3",
                # nor past an operand without a series, where a cap
                # refit read phi's
                "((eps(7)*eps(8)) * sigma(1)^10) <*> phi"]:
        start = time.perf_counter()
        assert parse_function(src).bell is None
        assert time.perf_counter() - start < 5, src


def test_powers_walk_multisets_of_binomials():
    # sigma(1)^30 has 2^30 tuples of den binomials but 31 multisets, each
    # standing for its orderings; its den is (1 - x)...(1 - p^30 x)
    b = make("sigma", 1).bell
    start = time.perf_counter()
    den = bell_module._hadamard_den([b.den_binomials] * 30)
    assert time.perf_counter() - start < 1
    assert den == [EF(1, l, 1, -1) for l in range(30, -1, -1)]
    start = time.perf_counter()
    f = parse_function("sigma(1)^30")
    assert (f.bell.num.degree(), f.bell.den.degree()) == (29, 31)
    assert time.perf_counter() - start < 10
    assert f.bell.matches(f.series(33))
    # equal binomials from several orderings add their powers: with
    # 1/((1 - x)(1 - x^2)) squared, (1 - x) (1 - x^2) and its swap both
    # give 1 - x^2
    g = parse_function("one <*> eps(2)").bell
    assert bell_module._hadamard_den([g.den_binomials] * 2) == \
        [EF(1, 0, 1, -1), EF(1, 0, 2, -3)]
    # more multisets than MAX_ORDER^2 are not walked
    assert bell_module._hadamard_den([g.den_binomials] * 4096) is None


def test_expand_multiplies_out_the_merged_factors():
    # against XPoly.__mul__ over |gamma| copies of each binomial: num and
    # den factors (gamma > 0, < 0) count alike, and merging drops the
    # powers that cancel
    fs = bell_module._merge([EF(1, 0, 1, -1), EF(-1, 2, 1, 1), EF(1, 0, 1, -2),
                             EF(1, 3, 2, 2), EF(-1, 1, 3, -1), EF(1, 5, 1, -4),
                             EF(1, 3, 2, -2)], EF)
    assert len(fs) == 4
    want = xp(1)
    for S, l, u, gamma in fs:
        for _ in range(abs(gamma)):
            want = want * XPoly.binomial(S, l, u)
    assert bell_module._expand(fs) == want
    assert bell_module._expand([]) == xp(1)
    # times a series, below x^N
    S = make("sigma", 2).series(12)
    for N in (1, 5, 13):
        assert bell_module._expand(fs, S, N) == \
            XPoly((XPoly(S) * want).coeffs[:N])


def test_cap_refit_rejects_on_the_values_at_two():
    # no fit runs: the runtime has none.  inv(phi_star)'s den 1 - 2x + p x^2
    # is no product of binomials, and times sigma(1)^8 the product's den is
    # their composed product, of degree 2 * 9 = 18, past the degree cap of
    # 16 that once rejected it: its series is built from the 19 coefficients
    # below N = 18 + e0, not fitted to the 36 of the cap refit
    import dgf
    for name in ("rationalize", "_scalar_pade", "_start_bits",
                 "hadamard_degree", "DEFAULT_DEGREE_CAP", "LOCAL_DEGREE_CAP"):
        assert not hasattr(bell_module, name)
    assert not hasattr(MultiplicativeFunction, "_refit")
    assert "rationalize" not in dgf.__all__
    h = parse_function("inv(phi_star) * sigma(1)^8")
    read = set()
    rule = h.rule

    def counted(node, q, e):
        read.add(e)
        return rule(node, q, e)

    h.rule = counted
    b = h.bell
    assert read == set(range(1, 19))
    assert (b.num.degree(), b.den.degree()) == (18, 18)
    assert b.matches(h.series(2 * 36 + 8))


def test_combinators_derive_bell_on_first_read():
    f = parse_function("(sigma(1)*sigma(2)*sigma(3)) <*> one")
    assert not f._bells
    assert terms(f, 12) == brute_convolve(
        terms(parse_function("sigma(1)*sigma(2)*sigma(3)"), 12), [1] * 12)
    assert not f._bells
    # B_f B_one with nothing to cancel, as when it was derived at build time
    b = parse_function("sigma(1)*sigma(2)*sigma(3)").bell
    assert f.bell == BellRational(b.num, b.den * XPoly.binomial(1, 0, 1))


def test_shift_by_power_multiplies_by_nk():
    f = shift_by_power(make("phi"), 2)
    base = terms(make("phi"), 30)
    assert terms(f, 30) == [n * n * base[n - 1] for n in range(1, 31)]


def test_shift_round_trip_on_bell():
    f = make("sigma", 1)
    g = shift_by_power(shift_by_power(f, 2), -2)
    assert series_eq(g.series(8), f.series(8), 8)


def test_shift_at_an_exceptional_prime_is_built():
    # x -> q^k x in exact rationals; a cap refit at degree 40 was once the
    # only source of these local series
    f = parse_function("shift(id * gcdc(12), -1)")
    f.rule = None  # the shift's own coefficients are never read
    assert str(f.local_bell(2)) == "(1 + x + 2*x^2)/(1 - x)"
    assert str(f.local_bell(3)) == "(1 + 2*x)/(1 - x)"
    assert str(f.bell) == "(1)/(1 - x)"
    # gcd(2^e, 12) / 2^e is 1/2 at e = 3, and 1/p is no polynomial: a
    # fraction gives no series
    g = parse_function("shift(gcdc(12), -1)")
    assert g.local_bell(2) is None and g.bell is None


def test_shift_non_integral_raises():
    f = shift_by_power(make("phi"), -1)     # phi(p)/p is not integral
    with pytest.raises(MasterEquationError):
        f.coeff(2, 1)


def test_shift_non_integral_raises_at_exceptional_prime():
    f = shift_by_power(make("sigma_odd", 1), -1)    # sigma_odd(2)/2 = 1/2
    assert f.exceptional_primes == [2]
    with pytest.raises(MasterEquationError, match="p=2"):
        f.coeff(2, 1)


N_SEQ = 2000
# combinator applied to an exceptional atom f and a generic atom g, and the
# same operation on the terms a, b of f and g
COMBINATORS = {
    "<*>": (dirichlet_convolve, brute_convolve),
    "<+>": (unitary_convolve, brute_unitary_convolve),
    "*": (pointwise_product, lambda a, b: [x * y for x, y in zip(a, b)]),
    "^": (lambda f, g: pointwise_power(f, 3), lambda a, b: [x ** 3 for x in a]),
    "shift": (lambda f, g: shift_by_power(f, 2),
              lambda a, b: [n * n * x for n, x in enumerate(a, start=1)]),
}


@pytest.mark.parametrize("atom", [("gcdc", (12,)), ("ramanujan", (12,)),
                                  ("sigma_odd", (1,)), ("periodic4", (3, 7))])
@pytest.mark.parametrize("op", [*COMBINATORS, "inv"])
def test_combinators_match_sequence_operations(atom, op):
    name, args = atom
    f, g = make(name, *args), make("sigma", 1)
    assert f.exceptional_primes
    a, b = terms(f, N_SEQ), terms(g, N_SEQ)
    if op == "inv":
        h = dirichlet_inverse(f)
        assert brute_convolve(a, terms(h, N_SEQ)) == [1] + [0] * (N_SEQ - 1)
    else:
        combine, on_terms = COMBINATORS[op]
        h = combine(f, g)
        assert terms(h, N_SEQ) == on_terms(a, b)
    # the local series, derived or refitted, is the refit from the values
    for q in h.exceptional_primes:
        assert h.local_bell(q) == refit_local_bell(h, q)


def test_master_rules_run_once_per_exponent():
    calls = Counter()

    def phi(e):
        calls["generic", e] += 1
        return P.monomial(e) - P.monomial(e - 1)

    def at3(e):
        calls[3, e] += 1
        return 3 ** (e - 1)

    # built without a derive, f has no series, and none is fitted to its
    # values: every combinator over it has none either
    f = MultiplicativeFunction("counted", MasterEquation(phi, {3: at3}))
    g = unitary_convolve(
        pointwise_product(dirichlet_convolve(dirichlet_inverse(f), f),
                          make("tau", 2)),
        shift_by_power(f, 1))
    assert f.bell is None and g.bell is None and g.local_bell(3) is None
    assert not calls
    assert terms(g, 500) and g.local_series(3, 12)
    assert calls and max(calls.values()) == 1


def test_operands_read_once_at_exceptional_prime(monkeypatch):
    # g has no override at 3, so its a(3^e) comes from the generic rule
    f, g = make("gcdc", 12), make("sigma", 1)
    reads = Counter()
    evaluate = P.evaluate

    def counted(poly, p):
        reads[p, poly] += 1
        return evaluate(poly, p)

    monkeypatch.setattr(P, "evaluate", counted)
    h = dirichlet_convolve(f, g)
    assert [h.coeff(3, e) for e in range(84)]
    assert reads and max(reads.values()) == 1


def test_local_bell_derived_without_own_coefficients():
    # every operand has a series at q, so the combinator's Bell rule gives
    # the local series without evaluating its own a(q^e)
    h = parse_function("inv(phi) <*> gcdc(60)")
    assert h.exceptional_primes == [2, 3, 5]
    calls = Counter()
    rule = h.rule

    def counted(node, q, e):
        calls[q] += 1
        return rule(node, q, e)

    h.rule = counted
    local = {q: h.local_bell(q) for q in h.exceptional_primes}
    assert not calls
    for q, b in local.items():
        assert b is not None and b == refit_local_bell(h, q)
    assert calls  # the refit reads through the counted rules


def test_bell_rational_constant_terms():
    for num, den in [(xp(2, 1), xp(1)), (xp(1), xp(0, 1)), (XPoly([]), xp(1))]:
        with pytest.raises(SeriesWindowError) as exc:
            BellRational(num, den)
        assert isinstance(exc.value, DgfError)
        assert isinstance(exc.value, ValueError)


def test_bell_rational_ops():
    b = make("phi").bell
    r = b.reciprocal()
    assert r.num.coeffs == b.den.coeffs and r.den.coeffs == b.num.coeffs
    prod = BellRational(b.num * r.num, b.den * r.den)
    assert series_eq(prod.series(6), [P.one] + [P.zero] * 6, 6)
    bound = b.bind_prime(3)
    assert bound.evaluate(3, 0.5) == pytest.approx((1 - 0.5) / (1 - 1.5))


def test_completely_multiplicative_geometric():
    # Bell of a completely multiplicative function is 1/(1 - a(p) x)
    for name, args, apol in [("liouville", (), P.const(-1)),
                             ("const", (2,), P.const(2)),
                             ("power", (3,), P.monomial(3)),
                             ("id", (), P.monomial(1))]:
        b = make(name, *args).bell
        assert b.num.is_one()
        assert b.den.coeffs == XPoly([P.one, -apol]).coeffs
