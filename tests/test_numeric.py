"""Numerical evaluation inside the half-plane of convergence."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from dgf import numeric, sequences
from dgf.bell import MasterEquation, MultiplicativeFunction
from dgf.catalog import make
from dgf.errors import DgfError, DivergenceError, SieveLimitError
from dgf.euler import INFINITE, ZetaForm, abscissa, finite_zeta_form
from dgf.numeric import (
    EvalResult,
    eval_euler_product,
    eval_partial_sum,
    eval_zeta_form,
    riemann_zeta,
    wynn_epsilon,
)
from dgf.parser import parse_function
from dgf.polys import PrimePoly

import oracles
from conftest import EXCEPTIONAL, GRID

ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595943
ZETA4 = 1.0823232337111382


def test_riemann_zeta_reference_values():
    assert riemann_zeta(2.0) == pytest.approx(ZETA2, abs=1e-12)
    assert riemann_zeta(3.0) == pytest.approx(ZETA3, abs=1e-12)
    assert riemann_zeta(4.0) == pytest.approx(ZETA4, abs=1e-12)
    assert riemann_zeta(Fraction(3)) == riemann_zeta(3.0)
    # non-integer points against an independent high-precision source
    mp = pytest.importorskip("mpmath")
    for s in [1.1, 1.5, 2.5, 3.7, 7.25, 20.0]:
        assert riemann_zeta(s) == pytest.approx(float(mp.zeta(s)), rel=1e-11)


def test_riemann_zeta_divergence():
    for s in [1.0, 0.5, 0.0, -2.0]:
        with pytest.raises(DivergenceError):
            riemann_zeta(s)
    with pytest.raises(DivergenceError, match=r"^zeta has no value at s = "
                       r"1\.0 \(needs s > 1\)$"):
        riemann_zeta(1.0)
    with pytest.raises(DivergenceError, match=r"at s = 0\.99999999 "):
        riemann_zeta(0.99999999)
    with pytest.raises(DivergenceError):
        riemann_zeta(Fraction(1))


def test_wynn_epsilon_on_alternating_series():
    # log 2 partial sums: linear convergence, where extrapolation shines
    partials, acc = [], 0.0
    for n in range(1, 26):
        acc += (-1.0) ** (n + 1) / n
        partials.append(acc)
    best, err = wynn_epsilon(partials)
    assert abs(best - math.log(2)) < 1e-12
    assert err < 1e-10


def test_wynn_epsilon_on_monotone_series():
    # zeta(2) partial sums converge logarithmically: expect a modest gain
    partials, acc = [], 0.0
    for n in range(1, 30):
        acc += 1.0 / n ** 2
        partials.append(acc)
    best, _ = wynn_epsilon(partials)
    assert abs(best - ZETA2) < abs(partials[-1] - ZETA2) / 3


def test_eval_zeta_form_sigma():
    zf = finite_zeta_form(make("sigma", 1))
    r = eval_zeta_form(zf, 3.0)
    assert r.method == "zeta_form"
    assert r.value == pytest.approx(ZETA3 * ZETA2, abs=1e-10)
    assert abs(r.value - ZETA3 * ZETA2) <= max(r.error, 1e-12)


def test_eval_zeta_form_with_local_factor():
    f = make("gcdc", 4)
    zf = finite_zeta_form(f)
    r = eval_zeta_form(zf, 3.0)
    p = eval_partial_sum(f, 3.0, N=20000)
    assert abs(r.value - p.value) <= r.error + p.error


def test_eval_euler_product_within_reported_error():
    # sigma(1) splits into binomials: zeta(s) zeta(s - 1), whatever accel
    f = make("sigma", 1)
    truth = ZETA3 * ZETA2
    for accel in ("wynn", "none"):
        r = eval_euler_product(f, 3.0, P=2000, accel=accel)
        assert r.method == "euler_product+zeta"
        assert abs(r.value - truth) <= r.error
    # a(p) = 0, a(p^e) = 1 for e >= 2 keeps the rest 1 - x + x^2 past the
    # split's 1 - x, so the product is truncated: zeta(2s) zeta(3s)/zeta(6s)
    f = parse_function("inv(eps(6)) <*> eps(2) <*> eps(3)")
    truth = riemann_zeta(3.0) * riemann_zeta(4.5) / riemann_zeta(9.0)
    r = eval_euler_product(f, 1.5, P=2000)
    assert r.method == "euler_product+wynn"
    assert abs(r.value - truth) <= r.error
    r0 = eval_euler_product(f, 1.5, P=2000, accel="none")
    assert r0.method == "euler_product"
    assert abs(r0.value - truth) <= r0.error
    # acceleration should beat the raw truncation
    assert abs(r.value - truth) < abs(r0.value - truth)


def test_eval_euler_product_divergence():
    f = make("sigma", 1)  # converges only for s > 2
    for s in [2.0, 1.5]:
        with pytest.raises(DivergenceError):
            eval_euler_product(f, s, P=100)
    with pytest.raises(DivergenceError):
        eval_partial_sum(f, 2.0, N=100)


@pytest.mark.parametrize("src,s", [("const(3)", 1.2), ("const(1000000)", 1.5),
                                   ("inv(periodic2(1000000))", 2.0)])
def test_real_pole_at_a_small_prime_refused(src, s):
    # the Bell series at p = 2 has a real pole inside |x| <= 2^-s, though
    # s is beyond the abscissa the factorisation reads
    f = parse_function(src)
    zf = finite_zeta_form(f)
    with pytest.raises(DivergenceError, match="real pole"):
        eval_euler_product(f, s, P=100)
    with pytest.raises(DivergenceError, match="real pole"):
        eval_partial_sum(f, s, N=100)
    if zf != INFINITE:
        with pytest.raises(DivergenceError, match="real pole"):
            eval_zeta_form(zf, s)


def _zeta_form_reference(zf: ZetaForm, s: float, mp):
    # the zeta form's value at the double s in 50 digits: mpmath's zeta
    # at each exact u s - l, each local factor's polynomials in mpmath
    with mp.workdps(50):
        S = mp.mpf(s)
        ref = mp.fprod(mp.zeta(z.u * S - z.l) ** z.gamma
                       for z in zf.zeta_factors)
        for q, b in zf.local.items():
            x = mp.power(q, -S)
            num, den = ([c.constant_value() for c in xp.coeffs[::-1]]
                        for xp in (b.num, b.den))
            ref *= mp.polyval(num, x) / mp.polyval(den, x)
        return ref


def test_zeta_form_error_holds_near_the_abscissa():
    # calibration of the claimed 1e-13 relative error where it is hardest:
    # just past the margin, for every finite zeta form of the catalog grids
    # with a factor zeta(us - l) of u >= 2 or l != 0, whose u s - l a
    # double would round, and the eps and shift forms that broke it
    mp = pytest.importorskip("mpmath")
    fs = [make(name, *args) for name, args in GRID + EXCEPTIONAL]
    fs += [parse_function(src) for src in ("eps(5)", "eps(7)",
                                           "shift(eps(3), 1)",
                                           "shift(eps(6), 1)")]
    points = 0
    for f in fs:
        zf = finite_zeta_form(f)
        if not isinstance(zf, ZetaForm) or all(
                z.u < 2 and not z.l for z in zf.zeta_factors):
            continue
        absc = float(abscissa(zf.zeta_factors))
        for off in (1.01e-6, 1e-5, 1e-3):
            s = absc + off
            r = eval_zeta_form(zf, s)
            actual = abs(r.value - _zeta_form_reference(zf, s, mp))
            assert actual <= r.error, (str(f), s, r, float(actual))
            points += 1
    assert points >= 150


# the benchmark's numeric grid functions and their abscissae
NUMERIC_GRID = [("mu", 1), ("phi", 2), ("sigma(1)", 2), ("tau(4)", 1),
                ("psi_k(2)", 3), ("gcdc(12)", 1), ("mu^2 * phi", 2),
                ("mu_star", 1)]


@pytest.mark.parametrize("src,absc", NUMERIC_GRID)
def test_pole_check_refuses_no_point_of_the_numeric_grid(src, absc):
    f = parse_function(src)
    s = absc + 0.01
    zf = finite_zeta_form(f)
    if zf != INFINITE:
        eval_zeta_form(zf, s)
    eval_euler_product(f, s, P=1000)
    eval_partial_sum(f, s, N=1000)


# the grid's functions that split exactly into binomials, their
# abscissae and their Dirichlet series by mpmath, written out from the
# definitions: gcd(n, 12) has a(2^e) = 2^min(e, 2), a(3^e) = 3 for e >= 1
SPLIT_REFERENCES = {
    "mu": (1, lambda z, S: 1 / z(S)),
    "phi": (2, lambda z, S: z(S - 1) / z(S)),
    "sigma(1)": (2, lambda z, S: z(S) * z(S - 1)),
    "tau(4)": (1, lambda z, S: z(S) ** 4),
    "psi_k(2)": (3, lambda z, S: z(S) * z(S - 2) / z(2 * S)),
    "gcdc(12)": (1, lambda z, S: z(S) * (1 + 2 ** -S + 2 * 4 ** -S)
                 * (1 + 2 * 3 ** -S)),
}


@pytest.mark.parametrize("src", SPLIT_REFERENCES)
def test_split_euler_product_against_mpmath(src):
    # over all primes, not up to P: the claim holds with >= 12 digits at
    # every offset, the points next to the abscissa included.  Stopped at
    # P = 10^5, mu at 1.02 printed 0.0343966 (claiming 1.49e-7) and phi
    # at 2.01 printed 64.585 (claiming 0.777)
    mp = pytest.importorskip("mpmath")
    absc, ref = SPLIT_REFERENCES[src]
    f = parse_function(src)
    for off in (0.01, 0.02, 0.05, 0.5, 2.0):
        s = absc + off
        r = eval_euler_product(f, s, P=10**5)
        assert r.method == "euler_product+zeta"
        with mp.workdps(50):
            want = ref(mp.zeta, mp.mpf(s))
            actual = abs(r.value - want)
            assert actual <= r.error, (s, r, float(actual))
            assert actual <= 1e-12 * abs(want), (s, r, float(actual))


def test_split_euler_product_is_the_zeta_form(monkeypatch):
    # the same bits as eval_zeta_form, whatever P and accel, and no prime
    # read: a fresh shared sieve is not grown
    sieve = sequences.FactorSieve()
    monkeypatch.setattr(sequences, "_SIEVE", sieve)
    for src in [*SPLIT_REFERENCES, "depleted(5, 2)", "gcdc(16334)",
                "liouville"]:
        f = parse_function(src)
        absc = float(numeric._abscissa_of(f))
        for off in (0.01, 0.05, 0.5, 2.0):
            want = eval_zeta_form(finite_zeta_form(f), absc + off)
            for P in (2, sequences.MAX_SIEVE):
                for accel in ("wynn", "none"):
                    got = eval_euler_product(f, absc + off, P=P, accel=accel)
                    assert (got.value.hex(), got.error.hex(), got.method) == \
                        (want.value.hex(), want.error.hex(),
                         "euler_product+zeta"), (src, off, P, accel)
    assert sieve.limit == 1 and not sieve._primes


def test_bounds_checked_before_any_work(monkeypatch):
    def banned(f):
        raise AssertionError("work before the bound check")

    monkeypatch.setattr(numeric, "_abscissa_of", banned)
    f = make("mu")
    for P in (-5, 0, 1):
        with pytest.raises(SieveLimitError):
            eval_euler_product(f, 2.0, P=P)
    for N in (0, -1):
        with pytest.raises(SieveLimitError):
            eval_partial_sum(f, 2.0, N=N)


def test_eval_partial_sum_within_error():
    f = make("phi")
    truth = ZETA2 / ZETA3  # at s = 3
    r = eval_partial_sum(f, 3.0, N=5000)
    assert r.method == "partial_sum"
    assert abs(r.value - truth) <= r.error


@pytest.mark.parametrize("src,s,method,bound", [
    ("power(30)^2 * gcdc(524288)", 200.0, "sum", 10**4),
    ("mu", 60.0, "sum", 10),
    ("one", 80.0, "euler", 3),
    ("inv(eps(6)) <*> eps(2) <*> eps(3)", 80.0, "euler", 3),
])
def test_claimed_error_covers_the_rounding_of_the_value(src, s, method,
                                                        bound):
    # far right of the abscissa the tail estimate falls below the rounding
    # of a value near 1, which the claimed error still covers
    mp = pytest.importorskip("mpmath")
    f = parse_function(src)
    r = (eval_partial_sum(f, s, N=bound) if method == "sum"
         else eval_euler_product(f, s, P=bound))
    actual = abs(r.value - _zeta_form_reference(finite_zeta_form(f), s, mp))
    assert 0 < actual <= r.error, (r, float(actual))


def test_methods_agree_on_alternating_sign_function():
    f = make("liouville")  # 1/zeta(s) * zeta(2s)
    truth = riemann_zeta(6.0) / riemann_zeta(3.0)
    r1 = eval_euler_product(f, 3.0, P=10000)
    r2 = eval_partial_sum(f, 3.0, N=50000)
    assert r1.value == pytest.approx(truth, abs=1e-6)
    assert abs(r2.value - truth) <= r2.error


def test_eval_result_str():
    r = EvalResult(1.9773043502972958, 2.39e-05, "euler_product+wynn")
    assert str(r) == "1.9773043503 (error <= 2.39e-05, euler_product+wynn)"


def test_eval_result_record():
    # one argument to "%s", never a tuple of three
    r = EvalResult(1.9773043502972958, 2.39e-05, "euler_product+wynn")
    assert "%s" % r == "1.9773043503 (error <= 2.39e-05, euler_product+wynn)"
    assert repr(r) == ("EvalResult(value=1.9773043502972958, error=2.39e-05,"
                       " method='euler_product+wynn')")
    assert r == EvalResult(1.9773043502972958, 2.39e-05, "euler_product+wynn")
    assert r != (r.value, r.error, r.method)


def _squares():
    # a(p^e) = 1 when e is a square: a lacunary Bell series, not rational
    return MultiplicativeFunction("squares", MasterEquation(
        lambda e: PrimePoly.const(int(math.isqrt(e) ** 2 == e))))


_PS = oracles.trial_primes(10 * numeric._BLOCK)
# P in the first block, at the last prime of a block, at the first prime
# of the next
_BOUNDS = (2, 3, _PS[numeric._BLOCK - 1], _PS[numeric._BLOCK])
# the benchmark's numeric grid; a function whose exceptional prime is not
# the first prime, and one with exceptional primes in two blocks, each
# split exactly and with a rest; one with no rational Bell series
KERNEL_FUNCTIONS = ["mu", "phi", "sigma(1)", "tau(4)", "psi_k(2)",
                    "gcdc(12)", "mu^2 * phi", "mu_star", "depleted(5, 2)",
                    "gcdc(%d)" % (2 * _BOUNDS[-1]), "squares",
                    "mu_star <*> depleted(5, 2)",
                    "mu_star <*> gcdc(%d)" % (2 * _BOUNDS[-1])]


def _blocked(f, s: float, P: int, accel: str) -> EvalResult:
    # eval_euler_product where the split leaves a rest; else its blocked
    # kernel called alone, which it takes only for a rest
    if f.bell.split[1] is not None:
        return eval_euler_product(f, s, P=P, accel=accel)
    local = numeric._local_bells(f)
    absc = numeric._abscissa_of(f)
    with numeric._guard(s, absc, local):
        return numeric._blocked_product(f, local, absc, s, P, accel)


@pytest.mark.parametrize("src", KERNEL_FUNCTIONS)
def test_blocked_euler_product_matches_prime_by_prime(src):
    f = _squares() if src == "squares" else parse_function(src)
    assert (f.bell is None) == (src == "squares")
    if f.bell is None:
        # with no series known, no Euler factor has a value: both sums
        # refuse before any work, where a raw sum would stop at a(p) = 0
        for evaluate in (eval_euler_product, eval_partial_sum):
            with pytest.raises(DgfError, match="no Bell series known"):
                evaluate(f, 3.0)
        return
    absc = float(numeric._abscissa_of(f))
    for off in (0.01, 0.05, 0.5, 2.0):
        for P in _BOUNDS:
            for accel in ("wynn", "none"):
                got = _blocked(f, absc + off, P, accel)
                want = oracles.euler_product(f, absc + off, P, accel)
                assert (got.value.hex(), got.error.hex(), got.method) == \
                    (want.value.hex(), want.error.hex(), want.method), \
                    (src, off, P, accel)


def _outcome(evaluate, *args):
    # the exact value, error and method, or the library error raised
    try:
        r = evaluate(*args)
    except DgfError as e:
        return type(e), str(e)
    return repr(r.value), repr(r.error), r.method


# the benchmark's numeric grid
GRID_FUNCTIONS = KERNEL_FUNCTIONS[:8]


def test_tail_constant_matches_the_pass_with_pow():
    # C from exact integers is the double of |a(n)| / pow(n, j); past 2^53
    # an int quotient would round once where that pass rounds |a(n)| first:
    # (2^54 + 1) / 3 and 2^54 / 3 are different doubles
    for vals in ([0, 0, 2**54 + 1], [0, 0, -(2**54 + 1)], [3] * 10,
                 [1, -5, 7, 0, 2**53 - 1], list(range(-50, 50)), [0]):
        for j in (0.0, 1.0, 2.0, 0.5, 2.5):
            want = max(abs(v) / n ** j for n, v in enumerate(vals, 1))
            assert repr(numeric._tail_constant(vals, j)) == repr(want), \
                (vals, j)
    for j in (0.0, 1.0, 2.0, 0.5):
        with pytest.raises(OverflowError):
            numeric._tail_constant([1, 2**1100], j)
        with pytest.raises(OverflowError):
            max(abs(v) / n ** j for n, v in enumerate([1, 2**1100], 1))


# the grid's abscissas 1 and 2 give the partial sum's tail constant from
# exact integers; max_tpow(2) (abscissa 3/2) and power(2) * tau(30)
# (abscissa 3, |a(n)| >= 2^53 below n = 10^4) take the pass with pow
# (their partial sums only: the Euler product of the second takes seconds)
@pytest.mark.parametrize("src", GRID_FUNCTIONS + ["max_tpow(2)",
                                                  "power(2) * tau(30)"])
def test_streamed_kernels_match_the_list_kernels(src):
    # the Euler product by math.prod per checkpoint segment and the
    # partial sum in C-level maps give the bits of the kernels that kept
    # every running product and one generator step per term
    f = parse_function(src)
    absc = float(numeric._abscissa_of(f))
    for off in (0.01, 0.05, 0.5, 2.0):
        s = absc + off
        for P in (*_BOUNDS, 10**5) if src in GRID_FUNCTIONS else ():
            for accel in ("wynn", "none"):
                assert _outcome(_blocked, f, s, P, accel) == \
                    _outcome(oracles.euler_product_by_accumulate,
                             f, s, P, accel), (off, P, accel)
        for N in (1, 2, 999, 10**4):
            assert _outcome(eval_partial_sum, f, s, N) == \
                _outcome(oracles.partial_sum_by_generators, f, s, N), (off, N)
