"""Definition-level oracles and brute-force convolutions for the tests.

Every catalog function has an evaluator written straight from its
definition, by trial division and divisor sums, independent of the
master-equation engine and of its sieve.  The Euler-factor peel is
redone by series division and factor lists are multiplied back out one
binomial power at a time, independent of the log-derivative pass, and
zeta factors by whole-stream Dirichlet products, independent of the
prime-by-prime Euler factors.  Bell series, generic and at exceptional
primes, are refitted from the prime-power values at the degree cap,
independent of the closed forms and of the combinators' Bell rules, and
common factors are cancelled by a refit, independent of the engine's
exact division by binomial pieces.
Truncated series products, inverses and comparisons are written out
here, independent of the engine's one series division, and so is the
Berlekamp-Massey fit over Q that the engine's fraction-free kernel is
checked against.  The Euler product is multiplied out one prime at a
time over trial-division primes, the reference for the engine's blocked
kernel.  Zeta forms are read by the peel of the whole Bell series under
guessed caps, the reference for the engine's exact binomial split, and
phi and psi by trial division are the reference for the caps of its peel.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from dgf.bell import (DEFAULT_DEGREE_CAP, LOCAL_DEGREE_CAP, BellRational,
                      rationalize)
from dgf.errors import CatalogError, DegreeBoundError
from dgf.euler import (INFINITE, EulerFactor, EulerFactorList, LocalFactor,
                       ZetaFactor, ZetaForm, _log_series, _peel, _zeta_bell)
from dgf.numeric import EvalResult, _abscissa_of, wynn_epsilon
from dgf.polys import PrimePoly, XPoly


def series_mul(a: list[PrimePoly], b: list[PrimePoly], K: int) -> list[PrimePoly]:
    """Product of two truncated series to order K."""
    out = [PrimePoly.zero] * (K + 1)
    for i, ai in enumerate(a[: K + 1]):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[: K + 1 - i]):
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def series_inv(a: list[PrimePoly], K: int) -> list[PrimePoly]:
    """Inverse to order K of a series with constant term 1."""
    if not a or not a[0].is_one():
        raise ValueError("series inversion requires constant term 1")
    out = [PrimePoly.zero] * (K + 1)
    out[0] = PrimePoly.one
    for n in range(1, K + 1):
        acc = PrimePoly.zero
        for j in range(1, min(n, len(a) - 1) + 1):
            if not a[j].is_zero() and not out[n - j].is_zero():
                acc = acc + a[j] * out[n - j]
        out[n] = -acc
    return out


def series_eq(a: list[PrimePoly], b: list[PrimePoly], K: int) -> bool:
    """Equality to order K, a missing coefficient read as zero."""
    for i in range(K + 1):
        ai = a[i] if i < len(a) else PrimePoly.zero
        bi = b[i] if i < len(b) else PrimePoly.zero
        if ai != bi:
            return False
    return True


def fraction_pade(vals: Sequence[int], d_cap: int):
    """Berlekamp-Massey over Q (Massey 1969): the minimal fit N/D, D(0) = 1,
    of vals, as (num, den, d) with Fraction lists of length d+1, or None
    when d > d_cap or 2d+1 > len(vals) - 1."""
    M = len(vals) - 1
    den, prev = [Fraction(1)], [Fraction(1)]
    d, n, gap, last = 0, 0, 1, Fraction(1)
    while d <= d_cap and 2 * d + 1 <= M:
        n += 1
        if n > M:
            den += [Fraction(0)] * (d + 1 - len(den))
            num = [sum(den[i] * vals[j - i] for i in range(j + 1))
                   for j in range(d + 1)]
            return num, den, d
        disc = sum(den[i] * vals[n - i] for i in range(len(den)))
        if disc == 0:
            gap += 1
            continue
        q = disc / last
        step = den + [Fraction(0)] * (gap + len(prev) - len(den))
        for i, c in enumerate(prev):
            step[gap + i] -= q * c
        if 2 * d < n:
            prev, d, gap, last = den, n - d, 1, disc
        else:
            gap += 1
        den = step
    return None


def refit_bell(f) -> BellRational | None:
    """Generic-prime Bell series of f fitted at the degree cap to the first
    2*cap+4 master coefficients, or None when none fits."""
    cap = DEFAULT_DEGREE_CAP
    try:
        return rationalize(f.series(2 * cap + 3), cap)
    except DegreeBoundError:
        return None


def refit_local_bell(f, q: int) -> BellRational | None:
    """Bell series of f at the prime q fitted to its first
    2*LOCAL_DEGREE_CAP+4 values a(q^e), or None when none fits."""
    window = f.local_series(q, 2 * LOCAL_DEGREE_CAP + 3)
    try:
        return rationalize(list(map(PrimePoly.const, window)), LOCAL_DEGREE_CAP)
    except DegreeBoundError:
        return None


def reduce_by_refit(num: XPoly, den: XPoly) -> BellRational:
    """num/den with common factors cancelled by refitting its first 2d+4
    coefficients at degree d = max(deg num, deg den): the reference for
    the engine's exact cancellation over binomial pieces."""
    d = max(num.degree(), den.degree())
    cand = BellRational(num, den)
    return cand if d == 0 else rationalize(cand.series(2 * d + 3), d)


def brute_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Dirichlet convolution of raw sequences (both indexed from n=1)."""
    if len(a) != len(b):
        raise ValueError("sequences differ in length: %d vs %d"
                         % (len(a), len(b)))
    N = len(a)
    out = [0] * N
    for d in range(1, N + 1):
        ad = a[d - 1]
        if ad:
            for m in range(1, N // d + 1):
                out[d * m - 1] += ad * b[m - 1]
    return out


def brute_unitary_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Unitary convolution: only coprime divisor splittings contribute."""
    if len(a) != len(b):
        raise ValueError("sequences differ in length: %d vs %d"
                         % (len(a), len(b)))
    N = len(a)
    out = [0] * N
    for d in range(1, N + 1):
        ad = a[d - 1]
        if ad:
            for m in range(1, N // d + 1):
                if math.gcd(d, m) == 1:
                    out[d * m - 1] += ad * b[m - 1]
    return out


def _zeta_base_stream(u: int, l: int, N: int) -> list[int]:
    out = [0] * (N + 1)
    out[1] = 1
    m = 2
    while m**u <= N:
        out[m**u] = m**l
        m += 1
    return out


def dirichlet_mul_streams(a: list[int], b: list[int]) -> list[int]:
    N = len(a) - 1
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        ad = a[d]
        if ad:
            for m in range(1, N // d + 1):
                if b[m]:
                    out[d * m] += ad * b[m]
    return out


# ---------------------------------------------------------------------------
# definition-level oracles, independent of the master-equation engine

def _ofactor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _odivisors(n: int) -> list[int]:
    divs = [1]
    for p, e in _ofactor(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def _omu(n: int) -> int:
    fac = _ofactor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def _obig_omega(n: int) -> int:
    return sum(e for _, e in _ofactor(n))


def _oomega(n: int) -> int:
    return len(_ofactor(n))


def _ophi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def _tpow_root(n: int, t: int) -> int:
    """Largest m with m^t dividing n."""
    best = 1
    m = 2
    while m**t <= n:
        if n % (m**t) == 0:
            best = m
        m += 1
    return best


def _is_tfree(n: int, t: int) -> bool:
    return all(e < t for _, e in _ofactor(n))


def _is_tfull(n: int, t: int) -> bool:
    return all(e >= t for _, e in _ofactor(n))


def _is_tpower(n: int, t: int) -> bool:
    r = round(n ** (1.0 / t))
    return any((r + d) ** t == n for d in (-1, 0, 1) if r + d >= 1)


def _divisors_of_power(n: int, t: int) -> Iterable[int]:
    divs = [1]
    for p, e in _ofactor(n):
        divs = [d * p**j for d in divs for j in range(t * e + 1)]
    return divs


def _tau_list(k: int, N: int) -> list[int]:
    acc = [1] * N
    for _ in range(k - 1):
        nxt = [0] * N
        for d in range(1, N + 1):
            for m in range(d, N + 1, d):
                nxt[m - 1] += acc[d - 1]
        acc = nxt
    return acc


def _congruence_count(n: int, t: int) -> int:
    return sum(1 for x in range(n) if pow(x, t, n) == 0)


def _congruence_min(n: int, t: int) -> int:
    m = 1
    while pow(m, t, n) != 0:
        m += 1
    return m


def _per_n(fn):
    def first(args, N):
        return [fn(n, *args) for n in range(1, N + 1)]
    first.at = fn
    return first


_ORACLES = {
    "one": _per_n(lambda n: 1),
    "id": _per_n(lambda n: n),
    "power": _per_n(lambda n, k: n**k),
    "const": _per_n(lambda n, c: c ** _obig_omega(n)),
    "mu": _per_n(_omu),
    "liouville": _per_n(lambda n: (-1) ** _obig_omega(n)),
    "mu_star": _per_n(lambda n: (-1) ** _oomega(n)),
    "mu_apostol": _per_n(lambda n, k:
                         0 if any(e > k for _, e in _ofactor(n)) else
                         (-1) ** sum(1 for _, e in _ofactor(n) if e == k)),
    "eps": _per_n(lambda n, t: 1 if _is_tpower(n, t) else 0),
    "xi": _per_n(lambda n, t: 1 if _is_tfree(n, t) else 0),
    "depleted": _per_n(lambda n, q, k: 0 if n % q**k == 0 else 1),
    "periodic2": _per_n(lambda n, c: c if n % 2 == 0 else 1),
    "periodic4": _per_n(lambda n, c1, c2:
                        c1 if n % 4 == 0 else (c2 if n % 2 == 0 else 1)),
    "gcdc": _per_n(lambda n, c: math.gcd(n, c)),
    "lcmc": _per_n(lambda n, c: n // math.gcd(n, c)),
    "core": _per_n(lambda n, t: n // _tpow_root(n, t) ** t),
    "rad": _per_n(lambda n, t:
                  math.prod(p ** min(e, t - 1) for p, e in _ofactor(n))),
    "max_tpow": _per_n(lambda n, t: _tpow_root(n, t) ** t),
    "root_tpow": _per_n(lambda n, t: _tpow_root(n, t)),
    "sigma": _per_n(lambda n, k: sum(d**k for d in _odivisors(n))),
    "sigma_odd": _per_n(lambda n, k:
                        sum(d**k for d in _odivisors(n) if d % 2 == 1)),
    "tpow_divisor_sum": _per_n(lambda n, t:
                               sum(d for d in _odivisors(n)
                                   if _is_tpower(d, t))),
    "sigma_tfree": _per_n(lambda n, k, t:
                          sum(d**k for d in _odivisors(n)
                              if _is_tfree(d, t))),
    "sigma_pow": _per_n(lambda n, k, t:
                        sum(d**k for d in _divisors_of_power(n, t))),
    "sigma_prime": _per_n(lambda n:
                          sum(d for d in _odivisors(n)
                              if math.gcd(d, n // d) == 1 and _omu(d) != 0)),
    "tau": lambda args, N: _tau_list(args[0], N),
    "tfull_count": _per_n(lambda n, t:
                          sum(1 for d in _odivisors(n) if _is_tfull(d, t))),
    "gcd_pairs": _per_n(lambda n, t:
                        sum(math.gcd(d, n // d) ** t for d in _odivisors(n))),
    "lcm_pairs": _per_n(lambda n, t:
                        sum(math.lcm(d, n // d) ** t for d in _odivisors(n))),
    "phi": _per_n(_ophi),
    "phi_kl": _per_n(lambda n, k, l:
                     sum(_omu(d) * d**k * (n // d) ** l
                         for d in _odivisors(n))),
    "phi_prime": _per_n(lambda n: _ophi(n) if _omu(n) != 0 else 0),
    "jordan": _per_n(lambda n, k:
                     sum(_omu(d) * (n // d) ** k for d in _odivisors(n))),
    "jordan_ratio": None,  # defined below: needs an exactness assertion
    "dedekind": _per_n(lambda n:
                       sum(_omu(d) ** 2 * (n // d) for d in _odivisors(n))),
    "psi_k": _per_n(lambda n, k:
                    sum(_omu(d) ** 2 * (n // d) ** k for d in _odivisors(n))),
    "ramanujan": _per_n(lambda n, c:
                        sum(_omu(n // d) * d
                            for d in _odivisors(math.gcd(n, c)))),
    "sigma_star": _per_n(lambda n, k:
                         sum(d**k for d in _odivisors(n)
                             if math.gcd(d, n // d) == 1)),
    "sigma_star_odd": _per_n(lambda n, k:
                             sum(d**k for d in _odivisors(n)
                                 if math.gcd(d, n // d) == 1 and d % 2 == 1)),
    "phi_star": _per_n(lambda n:
                       sum((-1) ** _oomega(d) * (n // d)
                           for d in _odivisors(n)
                           if math.gcd(d, n // d) == 1)),
    "jordan_star": _per_n(lambda n, k:
                          sum((-1) ** _oomega(d) * (n // d) ** k
                              for d in _odivisors(n)
                              if math.gcd(d, n // d) == 1)),
    "tau_star": _per_n(lambda n, k: k ** _oomega(n)),
    "congruence_count": _per_n(_congruence_count),
    "congruence_min": _per_n(_congruence_min),
}


def _jordan_ratio_oracle(args, N):
    k = args[0]
    jk = _ORACLES["jordan"]((k,), N)
    j1 = _ORACLES["jordan"]((1,), N)
    out = []
    for a, b in zip(jk, j1):
        if a % b:
            raise AssertionError("Jordan ratio not integral")
        out.append(a // b)
    return out


_ORACLES["jordan_ratio"] = _jordan_ratio_oracle


def oracle(name: str, args: Sequence[int], N: int) -> list[int]:
    """First N values computed straight from the definition."""
    fn = _ORACLES.get(name)
    if fn is None:
        raise CatalogError("no oracle for %r" % name)
    return fn(tuple(args), N)


def oracle_at(name: str, args: Sequence[int], n: int) -> int:
    """a(n) straight from the definition, for an entry defined per n."""
    return _ORACLES[name].at(n, *args)


def totients(M: int) -> tuple[list[int], list[int]]:
    """Euler's phi(m) and Dedekind's psi(m) for m = 0..M (0 at m = 0), each
    read off the factorisation of m by trial division."""
    phi, psi = [0], [0]
    for m in range(1, M + 1):
        fac = _ofactor(m)
        phi.append(math.prod((p - 1) * p ** (e - 1) for p, e in fac))
        psi.append(math.prod((p + 1) * p ** (e - 1) for p, e in fac))
    return phi, psi


# ---------------------------------------------------------------------------
# Euler factors by series division, one series product per factor


def binomial_power(S: int, l: int, u: int, gamma: int, K: int) -> list[PrimePoly]:
    """Series of (1 - S p^l x^u)^gamma to order K, for any integer gamma."""
    out = [PrimePoly.zero] * (K + 1)
    out[0] = PrimePoly.one
    c = 1
    for j in range(1, K // u + 1):
        # generalized binomial C(gamma, j) (-S)^j; the division is exact
        c = c * -S * (gamma - j + 1) // j
        out[u * j] = PrimePoly.monomial(l * j, c)
    return out


def peel_by_division(R: list[PrimePoly], U: int) -> EulerFactorList:
    """Peel a series starting at 1 order by order up to x^U.

    Each x^u coefficient of the residual is read as a sum of monomials
    c p^l; positive c emits (1 + p^l x^u)^c, negative c emits
    (1 - p^l x^u)^(-c), and the residual is divided by what was emitted.
    """
    assert R[0].is_one()
    factors: list[EulerFactor] = []
    for u in range(1, U + 1):
        coeff = R[u]
        if coeff.is_zero():
            continue
        for l, c in sorted(coeff.items(), key=lambda t: -t[0]):
            if c > 0:
                f = EulerFactor(-1, l, u, c)
            else:
                f = EulerFactor(+1, l, u, -c)
            factors.append(f)
            R = series_mul(R, binomial_power(f.S, f.l, f.u, -f.gamma, U), U)
    ok = R[0].is_one() and all(R[i].is_zero() for i in range(1, U + 1))
    return EulerFactorList(factors, truncated_at=U, residual_ok=ok)


def expand_factor_list(efl: EulerFactorList, K: int) -> list[PrimePoly]:
    """A factor list multiplied out to order K, one binomial power at a
    time: the reference for the engine's round-trip check."""
    out = [PrimePoly.one] + [PrimePoly.zero] * K
    for f in efl.factors:
        out = series_mul(out, binomial_power(f.S, f.l, f.u, f.gamma, K), K)
    return out


def capped_zeta_form(f):
    """The zeta form by the peel of the whole Bell series under guessed
    caps, order max(16, 2d) and weight max(64, 4d) with d = deg num +
    deg den: the reference for finite_zeta_form's binomial split and
    sound caps.  Where it finds a form, that form is the one finite
    product; its INFINITE proves nothing (Phi_30 needs order 30 and
    weight 72 at d = 8).  Local factors as the engine reads them."""
    b = f.bell
    if b is None:
        return INFINITE
    d = b.num.degree() + b.den.degree()
    peeled = _peel(_log_series(b, max(16, 2 * d)), signed=False,
                   weight_cap=max(64, 4 * d))
    if peeled is None:
        return INFINITE
    factors = [ZetaFactor(e.u, e.l, -e.gamma) for e in peeled]
    num_z, den_z = _zeta_bell(factors)
    if b.num * den_z != b.den * num_z:
        return INFINITE
    local = []
    for q in f.exceptional_primes:
        lb = f.local_bell(q)
        if lb is None:
            return INFINITE
        gb = b.bind_prime(q)
        r = reduce_by_refit(lb.num * gb.den, lb.den * gb.num)
        num, den = ([c.constant_value() for c in xp.coeffs]
                    for xp in (r.num, r.den))
        if num != [1] or den != [1]:
            local.append(LocalFactor(q, num, den))
    return ZetaForm(factors, local)


# ---------------------------------------------------------------------------
# primes and the Euler product, one prime at a time

@cache
def trial_primes(n: int) -> tuple[int, ...]:
    """Primes <= n by trial division."""
    return tuple(p for p in range(2, n + 1)
                 if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _horner(xp: XPoly, p: int, x: float) -> float:
    # Horner in x from int 0, each coefficient's exact value at p added in
    acc = 0
    for c in reversed(xp.coeffs):
        acc = acc * x + c.evaluate(p)
    return acc


def euler_factor(f, p: int, s: float) -> float:
    """The Euler factor of f at p, at real s."""
    b = f.local_bell(p) if p in f.exceptions else f.bell
    if b is not None:
        x = p ** -s
        return _horner(b.num, p, x) / _horner(b.den, p, x)
    acc, e = 1.0, 1
    while e <= 400:
        t = f.value(p, e) * p ** (-e * s)
        acc += t
        if abs(t) < 1e-18 * abs(acc):
            break
        e += 1
    return acc


def euler_product(f, s: float, P: int, accel: str = "wynn") -> EvalResult:
    """numeric.eval_euler_product multiplied out one prime at a time."""
    absc = float(_abscissa_of(f))
    cps = sorted({P >> j for j in range(21) if (P >> j) >= 2})
    partials = []
    prod = 1.0
    for p in trial_primes(P):
        # the partial product at each checkpoint below p is complete
        while p > cps[len(partials)]:
            partials.append(prod)
        prod *= euler_factor(f, p, s)
    partials += [prod] * (len(cps) - len(partials))
    tail = abs(prod) * (P ** (absc - s)) / ((s - absc) * math.log(P))
    if accel == "wynn" and len(partials) >= 3:
        value, err = wynn_epsilon(partials)
        if not math.isfinite(value):
            value, err = prod, tail
        return EvalResult(value, max(err, 1e-15 * abs(value)),
                          "euler_product+wynn")
    return EvalResult(prod, tail, "euler_product")
