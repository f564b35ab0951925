"""Definition-level oracles and brute-force convolutions for the tests.

Every catalog function has an evaluator written straight from its
definition, by trial division and divisor sums, independent of the
master-equation engine and of its sieve.  The Euler-factor peel is
redone by series division and factor lists are multiplied back out one
binomial power at a time, independent of the log-derivative pass, and
zeta factors by whole-stream Dirichlet products, independent of the
prime-by-prime Euler factors.  The engine builds every Bell series and
fits none; the fit lives here.  rationalize, one fraction-free
Berlekamp-Massey pass at p = 2^k proved over Z[p], refits Bell series,
generic and at exceptional primes, from the prime-power values at a
degree cap, independent of the closed forms and of the combinators'
Bell rules, and cancels common factors by a refit, independent of the
engine's exact division by binomial pieces and its exact gcd;
hadamard_degree bounds the degrees of a termwise product, the degree a
test fits one at.  Truncated series products, inverses and comparisons are written
out here, independent of the engine's one series division, and so is
the Berlekamp-Massey fit over Q that the fraction-free kernel is
checked against.  The Euler product is multiplied out one prime at a
time over trial-division primes, the reference for the engine's blocked
kernel, and it refuses, as the engine does, where no Bell series is
known.  The numeric kernels as they were before they streamed through
C-level maps, one list per Horner stage, the whole running product of
each block and one generator step per term of a partial sum, are the
bit-for-bit references for the streamed ones.  terms_by_table is term generation one interpreted step per n,
the reference for the engine's pass over n prime to 6.  Zeta forms are
read by the peel of the whole Bell series under guessed caps, the
reference for the engine's exact binomial split, and phi and psi by
trial division are the reference for the caps of its peel.  Its log
series T = x B'/B is divided afresh on every call, the reference for
the engine's memo, which each Bell series fills once and extends.  The
primitive remainder sequence over Z that the engine's gcd ran before,
after the same test mod a prime (zgcd_by_prs, reduce_by_prs), is the
reference for its one integer gcd, and the recurrence that divided out
one binomial at a time (divide_binomial) is the reference for the
engine's one exact division, XPoly.divide.  The recursive-descent
parser, one method per grammar rule, is the reference for the engine's
one loop over the tokens, and names formatted from their operands' full
names, as each combinator once did, are the reference for the names the
engine joins from each node's own pieces.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from dgf.bell import BellRational
from dgf import catalog, numeric, sequences
from dgf.errors import (CatalogError, DegreeBoundError, DgfError,
                        ParseError, SeriesWindowError)
from dgf.euler import (INFINITE, EulerFactor, EulerFactorList, ZetaFactor,
                       ZetaForm, _peel, _zeta_bell)
from dgf.numeric import EvalResult, _abscissa_of, wynn_epsilon
from dgf.parser import MAX_PARAM, MAX_POWER, Token, tokenize
from dgf.polys import PrimePoly, XPoly, series_div
from dgf.sequences import FactorSieve


# the refit's degree caps: at the generic prime and at an exceptional one
DEFAULT_DEGREE_CAP = 16
LOCAL_DEGREE_CAP = 40
# times rationalize may double the radix bits before giving up
_RADIX_DOUBLINGS = 4


# ---------------------------------------------------------------------------
# rational reconstruction

def _scalar_pade(vals: Sequence[int], d_cap: int):
    """Minimal-degree rational fit N/D, D(0)=1, matching all of vals.

    vals are the integer series coefficients at one point p = 2^k.
    Berlekamp-Massey (Massey 1969) finds in one pass the shortest linear
    recurrence D of vals[1:] over the whole window, unique once 2d+1 <= M;
    N is D * vals below x^(d+1).  Fraction-free: each step, last*D -
    disc*x^gap*prev, is a multiple of the step over Q with its content
    divided out, and D(0) is divided out at the end.  Returns (num, den, d),
    integer lists of length d+1, or None when d > d_cap or 2d+1 > M; raises
    DegreeBoundError when the fit over Q has non-integer coefficients.
    """
    M = len(vals) - 1
    den, prev = [1], [1]
    d, n, gap, last = 0, 0, 1, 1
    while d <= d_cap and 2 * d + 1 <= M:
        n += 1
        if n > M:
            den += [0] * (d + 1 - len(den))
            num = [sum(map(operator.mul, den, vals[j::-1])) for j in range(d + 1)]
            c = den[0]
            if any(v % c for v in num + den):
                raise DegreeBoundError("rational form has non-integer coefficients")
            return [v // c for v in num], [v // c for v in den], d
        disc = sum(map(operator.mul, den, vals[n::-1]))
        if disc == 0:
            gap += 1
            continue
        step = [last * c for c in den] + [0] * (gap + len(prev) - len(den))
        for i, c in enumerate(prev):
            step[gap + i] -= disc * c
        if 2 * d < n:
            prev, d, gap, last = den, n - d, 1, disc
        else:
            gap += 1
        g = math.gcd(*step)
        den = [c // g for c in step]
    return None


def _start_bits(series: Sequence[PrimePoly]) -> int:
    """Bits of the first radix: those of the largest |coefficient|, plus 2."""
    return max((abs(v) for c in series for _, v in c.items()),
               default=0).bit_length() + 2


def rationalize(series: Sequence[PrimePoly], max_degree: int) -> "BellRational":
    """Reconstruct the minimal rational function in x matching a series.

    Needs at least 2*max_degree+2 coefficients (SeriesWindowError
    otherwise).  One integer Berlekamp-Massey fit at the single point
    p = 2^k, which packs each Z[p] coefficient into one integer (Kronecker
    substitution), is read back as balanced base-2^k digits and re-checked
    over Z[p] by BellRational.matches.  Specialising can only shorten the
    fit, so a degree above max_degree rejects, and so does a non-integer
    fit: the minimal fit of an integer window is integral (Gauss's lemma)
    whenever one over Z[p] exists.  A degenerate point or a too-small
    radix fails the re-check and k doubles, at most _RADIX_DOUBLINGS
    times.  Raises DegreeBoundError when no rational function with
    numerator and denominator degree <= max_degree fits.
    """
    series = list(series)
    if len(series) < 2 * max_degree + 2:
        raise SeriesWindowError("need at least %d coefficients for degree %d"
                                % (2 * max_degree + 2, max_degree))
    if not series[0].is_one():
        raise SeriesWindowError("series must start at 1")
    k = _start_bits(series)
    for _ in range(_RADIX_DOUBLINGS + 1):
        fit = _scalar_pade([c.pack(k) for c in series], max_degree)
        if fit is None:
            raise DegreeBoundError("no rational form of degree <= %d" % max_degree)
        num, den, _ = fit
        cand = BellRational(XPoly([PrimePoly.unpack(v, k) for v in num]),
                            XPoly([PrimePoly.unpack(v, k) for v in den]))
        if cand.matches(series):
            return cand
        k *= 2
    raise DegreeBoundError("rational reconstruction did not stabilise")


def hadamard_degree(bells: Sequence[BellRational]) -> int:
    """A bound D on the numerator and denominator degrees of the termwise
    (Hadamard) product of the series bells.

    From e0 = max(0, n_i - d_i + 1) on, the coefficients of num_i/den_i
    (degrees n_i, d_i) satisfy a linear recurrence of order d_i, so their
    product satisfies one of order R = prod d_i (Stanley, EC1 4.2): it is
    rational with denominator degree <= R and numerator degree
    <= R + e0 - 1.
    """
    R = math.prod(b.den.degree() for b in bells)
    e0 = max(0, *(b.num.degree() - b.den.degree() + 1 for b in bells))
    return R + max(0, e0 - 1)


# ---------------------------------------------------------------------------
# truncated series

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


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [v // g for v in a]


def _prs(a: list[int], b: list[int], norm: Callable) -> list[int]:
    """The last nonzero remainder of the pseudo-remainder sequence of
    the integer polynomials a and b (coefficients from x^0, top nonzero):
    each step a -> lc(b) a - lc(a) x^s b is passed through norm."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        while len(a) >= len(b):
            s, c, l = len(a) - len(b), a[-1], b[-1]
            a = norm(_trim([l * x for x in a[:s]]
                           + [l * x - c * y for x, y in zip(a[s:], b)]))
        a, b = b, a
    return a


def zgcd_by_prs(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd over Z[x], up to sign, of the integer polynomials
    a and b: [1] at once where they are coprime mod the prime M and M does
    not divide a's top coefficient (a common factor would keep its degree
    mod M and divide both there), else the primitive remainder sequence,
    each remainder's content divided out.  Any such M is sound; this safe
    prime 2^61 - 2373 is 3 mod 8, so p = 2^k, 0 < k < (M - 1)/2, has order
    (M - 1)/2 or M - 1 (mod 2^61 - 1, p^61 = 1 made coprime binomials
    look alike)."""
    M = 2305843009213691579

    def mod(c: list[int]) -> list[int]:
        return _trim([v % M for v in c])
    if a[-1] % M and len(_prs(mod(a), mod(b), mod)) == 1:
        return [1]
    return _prs(_primitive(a), _primitive(b), _primitive)


def reduce_by_prs(num: XPoly, den: XPoly) -> BellRational:
    """num/den with its gcd over Z[p] divided out, both with constant term
    1; as it is where num or den has x-degree 0.

    The gcd over Z[x] at p = 2^k (at a concrete prime the integers
    themselves) is read back as balanced base-2^k digits and proved by
    dividing both.  With k two bits above the widest coefficient, packing
    keeps every degree, so the true gcd divides the packed one there, and
    a common divisor of that degree is the gcd itself.  Where the digits
    are too narrow the division fails and k doubles, at most four times;
    past that, DegreeBoundError."""
    if num.degree() < 1 or den.degree() < 1:
        return BellRational(num, den)
    cs = num.coeffs + den.coeffs
    k = 0 if all(c.is_constant() for c in cs) else max(
        abs(v) for c in cs for _, v in c.items()).bit_length() + 2
    for _ in range(5):
        g = zgcd_by_prs([c.pack(k) for c in num.coeffs],
                        [c.pack(k) for c in den.coeffs])
        if len(g) == 1:
            return BellRational(num, den)
        G = XPoly(PrimePoly.unpack(v * g[0], k) if k else
                  PrimePoly.const(v * g[0]) for v in g)
        nq, dq = num.divide(G), den.divide(G)
        if nq is not None and dq is not None:
            return BellRational(nq, dq)
        k *= 2
    raise DegreeBoundError("no exact gcd over Z[p]")


def divide_binomial(xp: XPoly, S: int, l: int, u: int) -> XPoly | None:
    """Exact division by (1 - S p^l x^u); None if it does not divide:
    q_i = a_i + S p^l q_(i-u), and the top u of them must vanish."""
    q = list(xp.coeffs)
    if len(q) <= u:
        return None
    for i in range(u, len(q)):
        t = q[i - u].shift_p(l)
        q[i] = q[i] + t if S > 0 else q[i] - t
    if any(not c.is_zero() for c in q[-u:]):
        return None
    return XPoly(q[:-u])


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


def terms_by_table(f, N: int, sieve: FactorSieve) -> list[int]:
    """a(1), ..., a(N) one step per n off the sieve's table: f.value at
    the proper powers p^e <= N with p <= sqrt(N), then at each prime as
    the pass reaches it, and a(n) = a(q) a(n/q) at every other n, q its
    table entry."""
    sieve.ensure(max(N, 1))
    out = [1] * (N + 1)
    for p in sieve.primes(math.isqrt(N)):
        q, e = p * p, 2
        while q <= N:
            out[q] = f.coeff(p, e)
            q, e = q * p, e + 1
    for n in range(2, N + 1):
        q = sieve._spp[n]
        if not q:
            out[n] = f.coeff(n, 1)
        elif q != n:
            out[n] = out[q] * out[n // q]
    return out[1:]


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


def log_series_by_division(b, K: int) -> list[dict[int, int]]:
    """T = x B'/B to order K, x N'/N - x D'/D divided afresh on every
    call: the reference for the engine's log series, which each
    BellRational computes once and extends on demand."""
    def log(P: Sequence[PrimePoly]) -> list[PrimePoly]:
        return series_div([c.scale(n) for n, c in enumerate(P)], P, K)

    if isinstance(b, BellRational):
        T = [t - s for t, s in zip(log(b.num.coeffs), log(b.den.coeffs))]
    else:
        T = log(b.coeffs if isinstance(b, XPoly) else b[: K + 1])
    return [dict(t.items()) for t in T]


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
    peeled = _peel(log_series_by_division(b, max(16, 2 * d)), signed=False,
                   weight_cap=max(64, 4 * d))
    if peeled is None:
        return INFINITE
    factors = [ZetaFactor(e.u, e.l, -e.gamma) for e in peeled]
    num_z, den_z = _zeta_bell(factors)
    if b.num * den_z != b.den * num_z:
        return INFINITE
    local = {}
    for q in f.exceptional_primes:
        lb = f.local_bell(q)
        if lb is None:
            return INFINITE
        gb = b.bind_prime(q)
        r = reduce_by_refit(lb.num * gb.den, lb.den * gb.num)
        if not (r.num.is_one() and r.den.is_one()):
            local[q] = r
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
    """The Euler factor of f at p, at real s; a DgfError where no Bell
    series is known at p."""
    b = f.local_bell(p) if p in f.exceptions else f.bell
    if b is None:
        raise DgfError("no Bell series known at %d" % p)
    x = p ** -s
    return _horner(b.num, p, x) / _horner(b.den, p, x)


def euler_product(f, s: float, P: int, accel: str = "wynn") -> EvalResult:
    """numeric._blocked_product, eval_euler_product where the split
    leaves a rest, multiplied out one prime at a time."""
    absc = float(_abscissa_of(f))
    cps = sorted({P >> j for j in range(21) if (P >> j) >= 2})
    partials = []
    prod = 1.0
    for p in trial_primes(P):
        # the partial product at each checkpoint below p is complete
        while p > cps[len(partials)]:
            partials.append(prod)
        prod *= euler_factor(f, p, s)
    return _euler_result(cps, partials, prod, absc, s, P, accel)


def _euler_result(cps: list[int], partials: list[float], prod: float,
                  absc: float, s: float, P: int, accel: str) -> EvalResult:
    # the checkpoints past the last prime, the prime-tail estimate and the
    # extrapolation, as numeric._blocked_product ends
    partials += [prod] * (len(cps) - len(partials))
    tail = abs(prod) * (P ** (absc - s)) / ((s - absc) * math.log(P))
    if accel == "wynn" and len(partials) >= 3:
        value, err = wynn_epsilon(partials)
        if not math.isfinite(value):
            value, err = prod, tail
        return EvalResult(value, max(err, 1e-15 * abs(value)),
                          "euler_product+wynn")
    return EvalResult(prod, tail, "euler_product")


# ---------------------------------------------------------------------------
# the numeric kernels one list per stage, the bit-for-bit references for
# the engine's streamed ones

def evaluate_block_by_lists(xp: XPoly, ps: Sequence[int], xs: Sequence) -> list:
    """XPoly.evaluate_block by Horner in x from int 0, one list per
    stage, each coefficient's exact integer values at ps, point by point,
    added in."""
    acc = [0] * len(ps)
    for c in reversed(xp.coeffs):
        acc = list(map(operator.add, map(operator.mul, acc, xs),
                       map(c.evaluate, ps)))
    return acc


def _block_values_by_lists(f, blk: list[int], s: float) -> list[float]:
    # the generic Bell series over the block's other primes at once, the
    # local one at each exceptional prime
    def values(b, ps):
        xs = [p ** -s for p in ps]
        return list(map(operator.truediv,
                        evaluate_block_by_lists(b.num, ps, xs),
                        evaluate_block_by_lists(b.den, ps, xs)))
    exc = f.exceptions
    rest = iter(values(f.bell, [p for p in blk if p not in exc]))
    return [values(f.local_bell(p), [p])[0] if p in exc else next(rest)
            for p in blk]


def euler_product_by_accumulate(f, s: float, P: int,
                                accel: str = "wynn") -> EvalResult:
    """numeric._blocked_product with the running product of each block
    of primes kept whole (itertools.accumulate), the checkpoints read
    off it."""
    local = numeric._local_bells(f)
    absc = _abscissa_of(f)
    cps = sorted({P >> j for j in range(21) if (P >> j) >= 2})
    partials = []
    prod = 1.0
    primes = sequences._SIEVE.primes(P)
    with numeric._guard(s, absc, local):
        while blk := list(itertools.islice(primes, numeric._BLOCK)):
            runs = list(itertools.accumulate(
                _block_values_by_lists(f, blk, s), operator.mul,
                initial=prod))
            while cps[len(partials)] < blk[-1]:
                partials.append(runs[bisect.bisect_right(
                    blk, cps[len(partials)])])
            prod = runs[-1]
    return _euler_result(cps, partials, prod, float(absc), s, P, accel)


def partial_sum_by_generators(f, s: float, N: int) -> EvalResult:
    """numeric.eval_partial_sum with one generator step per term."""
    local = numeric._local_bells(f)
    absc = _abscissa_of(f)
    s0 = float(absc)
    with numeric._guard(s, absc, local):
        vals = sequences.terms(f, N)
        value = math.fsum(v * n ** -s for n, v in enumerate(vals, start=1))
        C = max(abs(v) / n ** (s0 - 1.0) for n, v in enumerate(vals, start=1))
    tail = C * N ** (s0 - s) / (s - s0)
    return EvalResult(value, tail, "partial_sum")


# ---------------------------------------------------------------------------
# the recursive-descent parser

class _Parser:
    """Recursive descent over the tokens; each rule appends its operands'
    nodes, then its own, to ops."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.ops: list[tuple] = []

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("expected %s" % what, tok.pos)
        return self.take()

    def parse_expr(self):
        self.parse_term()
        while self.peek().kind in ("CONV", "UCONV"):
            op = self.take()
            self.parse_term()
            self.ops.append(("conv",) if op.kind == "CONV" else ("uconv",))

    def parse_term(self):
        self.parse_factor()
        while self.peek().kind == "STAR":
            self.take()
            self.parse_factor()
            self.ops.append(("mul",))

    def parse_factor(self):
        self.parse_atom()
        if self.peek().kind == "CARET":
            self.take()
            tok = self.peek()
            j = -1 if tok.text.startswith("-") else \
                self.parse_int("an exponent", "exponent", MAX_POWER)
            if j < 1:
                raise ParseError("exponent must be a positive integer",
                                 tok.pos)
            self.ops.append(("pow", j))

    def parse_int(self, what: str = "an integer", name: str = "parameter",
                  bound: int = MAX_PARAM) -> int:
        """The next token, an integer of absolute value at most bound, or
        a ParseError at its column; its digits are counted first, as
        int() refuses over 4300 of them."""
        tok = self.expect("INT", what)
        digits = tok.text.lstrip("-").lstrip("0")
        if len(digits) > len(str(bound)) or int(digits or "0") > bound:
            raise ParseError("%s must be at least %d" % (name, -bound)
                             if tok.text.startswith("-") else
                             "%s must be at most %d" % (name, bound), tok.pos)
        return int(tok.text)

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "LPAREN":
            self.parse_expr()
            self.expect("RPAREN", "')'")
            return
        if tok.kind != "NAME":
            raise ParseError("expected a function name or '('", tok.pos)
        if tok.text in ("inv", "shift"):
            self.expect("LPAREN", "'(' after " + tok.text)
            self.parse_expr()
            if tok.text == "inv":
                node = ("inv",)
            else:
                self.expect("COMMA", "',' and a shift amount")
                node = ("shift", self.parse_int(name="shift amount",
                                                bound=MAX_POWER))
            self.expect("RPAREN", "')'")
        else:
            args = []
            if self.peek().kind == "LPAREN":
                self.take()
                args.append(self.parse_int())
                while self.peek().kind == "COMMA":
                    self.take()
                    args.append(self.parse_int())
                self.expect("RPAREN", "')'")
            node = ("atom", tok.text, tuple(args))
        self.ops.append(node)



def parse_by_descent(text: str) -> list[tuple]:
    """parser.parse by one recursive call per grammar rule and level."""
    p = _Parser(tokenize(text))
    p.parse_expr()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError("unexpected trailing input", tok.pos)
    return p.ops


# combinator node -> its name from its operands' names and its own fields
_FORMATS = {"conv": "(%s <*> %s)", "uconv": "(%s <+> %s)",
            "mul": "(%s * %s)", "inv": "inv(%s)", "shift": "shift(%s, %d)"}


def name_by_formatting(ops: list[tuple]) -> str:
    """The name of build(ops), each node's formatted in full from its
    operands' names; a power's base in parens where it is a power."""
    stack: list[tuple[str, str]] = []  # (name, node kind)
    for kind, *fields in ops:
        if kind == "atom":
            name = catalog.make(fields[0], *fields[1]).name
        elif kind == "pow":
            base, base_kind = stack.pop()
            name = ("(%s)" if base_kind == "pow" else "%s") % base \
                + "^%d" % fields[0]
        else:
            n = 1 if kind in ("inv", "shift") else 2
            names = [t for t, _ in stack[-n:]]
            del stack[-n:]
            name = _FORMATS[kind] % (*names, *fields)
        stack.append((name, kind))
    (name, _), = stack
    return name
