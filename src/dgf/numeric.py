"""Floating-point evaluation of Dirichlet series over their half-plane
of convergence: zeta products, Euler products (zeta products where the
Bell series splits into binomials, else truncated with optional sequence
acceleration), and direct partial sums with tail estimates.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import islice, repeat
from operator import mul, truediv
from typing import Sequence

from . import sequences
from .bell import MultiplicativeFunction
from .errors import DgfError, DivergenceError, SieveLimitError
from .euler import ZetaForm, abscissa, factor_bell, finite_zeta_form
from .records import Record

_BERNOULLI: list[Fraction] = []


def _bernoulli(n: int) -> Fraction:
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m == 0:
            _BERNOULLI.append(Fraction(1))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


_EM_CUTOFF = 40
_EM_TERMS = 15


def riemann_zeta(x: float | Fraction) -> float:
    """zeta(x) for real x > 1, by Euler-Maclaurin summation.  The pole
    term N^(1-x)/(x-1) takes x - 1 rounded once from x as given, so an
    exact x keeps its relative error near the pole, where rounding x
    itself would cost about 1e-16/(x - 1)."""
    if x <= 1:
        raise DivergenceError("zeta has no value at s = %r (needs s > 1)"
                              % float(x))
    s, d = float(x), float(x - 1)
    N = _EM_CUTOFF
    acc = math.fsum(n ** -s for n in range(1, N))
    acc += N ** -d / d + 0.5 * N ** -s
    rising = s
    power = N ** (-s - 1.0)
    prev = math.inf
    for j in range(1, _EM_TERMS + 1):
        term = float(_bernoulli(2 * j)) / math.factorial(2 * j) * rising * power
        if abs(term) >= abs(prev):
            break
        acc += term
        if abs(term) < 1e-16 * abs(acc):
            break
        prev = term
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= N * N
    return acc


def wynn_epsilon(seq: Sequence[float]) -> tuple[float, float]:
    """Accelerated limit of a sequence plus a crude error estimate.

    Even epsilon-table columns are the estimates; the error is the gap
    between the last two of them.  Breakdown (tiny difference) stops
    the table early and falls back to the best estimate so far.
    """
    cur = [float(v) for v in seq]
    if len(cur) < 2:
        return cur[0], math.inf
    prev = [0.0] * (len(cur) + 1)
    best = cur[-1]
    best_prev = None
    for k in range(1, min(len(seq), 40)):
        nxt = []
        broke = False
        for n in range(len(cur) - 1):
            d = cur[n + 1] - cur[n]
            if abs(d) < 1e-30:
                broke = True
                break
            nxt.append(prev[n + 1] + 1.0 / d)
        if broke or not nxt:
            break
        prev, cur = cur, nxt
        if k % 2 == 0:
            best_prev, best = best, cur[-1]
    if best_prev is None:
        return best, abs(seq[-1] - seq[-2])
    return best, abs(best - best_prev)


class EvalResult(Record):
    __slots__ = ("value", "error", "method")

    def __init__(self, value: float, error: float, method: str):
        self.value = value
        self.error = error
        self.method = method

    def __str__(self) -> str:
        return "%.12g (error <= %.3g, %s)" % (self.value, self.error,
                                              self.method)


# primes per pass of the Euler-product kernel: smaller blocks pay more
# per-block overhead (256 ran 4% slower over the numeric grid's Euler
# products), and 4096 ran no faster but held 0.79 MB at its peak against
# 0.21 MB (tracemalloc, P = 10^5)
_BLOCK = 1024


def _block_values(f: MultiplicativeFunction, local: dict, blk: list[int],
                  s: float) -> list[float]:
    """Euler factor values at the primes of blk: the generic Bell series
    over the whole block at once, local's at exceptional primes."""
    exc = f.exceptions
    gen = ([p for p in blk if p not in exc]
           if exc and blk[0] <= max(exc) else blk)
    vals = f.bell.evaluate_block(gen, list(map(pow, gen, repeat(-s))))
    if gen is blk:
        return vals
    rest = iter(vals)
    return [float(_wide(local[p].evaluate, p, p ** -s)) if p in exc
            else next(rest) for p in blk]


def _wide(evaluate, p: int, x: float):
    """evaluate(p, x), a local factor's value at a float x; where the
    float Horner overflows, the exact value at the Fraction of x."""
    try:
        return evaluate(p, x)
    except OverflowError:
        return evaluate(p, Fraction(x))


def _local_bells(f: MultiplicativeFunction) -> dict:
    """{q: Bell series at q} at 2 and at each exceptional prime.  Where
    the generic series or one of these is not known, a DgfError: a
    truncated sum of a(q^e) q^(-es) bounds nothing, as the series may
    diverge far to the right of what its first terms show."""
    local = {q: f.local_bell(q) for q in sorted({2, *f.exceptions})}
    if f.bell is None or None in local.values():
        raise DgfError("no Bell series known, so no Euler factor can be "
                       "evaluated")
    return local


def _abscissa_of(f: MultiplicativeFunction) -> Fraction:
    return abscissa(factor_bell(f, 6))


def _real_roots_within(cs: Sequence[int], x: Fraction) -> int:
    """The number of distinct real roots in (-x, x) of the polynomial with
    coefficients cs (ascending), neither -x nor x a root: V(-x) - V(x), V
    the sign changes along its Sturm sequence (exact, in Fractions)."""
    def rem(n, d):  # coefficient lists, highest first, d[0] != 0
        while len(n) >= len(d):
            q = n[0] / d[0]
            n = [a - q * b for a, b in zip(n[1:], d[1:] + [0] * len(n))]
        while n and not n[0]:
            n = n[1:]
        return n

    top = [Fraction(c) for c in reversed(cs)]
    seq = [top, [c * (len(top) - 1 - i) for i, c in enumerate(top[:-1])]]
    while r := rem(seq[-2], seq[-1]):
        seq.append([-c for c in r])

    def changes(t):
        vs = [v for v in (reduce(lambda a, c: a * t + c, P) for P in seq) if v]
        return sum((a < 0) != (b < 0) for a, b in zip(vs, vs[1:]))
    return changes(-x) - changes(x)


# how far past the abscissa every method asks s to be
_MARGIN = 1e-6


@contextmanager
def _guard(s: float, absc: Fraction, local: dict):
    """The refusals of every evaluation at s, each naming s by repr: on
    entry, s within _MARGIN of the abscissa absc; inside, a real pole
    of a factor {p: Bell series} of local with |x| <= p^-s, and any
    OverflowError, as exact values too wide for a float.  den(0) = 1, so
    den(x) <= 0 or den(-x) <= 0 at x = p^-s puts a pole there; past that
    a den of degree >= 2 counts its roots inside by a Sturm sequence (a
    double root keeps the sign).  Complex roots go unseen."""
    if s <= float(absc) + _MARGIN:
        raise DivergenceError("s = %r is not beyond the abscissa %s by more "
                              "than %g" % (s, absc, _MARGIN))
    try:
        for p, b in local.items():
            x = p ** -s
            cs = [c.evaluate(p) for c in b.den.coeffs]
            if (min(_wide(b.den.evaluate, p, x),
                    _wide(b.den.evaluate, p, -x)) <= 0
                    or len(cs) > 2 and _real_roots_within(cs, Fraction(x))):
                raise DivergenceError("s = %r: the Euler factor at p = %d has "
                                      "a real pole with |x| <= %d^-s"
                                      % (s, p, p))
        yield
    except OverflowError:
        raise DgfError("s = %r: exact values too large for floating point"
                       % s) from None


def eval_zeta_form(zf: ZetaForm, s: float) -> EvalResult:
    """Evaluate a finite zeta form at real s inside its half-plane; a
    local factor with a real pole in reach raises DivergenceError, exact
    values too wide for a float a DgfError."""
    with _guard(s, abscissa(zf.zeta_factors), zf.local):
        return _zeta_product(zf, s, "zeta_form")


def _zeta_product(zf: ZetaForm, s: float, method: str) -> EvalResult:
    """The value at s of a finite zeta form, each zeta(us - l) at the exact
    u Fraction(s) - l, each local factor at x = q^-s, with the claimed
    error 1e-13 |value|; run inside the caller's _guard."""
    value = 1.0
    for z in zf.zeta_factors:
        value *= riemann_zeta(z.u * Fraction(s) - z.l) ** z.gamma
    for p, b in zf.local.items():
        value *= float(_wide(b.evaluate, p, p ** -s))
    return EvalResult(value, 1e-13 * abs(value), method)


def eval_euler_product(f: MultiplicativeFunction, s: float, P: int = 10**6,
                       accel: str = "wynn") -> EvalResult:
    """Product of the Euler factors over the primes.

    P outside [2, sequences.MAX_SIEVE] raises SieveLimitError, accel
    other than "wynn" or "none" ValueError, and a function with no known
    Bell series a DgfError, all before any work; a real pole of the Euler
    factor at 2 or at an exceptional prime in reach raises
    DivergenceError, exact values too wide for a float a DgfError.  Where
    BellRational.split leaves no rest, the product runs over all primes:
    finite_zeta_form(f) evaluated as eval_zeta_form does, with no prime
    read and P and accel unused, method "euler_product+zeta".  Otherwise
    _blocked_product truncates it at P.
    """
    if not 2 <= P <= sequences.MAX_SIEVE:
        raise SieveLimitError("prime bound %d is not in [2, sieve limit]" % P)
    if accel not in ("wynn", "none"):
        raise ValueError("accel must be 'wynn' or 'none'")
    local = _local_bells(f)
    absc = _abscissa_of(f)
    with _guard(s, absc, local):
        if f.bell.split[1] is None:
            return _zeta_product(finite_zeta_form(f), s, "euler_product+zeta")
        return _blocked_product(f, local, absc, s, P, accel)


def _blocked_product(f: MultiplicativeFunction, local: dict, absc: Fraction,
                     s: float, P: int, accel: str) -> EvalResult:
    """The Euler factors' product over the primes up to P, inside
    eval_euler_product's guard.

    Partial products are recorded at doubling positions P/2^j and, with
    accel="wynn", extrapolated; otherwise the raw product is returned
    with a prime-tail error estimate; either error is at least 1e-15
    |value|, the value's own rounding.  The primes come from the shared
    sieve, _BLOCK at a time, the Bell series evaluated over the whole
    block, and multiplied in by one math.prod per checkpoint segment and
    one for the block's tail: from a float start it multiplies doubles
    left to right as a prime-by-prime loop would, so every partial
    product is the same to the bit.
    """
    cps = sorted({P >> j for j in range(21) if (P >> j) >= 2})
    partials = []
    prod = 1.0
    primes = sequences._SIEVE.primes(P)
    while blk := list(islice(primes, _BLOCK)):
        vals = _block_values(f, local, blk, s)
        # each checkpoint below the block's last prime is complete in it:
        # the product up to there, then on from it
        i = 0
        while cps[len(partials)] < blk[-1]:
            j = bisect_right(blk, cps[len(partials)])
            prod = math.prod(vals[i:j], start=prod)
            partials.append(prod)
            i = j
        prod = math.prod(vals[i:], start=prod)
    partials += [prod] * (len(cps) - len(partials))
    # prime-tail of the log-product, scaled back to an absolute estimate
    tail = abs(prod) * (P ** (float(absc) - s)) \
        / ((s - float(absc)) * math.log(P))
    if accel == "wynn" and len(partials) >= 3:
        value, err = wynn_epsilon(partials)
        if not math.isfinite(value):
            value, err = prod, tail
        return EvalResult(value, max(err, 1e-15 * abs(value)),
                          "euler_product+wynn")
    return EvalResult(prod, max(tail, 1e-15 * abs(prod)), "euler_product")


def _tail_constant(vals: Sequence[int], j: float) -> float:
    """max |a(n)| / n^j over n = 1..len(vals), a(n) = vals[n - 1]: the
    double that dividing each |a(n)| by pow(n, j) gives.  For j = 0 or 1
    that pow is n^j exactly, so C comes from exact integers:
    float(max |a(n)|) for j = 0, as float() keeps the order, and for
    j = 1, where every |a(n)| < 2^53, the int quotients |a(n)| / n, each
    one rounding of the same two exact doubles.  Otherwise the pass with
    pow (for j = 2 the int quotients by n * n ran no faster)."""
    ns = range(1, len(vals) + 1)
    if j in (0.0, 1.0):
        m = max(map(abs, vals))
        if j == 0.0:
            return float(m)
        if m < 1 << 53:
            return max(map(truediv, map(abs, vals), ns))
    return max(map(truediv, map(abs, vals), map(pow, ns, repeat(j))))


def eval_partial_sum(f: MultiplicativeFunction, s: float,
                     N: int = 10**5) -> EvalResult:
    """Direct sum of a(n) n^(-s) for n <= N with a crude tail bound.

    The tail uses |a(n)| <= C n^(sigma0 - 1) with C fitted on the
    computed window, so the bound is heuristic, not rigorous; C is the
    largest |a(n)| / n^(sigma0 - 1), by _tail_constant; the error is
    at least 1e-15 |value|, the value's own rounding.  N outside
    [1, sequences.MAX_SIEVE] raises SieveLimitError and a function with
    no known Bell series a DgfError, both before any work, a real pole of
    the Euler factor at 2 or at an exceptional prime in reach
    DivergenceError, and exact values too wide for a float a DgfError.
    """
    if not 1 <= N <= sequences.MAX_SIEVE:
        raise SieveLimitError("term bound %d is not in [1, sieve limit]" % N)
    local = _local_bells(f)
    absc = _abscissa_of(f)
    s0 = float(absc)
    with _guard(s, absc, local):
        vals = sequences.terms(f, N)
        ns = range(1, N + 1)
        value = math.fsum(map(mul, vals, map(pow, ns, repeat(-s))))
        C = _tail_constant(vals, s0 - 1.0)
    tail = C * N ** (s0 - s) / (s - s0)
    return EvalResult(value, max(tail, 1e-15 * abs(value)), "partial_sum")
