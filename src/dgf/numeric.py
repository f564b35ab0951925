"""Floating-point evaluation of Dirichlet series over their half-plane
of convergence: zeta products, truncated Euler products with optional
sequence acceleration, and direct partial sums with tail estimates.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import mul
from typing import Sequence

from . import sequences
from .bell import BellRational, MultiplicativeFunction
from .errors import DgfError, DivergenceError, SieveLimitError
from .euler import ZetaForm, abscissa, factor_bell
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


def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1, by Euler-Maclaurin summation."""
    if s <= 1.0:
        raise DivergenceError("zeta has no value at s = %g (needs s > 1)" % s)
    N = _EM_CUTOFF
    acc = math.fsum(n ** -s for n in range(1, N))
    acc += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
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


def _local_value(f: MultiplicativeFunction, p: int, s: float) -> float:
    """Value of the Euler factor at one prime: sum over a(p^e) p^(-es)."""
    b = f.local_bell(p) if p in f.exceptions else f.bell
    if b is not None:
        return b.evaluate(p, p ** -s)
    acc, e = 1.0, 1
    while e <= 400:
        t = f.value(p, e) * p ** (-e * s)
        acc += t
        if abs(t) < 1e-18 * abs(acc):
            break
        e += 1
    return acc


# primes per pass of the Euler-product kernel: smaller blocks pay more
# per-block overhead, and on the numeric grid 4096 ran no faster but
# raised peak RSS by about 0.6 MB
_BLOCK = 1024


def _block_values(f: MultiplicativeFunction, b: BellRational | None,
                  blk: list[int], s: float) -> list[float]:
    """Euler factor values at the primes of blk: the generic Bell series
    b over the whole block at once, _local_value at exceptional primes or
    everywhere when b is None."""
    exc = f.exceptions
    if b is None:
        return [_local_value(f, p, s) for p in blk]
    gen = ([p for p in blk if p not in exc]
           if exc and blk[0] <= max(exc) else blk)
    vals = b.evaluate_block(gen, list(map(pow, gen, repeat(-s))))
    if gen is blk:
        return vals
    rest = iter(vals)
    return [_local_value(f, p, s) if p in exc else next(rest) for p in blk]


def _abscissa_of(f: MultiplicativeFunction) -> Fraction:
    return abscissa(factor_bell(f, 6)).abscissa


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


def _refuse_real_poles(local, s: float) -> None:
    """Raise DivergenceError where, for a pair (p, Bell series) of local,
    the series' den has a real root with |x| <= p^-s, so the Euler factor
    at p diverges: den(0) = 1, so den(x) <= 0 or den(-x) <= 0 at x = p^-s
    puts one there, and past that sign test a den of degree >= 2 counts
    its roots inside by a Sturm sequence (a double root keeps the sign).
    Complex roots go unseen.  A series of None is skipped.
    """
    for p, b in local:
        if b is None:
            continue
        x = p ** -s
        cs = [c.evaluate(p) for c in b.den.coeffs]
        if (min(b.den.evaluate(p, x), b.den.evaluate(p, -x)) <= 0
                or len(cs) > 2 and _real_roots_within(cs, Fraction(x))):
            raise DivergenceError("s = %g: the Euler factor at p = %d has a "
                                  "real pole with |x| <= %d^-s" % (s, p, p))


def _too_wide(s: float) -> DgfError:
    return DgfError("s = %g: exact values too large for floating point" % s)


def eval_zeta_form(zf: ZetaForm, s: float) -> EvalResult:
    """Evaluate a finite zeta form at real s inside its half-plane; a
    local factor with a real pole in reach raises DivergenceError, exact
    values too wide for a float a DgfError."""
    absc = abscissa(zf).abscissa
    if s <= float(absc) + 1e-6:
        raise DivergenceError("s = %g is not beyond the abscissa %s"
                              % (s, absc))
    local = [(lf.prime, lf.bell()) for lf in zf.local]
    try:
        _refuse_real_poles(local, s)
        value = 1.0
        for z in zf.zeta_factors:
            value *= riemann_zeta(z.u * s - z.l) ** z.gamma
        for p, b in local:
            value *= b.evaluate(p, p ** -s)
    except OverflowError:
        raise _too_wide(s) from None
    return EvalResult(value, 1e-13 * abs(value), "zeta_form")


def eval_euler_product(f: MultiplicativeFunction, s: float, P: int = 10**6,
                       accel: str = "wynn") -> EvalResult:
    """Product of Euler factors over primes up to P.

    Partial products are recorded at doubling positions P/2^j and, with
    accel="wynn", extrapolated; otherwise the raw product is returned
    with a prime-tail error estimate.  The primes come from the shared
    sieve; P outside [2, sequences.MAX_SIEVE] raises SieveLimitError
    before any work.  They are taken _BLOCK at a time, the Bell series
    evaluated over the whole block, and multiplied in left to right as a
    prime-by-prime loop would, so every partial product is the same to
    the bit.  A real pole of the Euler factor at 2 or at an exceptional
    prime in reach raises DivergenceError, exact values too wide for a
    float a DgfError.
    """
    if not 2 <= P <= sequences.MAX_SIEVE:
        raise SieveLimitError("prime bound %d is not in [2, sieve limit]" % P)
    if accel not in ("wynn", "none"):
        raise ValueError("accel must be 'wynn' or 'none'")
    absc = _abscissa_of(f)
    if s <= float(absc) + 1e-6:
        raise DivergenceError("s = %g is not beyond the abscissa %s"
                              % (s, absc))
    cps = sorted({P >> j for j in range(21) if (P >> j) >= 2})
    partials = []
    prod = 1.0
    b = f.bell
    primes = sequences._SIEVE.primes(P)
    try:
        _refuse_real_poles([(q, f.local_bell(q))
                            for q in sorted({2, *f.exceptions})], s)
        while blk := list(islice(primes, _BLOCK)):
            # the running product, left to right: runs[k] covers blk[:k]
            runs = list(accumulate(_block_values(f, b, blk, s), mul,
                                   initial=prod))
            # each checkpoint below the block's last prime is complete in it
            while cps[len(partials)] < blk[-1]:
                partials.append(runs[bisect_right(blk, cps[len(partials)])])
            prod = runs[-1]
    except OverflowError:
        raise _too_wide(s) from None
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
    return EvalResult(prod, tail, "euler_product")


def eval_partial_sum(f: MultiplicativeFunction, s: float,
                     N: int = 10**5) -> EvalResult:
    """Direct sum of a(n) n^(-s) for n <= N with a crude tail bound.

    The tail uses |a(n)| <= C n^(sigma0 - 1) with C fitted on the
    computed window, so the bound is heuristic, not rigorous.  N outside
    [1, sequences.MAX_SIEVE] raises SieveLimitError before any work, a
    real pole of the Euler factor at 2 or at an exceptional prime in reach
    DivergenceError, and exact values too wide for a float a DgfError.
    """
    if not 1 <= N <= sequences.MAX_SIEVE:
        raise SieveLimitError("term bound %d is not in [1, sieve limit]" % N)
    absc = _abscissa_of(f)
    s0 = float(absc)
    if s <= s0 + 1e-6:
        raise DivergenceError("s = %g is not beyond the abscissa %s"
                              % (s, absc))
    try:
        _refuse_real_poles([(q, f.local_bell(q))
                            for q in sorted({2, *f.exceptions})], s)
        vals = sequences.terms(f, N)
        value = math.fsum(v * n ** -s for n, v in enumerate(vals, start=1))
        C = max(abs(v) / n ** (s0 - 1.0) for n, v in enumerate(vals, start=1))
    except OverflowError:
        raise _too_wide(s) from None
    tail = C * N ** (s0 - s) / (s - s0)
    return EvalResult(value, tail, "partial_sum")
