"""Multiplicative functions as nodes, and their Bell series.

An atom is pinned down by a master equation giving a(p^e) as an integer
polynomial in p, optionally overridden at finitely many exceptional
primes.  A combinator is a node over its operands: one coefficient rule
over their coefficients and at most one Bell rule over their Bell series
at the same prime, so both serve every prime alike; each node memoizes
its own coefficients.  The Bell series sum_e a(p^e) x^e (x = p^-s) is
kept as an exact rational function over Z[p] whenever one exists; it is
found by one fraction-free Berlekamp-Massey pass at p = 2^k, read back
from balanced base-2^k digits and proved over Z[p] by one product check
at p = 2^K.  A catalog atom takes its series from its closed form, and
at an exceptional prime from the fit at the degree bound of its values;
a pointwise product or power refits at the degree bound of the termwise
product of its operands' series, a proof when those are exact.  Only
where none applies are the function's coefficients refitted at the
degree cap.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Sequence

from .errors import DegreeBoundError, MasterEquationError, SeriesWindowError
from .polys import PrimePoly, XPoly, series_div

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


def _balanced_digits(v: int, k: int) -> PrimePoly:
    """The PrimePoly with value v at p = 2^k, k >= 2, and digits (its
    coefficients) in [-2^(k-1), 2^(k-1))."""
    digits, e, half = {}, 0, 1 << (k - 1)
    while v:
        r = ((v + half) & ((1 << k) - 1)) - half
        digits[e] = r
        v, e = (v - r) >> k, e + 1
    return PrimePoly(digits)


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
        cand = BellRational(XPoly([_balanced_digits(v, k) for v in num]),
                            XPoly([_balanced_digits(v, k) for v in den]))
        if cand.matches(series):
            return cand
        k *= 2
    raise DegreeBoundError("rational reconstruction did not stabilise")


# ---------------------------------------------------------------------------

class BellRational:
    """Rational Bell series num/den, both with constant term 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: XPoly, den: XPoly):
        if not num.coeffs or not num.coeffs[0].is_one():
            raise SeriesWindowError("numerator constant term must be 1")
        if not den.coeffs or not den.coeffs[0].is_one():
            raise SeriesWindowError("denominator constant term must be 1")
        self.num = num
        self.den = den

    def series(self, K: int) -> list[PrimePoly]:
        return series_div(self.num.coeffs, self.den.coeffs, K)

    def matches(self, series: Sequence[PrimePoly]) -> bool:
        """Whether den * series == num below x^len(series), over Z[p].

        Every coefficient in p of the difference is at most B = sup (1 + l1)
        in size, sup the largest |coefficient| in series and num, l1 the sum
        of those in den.  With B < 2^(K-1) it vanishes at p = 2^K only if it
        is zero: O(len(series) deg den) products of packed integers prove it.
        """
        num, den, L = self.num.coeffs, self.den.coeffs, len(series)
        sup = max(abs(v) for c in [*series, *num] for _, v in c.items())
        l1 = sum(abs(v) for c in den for _, v in c.items())
        K = (sup * (1 + l1)).bit_length() + 1
        s, dk, nk = ([c.pack(K) for c in cs]
                     for cs in (series, den, num[:L] + [PrimePoly.zero] * L))
        return all(sum(map(operator.mul, dk, s[n::-1])) == nk[n]
                   for n in range(L))

    def reciprocal(self) -> "BellRational":
        return BellRational(self.den, self.num)

    def substitute_x_pk(self, k: int) -> "BellRational":
        return BellRational(self.num.substitute_x_pk(k), self.den.substitute_x_pk(k))

    def bind_prime(self, q: int) -> "BellRational":
        def bind(xp: XPoly) -> XPoly:
            return XPoly([PrimePoly.const(c.evaluate(q)) for c in xp.coeffs])
        return BellRational(bind(self.num), bind(self.den))

    def evaluate(self, p: int, x) -> float:
        return self.evaluate_block([p], [x])[0]

    def evaluate_block(self, ps: Sequence[int], xs: Sequence) -> list[float]:
        """num/den at each point (ps[i], xs[i])."""
        return list(map(operator.truediv, self.num.evaluate_block(ps, xs),
                        self.den.evaluate_block(ps, xs)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BellRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self) -> str:
        return "BellRational(%s)" % self


class MasterEquation:
    """An atom's coefficient rule: a(p^e) = generic(e), a PrimePoly, at a
    generic prime, overridden by the integer exceptions[q](e) at finitely
    many primes q."""

    __slots__ = ("generic", "exceptions")

    def __init__(self, generic: Callable[[int], PrimePoly],
                 exceptions: dict[int, Callable[[int], int]] | None = None):
        self.generic = generic
        self.exceptions = dict(exceptions or {})

    def __call__(self, h, q: int | None, e: int) -> PrimePoly | int:
        if q is not None:
            return self.exceptions[q](e)
        v = self.generic(e)
        if not isinstance(v, PrimePoly):
            raise MasterEquationError("prime-uniform Bell series unavailable")
        return v


class MultiplicativeFunction:
    """A multiplicative function as a node: its operands ops, one
    coefficient rule with its memo, and at most one Bell rule.

    rule(h, q, e) is h's a(q^e), a PrimePoly at the generic prime (q None)
    and an int at an exceptional prime q, read off the operands'
    f.coeff(q, l) and h's own earlier h.coeff(q, l); an atom's rule is its
    MasterEquation.  The exceptional primes are an atom's overrides or the
    union of the operands'.  coeff memoizes every coefficient a rule reads;
    value(p, e) at any other prime evaluates the generic polynomial
    unmemoized, so a long run of terms builds no per-prime memo.

    One cache holds the Bell series at the generic prime (key None) and
    at each exceptional prime q: derive(h, q, *bells) over the operands'
    series at q: a catalog atom's closed form, or at an exceptional prime
    the fit at the degree bound of its local values, or a combinator's
    Bell rule (for a pointwise product or power j > 1, the refit at their
    degree bound).  Where there is none or it gives None (a function
    built without one, a non-integral shift, an operand without a series,
    a pointwise bound at or above the cap) the first 2*cap+4 coefficients
    are refitted at the degree cap, DEFAULT_DEGREE_CAP at the generic
    prime and LOCAL_DEGREE_CAP at q.
    """

    def __init__(self, name: str, rule: Callable,
                 derive: Callable | None = None,
                 ops: tuple["MultiplicativeFunction", ...] = ()):
        self.name, self.rule, self.derive, self.ops = name, rule, derive, ops
        self.exceptions = (frozenset().union(*(f.exceptions for f in ops))
                           if ops else frozenset(rule.exceptions))
        self._memo: dict[tuple[int | None, int], PrimePoly | int] = {}
        self._bells: dict[int | None, BellRational | None] = {}

    def coeff(self, q: int | None, e: int) -> PrimePoly | int:
        """a(q^e), memoized: the rule's at the generic prime (q None) and
        at an exceptional q, the generic polynomial at any other q."""
        if e == 0:
            return PrimePoly.one if q is None else 1
        v = self._memo.get((q, e))
        if v is None:
            v = self._memo[q, e] = (
                self.rule(self, q, e) if q is None or q in self.exceptions
                else self.coeff(None, e).evaluate(q))
        return v

    def value(self, p: int, e: int) -> int:
        if p in self.exceptions:
            return self.coeff(p, e)
        return self.coeff(None, e).evaluate(p)

    # -- Bell series ---------------------------------------------------

    @property
    def bell(self) -> BellRational | None:
        """Generic-prime Bell series; None marks a non-rational one."""
        try:
            return self._bells[None]
        except KeyError:
            return self._bell_at(None)

    def _bell_at(self, q: int | None) -> BellRational | None:
        """Fill the cache at q: derive over the operands' series at q, or
        else refit the first 2*cap+4 coefficients at the generic (q None)
        or the local cap."""
        if q not in self._bells:
            try:
                bs = [f.local_bell(q) if q else f.bell for f in self.ops]
            except DegreeBoundError:
                bs = [None]
            b = self.derive and None not in bs and self.derive(self, q, *bs)
            if not b:
                cap = DEFAULT_DEGREE_CAP if q is None else LOCAL_DEGREE_CAP
                b = self._refit(q, cap, 2 * cap + 3)
            self._bells[q] = b
        return self._bells[q]

    def _refit(self, q: int | None, d: int, K: int) -> BellRational | None:
        """The fit of degree <= d to a(q^0), ..., a(q^K) (generic for q
        None), or None when there is none."""
        series = (self.series(K) if q is None else
                  list(map(PrimePoly.const, self.local_series(q, K))))
        try:
            return rationalize(series, d)
        except DegreeBoundError:
            return None

    def series(self, K: int) -> list[PrimePoly]:
        """First K+1 Bell series coefficients at the generic prime."""
        return [self.coeff(None, e) for e in range(K + 1)]

    def local_bell(self, q: int) -> BellRational | None:
        """Bell series at the prime q, as a rational over Z."""
        if q in self.exceptions:
            return self._bell_at(q)
        b = self.bell
        return b.bind_prime(q) if b is not None else None

    def local_series(self, q: int, K: int) -> list[int]:
        """a(q^e) for e = 0..K at a concrete prime."""
        return [self.value(q, e) for e in range(K + 1)]

    @property
    def exceptional_primes(self) -> list[int]:
        return sorted(self.exceptions)

    def __repr__(self):
        return "MultiplicativeFunction(%r)" % self.name


# ---------------------------------------------------------------------------
# combinators
#
# Each combinator is one node: its coefficient rule reads its operands
# h.ops, and its Bell rule gets their series at the same prime, so both
# serve the generic prime and every exceptional prime alike.

_sum = partial(reduce, operator.add)


def _reduce_product(num: XPoly, den: XPoly) -> BellRational:
    """Cancel common factors of an explicit rational via refitting."""
    d = max(num.degree(), den.degree())
    cand = BellRational(num, den)
    if d == 0:
        return cand
    return rationalize(cand.series(2 * d + 3), d)


def _convolve(h, q, e):
    f, g = h.ops
    return _sum(f.coeff(q, l) * g.coeff(q, e - l) for l in range(e + 1))


def dirichlet_convolve(f: MultiplicativeFunction, g: MultiplicativeFunction,
                       name: str | None = None) -> MultiplicativeFunction:
    """(f * g)(p^e) = sum_l f(p^l) g(p^(e-l)); Bell series multiply."""
    return MultiplicativeFunction(
        name or "(%s <*> %s)" % (f.name, g.name), _convolve,
        lambda h, q, fb, gb: _reduce_product(fb.num * gb.num, fb.den * gb.den),
        (f, g))


def _invert(h, q, e):
    f, = h.ops
    return -_sum(f.coeff(q, l) * h.coeff(q, e - l) for l in range(1, e + 1))


def dirichlet_inverse(f: MultiplicativeFunction,
                      name: str | None = None) -> MultiplicativeFunction:
    """Inverse under Dirichlet convolution; Bell series is flipped."""
    return MultiplicativeFunction(name or "inv(%s)" % f.name, _invert,
                                  lambda h, q, fb: fb.reciprocal(), (f,))


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


def _termwise(h, q, e):
    return reduce(operator.mul, [f.coeff(q, e) for f in h.ops])


def _bounded(h, q, *bs):
    """The termwise product's Bell series at q: where the operands' series
    bound its degree by D below the cap, the fit of degree <= D to its
    first 2D+2 coefficients.  Two rationals of degree <= D that agree that
    far are equal, so the fit is a proof when the operands' series are
    exact.  Otherwise None, and the cap refit runs."""
    D = hadamard_degree(bs)
    cap = DEFAULT_DEGREE_CAP if q is None else LOCAL_DEGREE_CAP
    return h._refit(q, D, 2 * D + 1) if D < cap else None


def pointwise_product(f: MultiplicativeFunction, g: MultiplicativeFunction,
                      name: str | None = None) -> MultiplicativeFunction:
    """(f . g)(p^e) = f(p^e) g(p^e); Bell series refitted at the degree
    bound of the operands' series (hadamard_degree)."""
    return MultiplicativeFunction(name or "(%s * %s)" % (f.name, g.name),
                                  _termwise, _bounded, (f, g))


def pointwise_power(f: MultiplicativeFunction, j: int,
                    name: str | None = None) -> MultiplicativeFunction:
    """j-th pointwise power, j >= 1: for j > 1 the product of j copies."""
    if j < 1:
        raise ValueError("pointwise power needs j >= 1 (inverses are not integer-valued)")
    return MultiplicativeFunction(name or "%s^%d" % (f.name, j), _termwise,
                                  _bounded if j > 1 else lambda h, q, fb: fb,
                                  (f,) * j)


def shift_by_power(f: MultiplicativeFunction, k: int,
                   name: str | None = None) -> MultiplicativeFunction:
    """Multiply by n^k: a(p^e) -> p^(ke) a(p^e)."""

    def rule(h, q, e):
        # the one rule that tells PrimePoly from int: exact division by p
        v, n = f.coeff(q, e), k * e
        if q is None:
            try:
                return v.shift_p(n)
            except MasterEquationError:
                pass
        else:
            v = v * Fraction(q) ** n
            if v.denominator == 1:
                return v.numerator
        raise MasterEquationError("shift by %d not integral at %se=%d"
                                  % (k, "" if q is None else "p=%d, " % q, e))

    def shifted(h, q, fb):
        try:
            fb = fb.substitute_x_pk(k)
        except MasterEquationError:
            return None  # refit instead; the shift may not be integral
        return fb if q is None else fb.bind_prime(q)

    return MultiplicativeFunction(name or "shift(%s, %d)" % (f.name, k),
                                  rule, shifted, (f,))


def _union(h, q, fb, gb):
    den = fb.den * gb.den
    num = fb.num * gb.den + gb.num * fb.den - den  # B_f + B_g - 1
    return _reduce_product(num, den)


def unitary_convolve(f: MultiplicativeFunction, g: MultiplicativeFunction,
                     name: str | None = None) -> MultiplicativeFunction:
    """Unitary convolution: a(p^e) = f(p^e) + g(p^e) for e > 0."""
    return MultiplicativeFunction(
        name or "(%s <+> %s)" % (f.name, g.name),
        lambda h, q, e: h.ops[0].coeff(q, e) + h.ops[1].coeff(q, e),
        _union, (f, g))
