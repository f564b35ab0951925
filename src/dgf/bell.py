"""Multiplicative functions as nodes, and their Bell series.

An atom is pinned down by a master equation giving a(p^e) as an integer
polynomial in p, optionally overridden at finitely many exceptional
primes.  A combinator is a node over its operands: one coefficient rule
over their coefficients and at most one Bell rule over their Bell series
at the same prime, so both serve every prime alike; each node memoizes
its own coefficients.  The Bell series sum_e a(p^e) x^e (x = p^-s) is
kept as an exact rational function over Z[p] whenever one exists.

Where a denominator is a product of binomials 1 - S p^l x^u, S = +-1, the
rules are exact: common factors are cancelled by dividing out the
binomials' cyclotomic pieces, and a pointwise product or power reads its
denominator off the operands' binomials and its numerator off the
truncated product with them, while that work is within a bound.  A
catalog atom takes its series from its closed form, and at an
exceptional prime from the fit at the degree bound of its values.
Elsewhere a series is refitted: by one fraction-free Berlekamp-Massey
pass at p = 2^k, read back from balanced base-2^k digits and proved over
Z[p] by one product check at p = 2^K; at a proven degree bound where
there is one, else at the degree cap.  Past the work bound, or past an
operand without a series, no series is known (None), and no refit
guesses one.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, product, repeat
from typing import Callable, Sequence

from .errors import DegreeBoundError, MasterEquationError, SeriesWindowError
from .polys import PrimePoly, XPoly, series_div

DEFAULT_DEGREE_CAP = 16
LOCAL_DEGREE_CAP = 40
# the bound of the CLI's -U: at least 60, the highest order of a binomial
# in a finite zeta form of a Bell series of degree up to the default cap
# (max m k over phi(m) k <= 16, at Phi_60), so factorize can show each of
# them.  Peeling to order U takes O(U d) products for a Bell series of
# degree d and O(U^2) for a raw series.  A pointwise product's series is
# built from its denominator (_bounded) while the work, N coefficients
# times the binomials of a den of degree N - e0, is at most
# MAX_ORDER (MAX_ORDER + 1): any den of degree up to MAX_ORDER, sparser
# ones further
MAX_ORDER = 4 * DEFAULT_DEGREE_CAP
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


# ---------------------------------------------------------------------------
# binomials
#
# A binomial 1 - S p^l x^u, S = +-1, is the triple (S, l, u).  With
# g = gcd(l, u) and y = p^(l/g) x^(u/g) it is 1 - S y^g: the product of
# the cyclotomic pieces Phi_m(y) over m | g if S = 1, over m | 2g with m
# not dividing g if S = -1, each irreducible over Q(p) (Capelli).  Any
# common factor of num and a den that is a product of binomials is a
# product of their pieces.  Every candidate divisor is first tested on
# the values at p = 2^20, x = 2^45: over Z[p] a divisor's value divides.

def _packed(xp: XPoly) -> int:
    return xp.pack(20, 45)


def _partial_binomials(xp: XPoly, gamma: int) -> tuple[list, XPoly]:
    """Strip every binomial 1 - S p^l x^u that divides xp exactly, as
    (S, l, u, gamma).

    Candidates are read off the lowest-order non-constant term; the
    remainder is returned unfactored.
    """
    found: list[tuple[int, int, int, int]] = []
    v = _packed(xp)
    while xp.degree() >= 1:
        # the top coefficient is nonzero, so some u <= degree is found
        u = next(i for i in range(1, xp.degree() + 1)
                 if not xp.coeff(i).is_zero())
        for l, c in sorted(xp.coeff(u).items(), reverse=True):
            S = -1 if c > 0 else +1
            w = 1 - (S << (20 * l + 45 * u))
            if v % w == 0 and (q := xp.divide_binomial(S, l, u)) is not None:
                found.append((S, l, u, gamma))
                xp, v = q, v // w
                break
        else:
            break
    return found, xp


@cache
def _cyclotomic(m: int) -> tuple[int, ...]:
    """The integer coefficients of Phi_m(x) with constant term 1 (1 - x
    for m = 1): 1 - x^m divided, as a series, by the pieces of its proper
    divisors."""
    c = [1] + [0] * (m - 1) + [-1]
    for d in range(1, m):
        if m % d == 0:
            p = _cyclotomic(d)
            for n in range(len(c) - len(p) + 1):
                for i in range(1, len(p)):
                    c[n + i] -= c[n] * p[i]
            del c[len(c) - len(p) + 1:]
    return tuple(c)


@cache
def _piece(m: int, a: int, b: int) -> tuple[XPoly, int]:
    """Phi_m(p^a x^b) and its packed value."""
    cs = [PrimePoly.zero] * (b * (len(_cyclotomic(m)) - 1) + 1)
    for k, c in enumerate(_cyclotomic(m)):
        cs[b * k] = PrimePoly.monomial(a * k, c)
    xp = XPoly(cs)
    return xp, _packed(xp)


def _pieces(S: int, l: int, u: int) -> list[tuple[int, int, int]]:
    """The pieces (m, a, b), Phi_m(p^a x^b), of the binomial (S, l, u)."""
    g = math.gcd(l, u)
    n = g if S > 0 else 2 * g
    return [(m, l // g, u // g) for m in range(1, n + 1)
            if n % m == 0 and (S > 0 or g % m)]


def _expand(binomials: Counter, s: Sequence[PrimePoly] = (),
            N: int = 0) -> XPoly:
    """The product of the binomials (S, l, u) to their powers, or with a
    series s, s times it below x^N, multiplied out on integers packed at
    p = 2^k: one shift and subtraction per coefficient and binomial, and
    t binomials leave coefficients of size at most 2^t sup |s|."""
    sup = max((abs(v) for c in s[:N] for _, v in c.items()), default=1)
    k = (sup << sum(binomials.values())).bit_length() + 2
    acc = [c.pack(k) for c in s[:N]] or [1]
    for (S, l, u), m in binomials.items():
        op = operator.sub if S > 0 else operator.add
        for _ in range(m):
            if not s:
                acc += [0] * u
            # the right side is read whole before acc changes
            acc[u:] = map(op, acc[u:], map(operator.lshift, acc,
                                           repeat(k * l)))
    return XPoly(PrimePoly.unpack(v, k) for v in acc)


# ---------------------------------------------------------------------------

class BellRational:
    """Rational Bell series num/den, both with constant term 1."""

    # filled on first use: _den_split, the den's half of split, which
    # den_binomials reads too, and _split; _den_bins only by a rule that
    # built den from known binomials
    __slots__ = ("num", "den", "_den_split", "_split", "_den_bins")

    def __init__(self, num: XPoly, den: XPoly):
        if not num.coeffs or not num.coeffs[0].is_one():
            raise SeriesWindowError("numerator constant term must be 1")
        if not den.coeffs or not den.coeffs[0].is_one():
            raise SeriesWindowError("denominator constant term must be 1")
        self.num = num
        self.den = den

    @property
    def split(self) -> tuple[list[tuple[int, int, int, int]], "BellRational | None"]:
        """The exact binomial split, found once: the binomials (S, l, u,
        gamma) dividing num (gamma +1) or den (gamma -1), and the rest, None
        when it is 1."""
        try:
            return self._split
        except AttributeError:
            nf, nr = _partial_binomials(self.num, +1)
            df, dr = self._den_half()
            self._split = (nf + df, None if nr.is_one() and dr.is_one()
                           else BellRational(nr, dr))
            return self._split

    def _den_half(self) -> tuple[list, XPoly]:
        try:
            return self._den_split
        except AttributeError:
            self._den_split = _partial_binomials(self.den, -1)
            return self._den_split

    @property
    def den_binomials(self) -> Counter | None:
        """Binomials (S, l, u) with their powers whose product is den: as
        given by the rule that built den, else the split's, or None when
        den is no product of binomials."""
        try:
            return self._den_bins
        except AttributeError:
            found, rest = self._den_half()
            return Counter(f[:3] for f in found) if rest.is_one() else None

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
    Bell rule (for a pointwise product or power j > 1, _bounded).  Where
    there is none or it gives None (a function built without one, a
    non-integral shift, a pointwise bound at or above the cap for operands
    whose dens do not split) the first 2*cap+4 coefficients are refitted
    at the degree cap, DEFAULT_DEGREE_CAP at the generic prime and
    LOCAL_DEGREE_CAP at q.  Where an operand has no series, or a rule
    gives up (DegreeBoundError), the series is None: none is known, which
    proves nothing, and no refit guesses one.
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
        """Generic-prime Bell series; None where none is known."""
        try:
            return self._bells[None]
        except KeyError:
            return self._bell_at(None)

    def _bell_at(self, q: int | None) -> BellRational | None:
        """Fill the cache at q: derive over the operands' series at q, or
        else refit the first 2*cap+4 coefficients at the generic (q None)
        or the local cap.  With an operand's series unknown, or a rule
        that gives up (DegreeBoundError), the cache holds None."""
        if q not in self._bells:
            bs = [f.local_bell(q) if q else f.bell for f in self.ops]
            b = None
            if None not in bs:
                try:
                    b = self.derive and self.derive(self, q, *bs)
                    if not b:
                        cap = (DEFAULT_DEGREE_CAP if q is None
                               else LOCAL_DEGREE_CAP)
                        b = self._refit(q, cap, 2 * cap + 3)
                except DegreeBoundError:
                    b = None
            self._bells[q] = b
        return self._bells[q]

    def _window(self, q: int | None, K: int) -> list[PrimePoly]:
        """a(q^0), ..., a(q^K) (generic for q None) as PrimePolys."""
        return (self.series(K) if q is None else
                list(map(PrimePoly.const, self.local_series(q, K))))

    def _refit(self, q: int | None, d: int, K: int) -> BellRational | None:
        """The fit of degree <= d to a(q^0), ..., a(q^K) (generic for q
        None), or None when there is none."""
        window = self._window(q, K)
        try:
            # a fit over Z[p] specialises to one at p = 2, so where there is
            # none there (or a non-integral one) there is none at all; the
            # values at p = 2 are far narrower than at the radix 2^k
            if q is None and _scalar_pade([c.pack(1) for c in window], d) is None:
                return None
            return rationalize(window, d)
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


def _reduce_product(num: XPoly, den: XPoly,
                    binomials: Counter | None = None) -> BellRational:
    """num/den with its common factors cancelled.

    Where den is a product of binomials (binomials: each with its power,
    by default read off den), every piece of theirs is divided out of
    both as often as den holds it and it divides num, so the result is
    the unique reduced form with constant terms 1.  Any other den is
    reduced by a refit of degree max(deg num, deg den).
    """
    cand = BellRational(num, den)
    if binomials is not None:
        cand._den_bins = binomials
    binomials = cand.den_binomials
    if binomials is None:
        d = max(num.degree(), den.degree())
        return cand if d == 0 else rationalize(cand.series(2 * d + 3), d)
    pieces: Counter = Counter()
    for (S, l, u), m in binomials.items():
        for pc in _pieces(S, l, u):
            pieces[pc] += m
    v = _packed(num)
    for pc, m in pieces.items():
        P, w = _piece(*pc)
        while m and v % w == 0 and (q := num.divide(P)) is not None:
            num, den, v, m = q, den.divide(P), v // w, m - 1
    # a den left whole keeps its binomials
    return cand if den is cand.den else BellRational(num, den)


def _cat(fb: BellRational, gb: BellRational) -> Counter | None:
    """The binomials of fb.den * gb.den: both operands' concatenated."""
    a, b = fb.den_binomials, gb.den_binomials
    return None if a is None or b is None else a + b


def _convolve(h, q, e):
    f, g = h.ops
    return _sum(f.coeff(q, l) * g.coeff(q, e - l) for l in range(e + 1))


def dirichlet_convolve(f: MultiplicativeFunction, g: MultiplicativeFunction,
                       name: str | None = None) -> MultiplicativeFunction:
    """(f * g)(p^e) = sum_l f(p^l) g(p^(e-l)); Bell series multiply."""
    return MultiplicativeFunction(
        name or "(%s <*> %s)" % (f.name, g.name), _convolve,
        lambda h, q, fb, gb: _reduce_product(fb.num * gb.num, fb.den * gb.den,
                                             _cat(fb, gb)),
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


def _multisets(items: list, n: int):
    """Each multiset of n of items, as the pairs (item, count) of its
    items, with its number of orderings."""
    top = n + len(items) - 1
    for bars in combinations(range(top), len(items) - 1):
        cs = [b - a - 1 for a, b in zip((-1, *bars), (*bars, top))]
        yield ([(t, c) for t, c in zip(items, cs) if c],
               math.factorial(n) // math.prod(map(math.factorial, cs)))


def _hadamard_den(blocks: Sequence[Counter]) -> Counter | None:
    """den_H of a termwise product whose operands' dens are products of
    binomials (blocks: each operand's, with their powers).

    Each tuple of one block (1 - S_i p^l_i x^u_i)^m_i per operand gives
    (1 - prod S_i^(L/u_i) p^(sum l_i L/u_i) x^L)^(sum m_i - j + 1),
    L = lcm u_i: every root of the product's sequence is a product of
    operand roots, with polynomial weights of degree below that power
    (Stanley, EC1 4.2).  Equal binomials of different tuples add their
    powers, as blocks of one operand may share roots: 1/((1 - x)(1 - x^2))
    has the double root 1, and times 1/(1 - x^2) termwise it is
    1/(1 - x^2)^2.  Blocks with u = 1 share none, so where L = 1 the
    larger power suffices.  Operands with equal blocks, as a power's, are
    walked once per multiset of their blocks, which stands for each of
    its orderings; None where there are more than MAX_ORDER^2 multisets.
    """
    groups: dict[frozenset, list] = {}
    for c in blocks:
        groups.setdefault(frozenset(c.items()), [list(c.items()), 0])[1] += 1
    out: Counter = Counter()
    if math.prod(math.comb(len(items) + n - 1, n)
                 for items, n in groups.values()) > MAX_ORDER ** 2:
        return None
    if not all(items for items, _ in groups.values()):
        return out
    for parts in product(*(_multisets(*g) for g in groups.values())):
        tup = [t for part, _ in parts for t in part]
        L = math.lcm(*(u for (((_, _, u), _), _) in tup))
        S = math.prod(S ** (L // u * c) for ((S, _, u), _), c in tup)
        l = sum(l * (L // u) * c for ((_, l, u), _), c in tup)
        k = sum(m * c for (_, m), c in tup) - len(blocks) + 1
        w = math.prod(w for _, w in parts)
        out[S, l, L] = max(out[S, l, L], k) if L == 1 else out[S, l, L] + k * w
    return out


def _bounded(h, q, *bs):
    """The termwise product's Bell series at q.

    Where every operand's den is a product of binomials, the product's
    coefficients obey the recurrence of den_H (_hadamard_den) from e0 on,
    so num = den_H * S below x^N, N = deg den_H + e0, and num/den_H is
    reduced exactly.  That is built while N times the number of
    binomials of den_H, the number of shifts per coefficient, is at most
    MAX_ORDER (MAX_ORDER + 1); past it no series is known, and none is
    guessed (DegreeBoundError).  Other dens: where hadamard_degree bounds
    the degree by D below the cap, the fit of degree <= D to 2D+2
    coefficients, a proof; else None, and the cap refit runs.
    """
    cap = DEFAULT_DEGREE_CAP if q is None else LOCAL_DEGREE_CAP
    blocks = [b.den_binomials for b in bs]
    if None in blocks:
        D = hadamard_degree(bs)
        return h._refit(q, D, 2 * D + 1) if D < cap else None
    den_bins = _hadamard_den(blocks)
    e0 = max(0, *(b.num.degree() - b.den.degree() + 1 for b in bs))
    N = sum(u * m for (_, _, u), m in (den_bins or {}).items()) + e0
    if (den_bins is None
            or N * sum(den_bins.values()) > MAX_ORDER * (MAX_ORDER + 1)):
        raise DegreeBoundError("termwise product past the work bound")
    return _reduce_product(_expand(den_bins, h._window(q, N - 1), N),
                           _expand(den_bins), den_bins)


def pointwise_product(f: MultiplicativeFunction, g: MultiplicativeFunction,
                      name: str | None = None) -> MultiplicativeFunction:
    """(f . g)(p^e) = f(p^e) g(p^e); Bell series by _bounded."""
    return MultiplicativeFunction(name or "(%s * %s)" % (f.name, g.name),
                                  _termwise, _bounded, (f, g))


def pointwise_power(f: MultiplicativeFunction, j: int,
                    name: str | None = None) -> MultiplicativeFunction:
    """j-th pointwise power, j >= 1: for j > 1 the product of j copies."""
    if j < 1:
        raise ValueError("pointwise power needs j >= 1 (inverses are not integer-valued)")
    return MultiplicativeFunction(
        name or "%s^%d" % (f.name, j),
        lambda h, q, e: h.ops[0].coeff(q, e) ** j,
        _bounded if j > 1 else lambda h, q, fb: fb, (f,) * j)


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
    return _reduce_product(num, den, _cat(fb, gb))


def unitary_convolve(f: MultiplicativeFunction, g: MultiplicativeFunction,
                     name: str | None = None) -> MultiplicativeFunction:
    """Unitary convolution: a(p^e) = f(p^e) + g(p^e) for e > 0."""
    return MultiplicativeFunction(
        name or "(%s <+> %s)" % (f.name, g.name),
        lambda h, q, e: h.ops[0].coeff(q, e) + h.ops[1].coeff(q, e),
        _union, (f, g))
