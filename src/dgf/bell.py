"""Multiplicative functions as nodes, and their Bell series.

An atom's coefficient rule is a master equation: a(p^e) as an integer
polynomial in p, optionally overridden at finitely many exceptional
primes.  A catalog atom states only its closed-form Bell series and its
exceptional values, and its rule reads a(p^e) off that series.  A
combinator is a node over its operands: one coefficient rule over their
coefficients and at most one Bell rule over their Bell series at the
same prime, so both serve every prime alike.  Each node memoizes its own
coefficients and Bell series, filled operands first by one walk on an
explicit stack, so no call nests per level of an expression.  The Bell
series sum_e a(p^e) x^e (x = p^-s) is kept as an exact rational function
over Z[p] where one is known.

Every series is built, never fitted.  A catalog atom's is its closed
form, at an exceptional prime that of its local values.  Every rule
cancels common factors by one exact gcd over Z[p] (_reduce_product).  A
pointwise product or power takes its denominator from the operands'
(read off their binomials, else their composed product) and its
numerator from the truncated product with its own coefficients, while
that work is within a bound.  Past the work bound, past an operand
without a series, or for a function built without a Bell rule, no
series is known (None).

Every binomial power (1 - S p^l x^u)^gamma, from a series' split to its
zeta form in dgf.euler, is an EulerFactor: _merge adds the powers of
equal ones, _expand multiplies a list of them out.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DegreeBoundError, MasterEquationError, SeriesWindowError
from .polys import PrimePoly, XPoly, series_div

# the bound of the CLI's -U: it reaches order 60, the highest of a
# binomial of a cyclotomic factor of x-degree up to 16 (max m k over
# phi(m) k <= 16, at Phi_60), so factorize can show each of them.
# Peeling to order U takes O(U d) products for a Bell series of degree d
# and O(U^2) for a raw series.  A pointwise product's series is built
# (_bounded) while its work, N coefficients times the binomials or the
# degree of a den of degree N - e0, is at most MAX_ORDER (MAX_ORDER + 1)
MAX_ORDER = 64


# ---------------------------------------------------------------------------
# exact gcd

def _coprime_mod(a: list[int], b: list[int]) -> bool:
    """Whether the integer polynomials a and b (from x^0, top nonzero) are
    coprime mod the prime M, by Euclid's algorithm there; False where M
    divides a's top coefficient.  True proves them coprime over Z[x]: mod
    M a common factor keeps its degree.  This safe prime 2^61 - 2373 is 3
    mod 8, so p = 2^k, 0 < k < (M - 1)/2, has order (M - 1)/2 or M - 1
    (mod 2^61 - 1, p^61 = 1 made coprime binomials look alike)."""
    M = 2305843009213691579
    if not a[-1] % M:
        return False
    a, b = [v % M for v in a], [v % M for v in b]
    while b:
        if b[-1]:
            inv = pow(b[-1], -1, M)
            while len(a) >= len(b):
                s, c = len(a) - len(b), a[-1] * inv % M
                a = a[:s] + [(x - c * y) % M for x, y in zip(a[s:], b)]
                a.pop()
            a, b = b, a
        else:
            b.pop()
    return len(a) == 1


def _reduce_product(num: XPoly, den: XPoly) -> "BellRational":
    """num/den with its gcd over Z[p] divided out, both with constant term 1.

    Packed at p = 2^k, k two bits above the widest coefficient (integers
    pack as themselves), the pair A, B keeps every degree.  It is coprime
    mod a prime (_coprime_mod; so at x-degree 0), and then so is num/den,
    or g = gcd(A(2^K), B(2^K)), 2^K >= 2 |A|_inf + 2, gives the gcd (GCDHEU:
    Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): its balanced
    base-2^K digits over the constant one g0, read in base 2^k, are a G
    with constant term 1 (as series_div needs), proved by dividing both.
    Such a G is the gcd: a factor u of A of degree > 0 has roots |r| <
    1 + |A|_inf, so |u(2^K)| > 2^(K-1) >= |g0|, which it would divide were
    G u the gcd; and a common divisor of the packed gcd's degree is the gcd
    over Z[p].  K = j k + 1 is prime to k: at K = j k, x = p^j, and values
    1 - S 2^(lk + uK) of coprime binomials share factors 2^e - 1 growing
    with k (prime to k, e divides lu' - l'u).  Where the digits are too
    narrow, k and K double (K also at a concrete prime, where k changes
    nothing), at most four times; past that, DegreeBoundError."""
    cs = num.coeffs + den.coeffs
    k = max(abs(v) for c in cs for _, v in c.items()).bit_length() + 2
    # A and B, packed once per radix
    A, B = ([c.pack(k) for c in xp.coeffs] for xp in (num, den))
    if _coprime_mod(A, B):
        return BellRational(num, den)
    K = 0
    for _ in range(5):
        bound = max(map(abs, A + B)).bit_length() + 2
        K = (max(2 * K, bound) // k + 1) * k + 1
        a, b = (sum(v << (K * i) for i, v in enumerate(P)) for P in (A, B))
        # g is odd, as A(2^K) is, so its constant digit is not 0
        g = dict(PrimePoly.unpack(math.gcd(a, b), K).items())
        if not any(v % g[0] for v in g.values()):
            G = XPoly(PrimePoly.unpack(g.get(i, 0) // g[0], k)
                      for i in range(max(g) + 1))
            nq, dq = num.divide(G), den.divide(G)
            if nq is not None and dq is not None:
                return BellRational(nq, dq)
        k *= 2
        A, B = ([c.pack(k) for c in xp.coeffs] for xp in (num, den))
    raise DegreeBoundError("no exact gcd over Z[p]")


# ---------------------------------------------------------------------------
# binomials
#
# A binomial power (1 - S p^l x^u)^gamma, S = +-1, is an EulerFactor.
# The binomials that divide num and den give a series its split, and a
# den that is their product gives a termwise product its den_H.  Every
# candidate divisor is first tested on the values at p = 2^20, x = 2^45:
# over Z[p] a divisor's value divides; XPoly.divide then proves it.

class EulerFactor(NamedTuple):
    """One factor (1 - S p^l x^u)^gamma of an Euler product over primes."""
    S: int
    l: int
    u: int
    gamma: int

    def sort_key(self):
        # smallest u first, then largest l; sign breaks remaining ties
        return (self.u, -self.l, self.S)

    def base_str(self) -> str:
        sign = "-" if self.S > 0 else "+"
        if self.l == 0:
            mono = ""
        elif self.l == 1:
            mono = "p "
        else:
            mono = "p^%d " % self.l
        xs = "x" if self.u == 1 else "x^%d" % self.u
        return "(1 %s %s%s)" % (sign, mono, xs)

    def __str__(self) -> str:
        b = self.base_str()
        return b if self.gamma == 1 else "%s^%d" % (b, self.gamma)

    def to_json(self) -> dict:
        return {"S": self.S, "l": self.l, "u": self.u, "gamma": self.gamma}


def _merge(factors: Iterable, cls) -> list:
    """Add up the exponents gamma (the last field) of factors of one base,
    drop the zero ones and sort into the canonical order of cls."""
    acc: dict[tuple, int] = {}
    for f in factors:
        key = f[:-1]
        acc[key] = acc.get(key, 0) + f.gamma
    return sorted((cls(*k, g) for k, g in acc.items() if g), key=cls.sort_key)


def _partial_binomials(xp: XPoly, gamma: int) -> tuple[list[EulerFactor], XPoly]:
    """Strip every binomial 1 - S p^l x^u that divides xp exactly, as
    EulerFactor(S, l, u, gamma).

    Candidates are read off the lowest-order non-constant term; the
    remainder is returned unfactored.
    """
    found: list[EulerFactor] = []
    v = xp.pack(20, 45)
    while xp.degree() >= 1:
        # the top coefficient is nonzero, so some u <= degree is found
        u = next(i for i in range(1, xp.degree() + 1)
                 if not xp.coeff(i).is_zero())
        for l, c in sorted(xp.coeff(u).items(), reverse=True):
            S = -1 if c > 0 else +1
            w = 1 - (S << (20 * l + 45 * u))
            q = xp.divide(XPoly.binomial(S, l, u)) if v % w == 0 else None
            if q is not None:
                found.append(EulerFactor(S, l, u, gamma))
                xp, v = q, v // w
                break
        else:
            break
    return found, xp


def _expand(factors: Sequence[EulerFactor], s: Sequence[PrimePoly] = (),
            N: int = 0) -> XPoly:
    """The product of |gamma| copies of each factor's binomial, or with a
    series s, s times it below x^N, multiplied out on integers packed at
    p = 2^k: one shift and subtraction per coefficient and binomial, and
    t binomials leave coefficients of size at most 2^t sup |s|."""
    sup = max((abs(v) for c in s[:N] for _, v in c.items()), default=1)
    k = (sup << sum(abs(f.gamma) for f in factors)).bit_length() + 2
    acc = [c.pack(k) for c in s[:N]] or [1]
    for S, l, u, gamma in factors:
        op = operator.sub if S > 0 else operator.add
        for _ in range(abs(gamma)):
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
    # den_binomials reads too, _split, _log, x N'/N and x D'/D as far as
    # euler._log_series has read them: one T = x B'/B for every peel, and
    # _coeffs, the series as far as coeff has read it
    __slots__ = ("num", "den", "_den_split", "_split", "_log", "_coeffs")

    def __init__(self, num: XPoly, den: XPoly):
        if not num.coeffs or not num.coeffs[0].is_one():
            raise SeriesWindowError("numerator constant term must be 1")
        if not den.coeffs or not den.coeffs[0].is_one():
            raise SeriesWindowError("denominator constant term must be 1")
        self.num = num
        self.den = den

    @property
    def split(self) -> tuple[list[EulerFactor], "BellRational | None"]:
        """The exact binomial split, found once: the binomials dividing num
        (gamma +1) or den (gamma -1), and the rest, None when it is 1."""
        try:
            return self._split
        except AttributeError:
            nf, nr = _partial_binomials(self.num, +1)
            df, dr = self._den_half()
            self._split = (nf + df, None if nr.is_one() and dr.is_one()
                           else BellRational(nr, dr))
            return self._split

    def _den_half(self) -> tuple[list[EulerFactor], XPoly]:
        try:
            return self._den_split
        except AttributeError:
            self._den_split = _partial_binomials(self.den, -1)
            return self._den_split

    @property
    def den_binomials(self) -> tuple[EulerFactor, ...] | None:
        """The den's factors off the split, merged (gamma < 0): den is
        their _expand; None when den is no product of binomials."""
        found, rest = self._den_half()
        return tuple(_merge(found, EulerFactor)) if rest.is_one() else None

    def series(self, K: int) -> list[PrimePoly]:
        return series_div(self.num.coeffs, self.den.coeffs, K)

    def coeff(self, e: int) -> PrimePoly:
        """The x^e coefficient, off the series kept in _coeffs: a read past
        its end extends it in place to order max(e, twice its length), so
        reads up to x^K cost one series_div to order below 2K."""
        try:
            s = self._coeffs
        except AttributeError:
            s = self._coeffs = []
        if e >= len(s):
            series_div(self.num.coeffs, self.den.coeffs, max(e, 2 * len(s)), s)
        return s[e]

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
    many primes q.  A catalog atom's generic is the x^e coefficient of its
    closed form (BellRational.coeff)."""

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
    MasterEquation, which for a catalog atom reads its closed form, so an
    atom's coefficients and series agree by construction.  The
    exceptional primes are an atom's overrides or the union of the
    operands'.  One cache holds the Bell series at the generic prime (key
    None) and at each exceptional prime q: derive(h, q, *bells) over the
    operands' series at q: a catalog atom's closed form, at an exceptional
    prime that of its local values, or a combinator's Bell rule (for a
    pointwise product or power j > 1, _bounded).  Where there is no
    derive, an operand has no series, or the rule gives up
    (DegreeBoundError: a non-integral shift, a pointwise product past its
    work bound), the series is None: none is known, which proves nothing.
    """

    def __init__(self, name: str, rule: Callable,
                 derive: Callable | None = None,
                 ops: tuple["MultiplicativeFunction", ...] = ()):
        self.name, self.rule, self.derive, self.ops = name, rule, derive, ops
        self.exceptions = (frozenset().union(*(f.exceptions for f in ops))
                           if ops else frozenset(rule.exceptions))
        self._memo: dict[tuple[int | None, int], PrimePoly | int] = {}
        self._bells: dict[int | None, BellRational | None] = {}

    def _walk(self, q: int | None, done: Callable) -> list:
        """The nodes under self, each once, after its operands (a power
        holds j references to its base); none at or under a node done, nor
        under one not exceptional at a prime q."""
        if not self.ops:  # a walk starts only at a node that misses
            return [self]
        order, seen, stack = [], set(), [self]
        while stack:
            f = stack.pop()
            if f is None:  # the operands of the node below are done
                order.append(stack.pop())
            elif f not in seen and not done(f):
                seen.add(f)
                stack += (f, None)
                if q is None or q in f.exceptions:
                    stack += f.ops[::-1]
        return order

    def coeff(self, q: int | None, e: int) -> PrimePoly | int:
        """a(q^e): a PrimePoly at the generic prime (q None), an int at a
        prime q.  A miss at the generic prime or an exceptional one fills
        a(q^k) for k = 1..e in turn at each node under self lacking it,
        operands first: rules read memo hits, and an error names the least
        k.  There a node not exceptional at q takes its generic values; at
        other primes they are evaluated unmemoized, so terms keeps no memo."""
        if e == 0:
            return PrimePoly.one if q is None else 1
        v = self._memo.get((q, e))
        if v is not None:
            return v
        if q is not None and q not in self.exceptions:
            return self.coeff(None, e).evaluate(q)
        nodes = self._walk(q, lambda f: (q, e) in f._memo)
        for k in range(1, e + 1):
            for f in nodes:
                if (q, k) not in f._memo:
                    f._memo[q, k] = (
                        f.rule(f, q, k) if q is None or q in f.exceptions
                        else f.coeff(None, k).evaluate(q))
        return self._memo[q, e]

    # -- Bell series ---------------------------------------------------

    @property
    def bell(self) -> BellRational | None:
        """Generic-prime Bell series; None where none is known."""
        return self._bells.get(None) or self.local_bell(None)

    def local_bell(self, q: int | None) -> BellRational | None:
        """The Bell series at the prime q, over Z (generic for q None, over
        Z[p]).  At the generic prime and an exceptional one it is cached,
        filled operands first by derive over the operands' series at q:
        None with no derive, an operand's series unknown, or a rule that
        gives up (DegreeBoundError).  Elsewhere the generic one at q."""
        if q is not None and q not in self.exceptions:
            b = self.bell
            return b.bind_prime(q) if b is not None else None
        if q not in self._bells:
            for f in self._walk(q, lambda f: q in f._bells or (
                    q is not None and q not in f.exceptions)):
                bs, b = [g.local_bell(q) for g in f.ops], None
                if f.derive and None not in bs:
                    try:
                        b = f.derive(f, q, *bs)
                    except DegreeBoundError:
                        pass
                f._bells[q] = b
        return self._bells[q]

    def _window(self, q: int | None, K: int) -> list[PrimePoly]:
        """a(q^0), ..., a(q^K) (generic for q None) as PrimePolys."""
        return (self.series(K) if q is None else
                list(map(PrimePoly.const, self.local_series(q, K))))

    def series(self, K: int) -> list[PrimePoly]:
        """First K+1 Bell series coefficients at the generic prime."""
        return self.local_series(None, K)

    def local_series(self, q: int | None, K: int) -> list[PrimePoly | int]:
        """a(q^e) for e = 0..K, a(q^K) asked first: one fill, then reads."""
        return [self.coeff(q, e) for e in range(K, -1, -1)][::-1]

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


def _convolve(h, q, e):
    f, g = h.ops
    return _sum(f.coeff(q, l) * g.coeff(q, e - l) for l in range(e + 1))


def dirichlet_convolve(f: MultiplicativeFunction,
                       g: MultiplicativeFunction) -> MultiplicativeFunction:
    """(f * g)(p^e) = sum_l f(p^l) g(p^(e-l)); Bell series multiply."""
    return MultiplicativeFunction(
        "(%s <*> %s)" % (f.name, g.name), _convolve,
        lambda h, q, fb, gb: _reduce_product(fb.num * gb.num, fb.den * gb.den),
        (f, g))


def _invert(h, q, e):
    f, = h.ops
    return -_sum(f.coeff(q, l) * h.coeff(q, e - l) for l in range(1, e + 1))


def dirichlet_inverse(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """Inverse under Dirichlet convolution; Bell series is flipped."""
    return MultiplicativeFunction("inv(%s)" % f.name, _invert,
                                  lambda h, q, fb: fb.reciprocal(), (f,))


def _termwise(h, q, e):
    return reduce(operator.mul, [f.coeff(q, e) for f in h.ops])


def _multisets(items: Sequence, n: int):
    """Each multiset of n of items, as the pairs (item, count) of its
    items, with its number of orderings."""
    top = n + len(items) - 1
    for bars in combinations(range(top), len(items) - 1):
        cs = [b - a - 1 for a, b in zip((-1, *bars), (*bars, top))]
        yield ([(t, c) for t, c in zip(items, cs) if c],
               math.factorial(n) // math.prod(map(math.factorial, cs)))


def _hadamard_den(blocks: Sequence[tuple[EulerFactor, ...]]
                  ) -> list[EulerFactor] | None:
    """den_H of a termwise product whose operands' dens are products of
    binomials (blocks: each operand's den_binomials), as den factors.

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
    A den factor's power m is its -gamma.
    """
    groups = Counter(blocks)
    if math.prod(math.comb(len(b) + n - 1, n)
                 for b, n in groups.items()) > MAX_ORDER ** 2:
        return None
    if not all(groups):
        return []
    out: dict[tuple[int, int, int], int] = {}
    for parts in product(*(_multisets(b, n) for b, n in groups.items())):
        tup = [t for part, _ in parts for t in part]
        L = math.lcm(*(f.u for f, _ in tup))
        key = (math.prod(f.S ** (L // f.u * c) for f, c in tup),
               sum(f.l * (L // f.u) * c for f, c in tup), L)
        k = 1 - len(blocks) - sum(f.gamma * c for f, c in tup)
        w = math.prod(w for _, w in parts)
        m = out.get(key, 0)
        out[key] = max(m, k) if L == 1 else m + k * w
    return sorted((EulerFactor(*key, -k) for key, k in out.items()),
                  key=EulerFactor.sort_key)


def _exp_sums(P: Sequence[PrimePoly], n: int) -> list[PrimePoly]:
    """c_0, ..., c_n of exp(sum_k P_k x^k / k), P = [P_1, P_2, ...], by
    Newton's identities m c_m = sum_(i<=m) P_i c_(m-i): for power sums of
    roots over Z[p], the complete symmetric functions h_m, each division
    by m exact."""
    c = [PrimePoly.one]
    for m in range(1, n + 1):
        acc = _dot(P[:m], c[::-1])
        c.append(PrimePoly({e: v // m for e, v in acc.items()}))
    return c


def _composed_den(groups: Counter, D: int) -> XPoly:
    """The den of degree D whose reciprocal roots are the products of one
    of each operand's: of n operands sharing a den (groups: each den with
    its n), one product per multiset of n of its roots.

    x den'/den = -sum P_k x^k gives a den's power sums P_k.  The k-th of
    its n-th symmetric power is h_n of its roots' k-th powers, the x^n
    coefficient of 1/den_k, den_k the den with power sums P_k, P_2k, ...
    (m = min(n, deg den) of them reach x^n).  The composed product's are
    the groups' multiplied (Bostan, Flajolet, Salvy and Schost, J. Symb.
    Comp. 41, 2006), and den_H = exp(-sum P_k x^k / k).
    """
    P = [PrimePoly.one] * D
    for den, n in groups.items():
        m = min(n, den.degree())
        s = series_div([c.scale(i) for i, c in enumerate(den.coeffs)],
                       den.coeffs, m * D)
        P = [a * series_div([PrimePoly.one], _exp_sums(s[k::k][:m], m), n)[n]
             for k, a in enumerate(P, 1)]
    return XPoly(_exp_sums([-v for v in P], D))


def _dot(a: Sequence[PrimePoly], b: Sequence[PrimePoly]) -> PrimePoly:
    """sum a_i b_i, multiplied out on integers packed at p = 2^k: no
    coefficient exceeds sum l1(a_i) l1(b_i) < 2^(k-1) in size, l1 the sum
    of a PrimePoly's |coefficients|."""
    def l1(c):
        return sum(abs(v) for _, v in c.items())
    k = sum(l1(x) * l1(y) for x, y in zip(a, b)).bit_length() + 2
    return PrimePoly.unpack(sum(x.pack(k) * y.pack(k) for x, y in zip(a, b)), k)


def _bounded(h, q, *bs):
    """The termwise product's Bell series at q.

    From e0 on, the product's coefficients obey the recurrence of a den
    den_H, so num = den_H * S below x^N, N = deg den_H + e0, and
    num/den_H is reduced exactly.  Where every operand's den is a product
    of binomials, den_H is read off them (_hadamard_den); else it is the
    composed product of the dens (_composed_den): each root of the
    product's sequence is a product of operand roots of multiplicities
    m_i, and its weight's degree sum (m_i - 1) is below its multiplicity
    there.  That is built while N times the number of binomials of den_H,
    or times its degree where den_H is the composed product, is at most
    MAX_ORDER (MAX_ORDER + 1); past it no series is known
    (DegreeBoundError).
    """
    e0 = max(0, *(b.num.degree() - b.den.degree() + 1 for b in bs))
    blocks = [b.den_binomials for b in bs]
    bound = MAX_ORDER * (MAX_ORDER + 1)
    if None in blocks:
        groups = Counter(b.den for b in bs)
        D = math.prod(math.comb(d.degree() + n - 1, n)
                      for d, n in groups.items())
        N = D + e0
        if N * D > bound:
            raise DegreeBoundError("termwise product past the work bound")
        den, s = _composed_den(groups, D), h._window(q, N - 1)
        return _reduce_product(
            XPoly(_dot(den.coeffs, s[n::-1]) for n in range(N)), den)
    den_bins = _hadamard_den(blocks)
    N = e0 - sum(f.u * f.gamma for f in den_bins or ())
    if den_bins is None or N * sum(-f.gamma for f in den_bins) > bound:
        raise DegreeBoundError("termwise product past the work bound")
    return _reduce_product(_expand(den_bins, h._window(q, N - 1), N),
                           _expand(den_bins))


def pointwise_product(f: MultiplicativeFunction,
                      g: MultiplicativeFunction) -> MultiplicativeFunction:
    """(f . g)(p^e) = f(p^e) g(p^e); Bell series by _bounded."""
    return MultiplicativeFunction("(%s * %s)" % (f.name, g.name),
                                  _termwise, _bounded, (f, g))


def _power(h, q, e):
    # the operands are j copies of the base
    return h.ops[0].coeff(q, e) ** len(h.ops)


def pointwise_power(f: MultiplicativeFunction,
                    j: int) -> MultiplicativeFunction:
    """j-th pointwise power, j >= 1: for j > 1 the product of j copies.
    '^' does not chain, so a base that is a power is named in parens."""
    if j < 1:
        raise ValueError("pointwise power needs j >= 1 (inverses are not integer-valued)")
    base = "(%s)" % f.name if f.rule is _power else f.name
    return MultiplicativeFunction(
        "%s^%d" % (base, j), _power,
        _bounded if j > 1 else lambda h, q, fb: fb, (f,) * j)


def shift_by_power(f: MultiplicativeFunction,
                   k: int) -> MultiplicativeFunction:
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
        # x -> p^k x over Z[p], or x -> q^k x in exact rationals at q; the
        # reduced form of an integer series is integral, so a fraction
        # means the shifted values are not integers
        if q is None:
            try:
                return fb.substitute_x_pk(k)
            except MasterEquationError:
                raise DegreeBoundError("shift by %d not integral" % k)
        cs = [[c.constant_value() * Fraction(q) ** (k * e)
               for e, c in enumerate(xp.coeffs)] for xp in (fb.num, fb.den)]
        if any(v.denominator != 1 for v in cs[0] + cs[1]):
            raise DegreeBoundError("shift by %d not integral at p=%d" % (k, q))
        return BellRational(*(XPoly.from_ints(map(int, c)) for c in cs))

    return MultiplicativeFunction("shift(%s, %d)" % (f.name, k),
                                  rule, shifted, (f,))


def _union(h, q, fb, gb):
    den = fb.den * gb.den
    num = fb.num * gb.den + gb.num * fb.den - den  # B_f + B_g - 1
    return _reduce_product(num, den)


def unitary_convolve(f: MultiplicativeFunction,
                     g: MultiplicativeFunction) -> MultiplicativeFunction:
    """Unitary convolution: a(p^e) = f(p^e) + g(p^e) for e > 0."""
    return MultiplicativeFunction(
        "(%s <+> %s)" % (f.name, g.name),
        lambda h, q, e: h.ops[0].coeff(q, e) + h.ops[1].coeff(q, e),
        _union, (f, g))
