"""Built-in library of multiplicative functions.

Each entry states its function once, by the closed form of its Bell
series at a generic prime, with a short description.  Where the
Dirichlet series is a finite product of zeta factors zeta(us - l)^gamma,
the entry's zeta= list of (u, l, gamma) is that closed form: its Bell
series is the product of (1 - p^l x^u)^-gamma.  Only the entries whose
series is no such product for some parameter values (zeta= gives
"infinite" or None there) carry an explicit bell= form.  At runtime the
closed form is the instance's generic-prime Bell series, built without
reading a coefficient, and its coefficients are the instance's a(p^e)
there: the atom's MasterEquation reads them off that series
(BellRational.coeff).  An entry with exceptional primes gives them by
local=: at each, the values are data (LocalValues): n first values and
the ratio of every later one, whose series has a closed form too.
Common factors of a closed form, generic or local, are cancelled by the
one exact gcd (bell._reduce_product).  Each reduced closed form is built
once per process, on first use, and shared, with the coefficients read
off it so far, by every instance with the same (entry, params) or the
same local values; the memo keeps the _MEMO_SIZE most recently used.
Only these immutable series are shared, never a MultiplicativeFunction
node.
"""
from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, NamedTuple

from .bell import (BellRational, MasterEquation, MultiplicativeFunction,
                   _merge, _reduce_product)
from .errors import CatalogError
from .euler import INFINITE, ZetaFactor, _zeta_bell
from .polys import PrimePoly, XPoly

_MAX_K = 30
_MAX_T = 8
_MAX_C = 10**6
_MEMO_SIZE = 1024  # reduced closed forms kept, generic and local each


def _geom(step: int, terms: int, start: int = 0) -> PrimePoly:
    """p^start + p^(start+step) + ... (terms summands)."""
    return PrimePoly(Counter(start + step * j for j in range(terms)))


def _xp(*rows) -> XPoly:
    out = []
    for r in rows:
        if isinstance(r, PrimePoly):
            out.append(r)
        elif isinstance(r, dict):
            out.append(PrimePoly(r))
        else:
            out.append(PrimePoly.const(r))
    return XPoly(out)


def _zf(*tuples):
    """Merge (u, l, gamma) tuples into a canonical sorted list."""
    return [(z.u, z.l, z.gamma)
            for z in _merge([ZetaFactor(*t) for t in tuples], ZetaFactor)]


def _factorize(c: int) -> list[tuple[int, int]]:
    """Trial division: parameters are factored without growing a sieve."""
    out = []
    d = 2
    while d * d <= c:
        if c % d == 0:
            e = 0
            while c % d == 0:
                c //= d
                e += 1
            out.append((d, e))
        d += 1
    if c > 1:
        out.append((c, 1))
    return out


class Param(NamedTuple):
    name: str
    lo: int
    hi: int
    prime: bool = False


class LocalValues(NamedTuple):
    """An atom's values h_e = a(q^e), e < n, at an exceptional prime q; each
    later one is r (0, 1 or q) times the one before, so its Bell series
    (H(x) (1 - r x) + h_(n-1) r x^n)/(1 - r x) has degrees at most n."""
    values: tuple[int, ...]
    ratio: int

    def __call__(self, e: int) -> int:
        n = len(self.values) - 1
        return self.values[min(e, n)] * self.ratio ** max(e - n, 0)

    def bell(self) -> BellRational:
        """The closed form, with its common factors cancelled."""
        r, den = self.ratio, XPoly.from_ints([1, -self.ratio])
        tail = XPoly.from_ints([0] * len(self.values) + [self.values[-1] * r])
        return _reduce_product(XPoly.from_ints(self.values) * den + tail, den)


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    params: tuple[Param, ...]
    bell: Callable | None = None
    zeta: Callable | None = None
    validate: Callable | None = None
    local: Callable | None = None  # vals -> {q: LocalValues}

    def check_args(self, args) -> tuple[int, ...]:
        if len(args) != len(self.params):
            names = ", ".join(p.name for p in self.params) or "none"
            raise CatalogError("%s takes parameters (%s), got %d value(s)"
                               % (self.name, names, len(args)))
        vals = []
        for p, a in zip(self.params, args):
            if not isinstance(a, int) or isinstance(a, bool):
                raise CatalogError("%s: parameter %s must be an integer"
                                   % (self.name, p.name))
            if not p.lo <= a <= p.hi:
                raise CatalogError("%s: parameter %s=%d out of range [%d, %d]"
                                   % (self.name, p.name, a, p.lo, p.hi))
            if p.prime and _factorize(a) != [(a, 1)]:
                raise CatalogError("%s: parameter %s=%d must be prime"
                                   % (self.name, p.name, a))
            vals.append(a)
        if self.validate is not None:
            msg = self.validate(*vals)
            if msg:
                raise CatalogError("%s: %s" % (self.name, msg))
        return tuple(vals)

    def instance_name(self, args) -> str:
        if not args:
            return self.name
        return "%s(%s)" % (self.name, ",".join(str(a) for a in args))

    def _closed(self, vals) -> BellRational:
        """The generic Bell series in closed form: the bell= form if the
        entry has one, else the product of its zeta= factors, which is
        then a finite list for every parameter value."""
        if self.bell is not None:
            return self.bell(*vals)
        return BellRational(*_zeta_bell(self.zeta(*vals)))

    def make(self, *args) -> MultiplicativeFunction:
        vals = self.check_args(args)

        def derive(h, q):
            # the closed form with its common factors cancelled, built once
            # per process and shared: at q its local values', else the
            # entry's at the validated vals
            if q is not None:
                return _local_bell(h.rule.exceptions[q])
            return _generic_bell(self, vals)
        rule = MasterEquation(lambda e: _generic_bell(self, vals).coeff(e),
                              self.local(*vals) if self.local else None)
        return MultiplicativeFunction(self.instance_name(vals), rule,
                                      derive=derive)

    def closed_bell(self, *args) -> BellRational:
        return self._closed(self.check_args(args))

    def expected_zeta(self, *args):
        """Finite form as (u, l, gamma) tuples, "infinite", or None."""
        if self.zeta is None:
            return None
        return self.zeta(*self.check_args(args))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _generic_bell(entry: CatalogEntry, vals: tuple[int, ...]) -> BellRational:
    b = entry._closed(vals)
    return _reduce_product(b.num, b.den)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _local_bell(values: LocalValues) -> BellRational:
    return values.bell()


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, summary, params=(), **forms):
    CATALOG[name] = CatalogEntry(name, summary, tuple(params), **forms)


def make(name: str, *args) -> MultiplicativeFunction:
    entry = CATALOG.get(name)
    if entry is None:
        raise CatalogError("unknown function %r" % name)
    return entry.make(*args)


def names() -> list[str]:
    return sorted(CATALOG)


_K = Param("k", 0, _MAX_K)
_K1 = Param("k", 1, _MAX_K)
_T = Param("t", 2, _MAX_T)
_T1 = Param("t", 1, _MAX_T)
_CP = Param("c", 1, _MAX_C)
_QP = Param("q", 2, _MAX_C, prime=True)


# -- all-ones, identity and power scales ------------------------------------

_register("one", "constantly 1; unit of Dirichlet convolution products",
          zeta=lambda: [(1, 0, 1)])

_register("id", "identity map n",
          zeta=lambda: [(1, 1, 1)])

_register("power", "k-th power n^k", [_K],
          zeta=lambda k: [(1, k, 1)])

_register("const", "c raised to the number of prime factors with "
          "multiplicity", [_CP],
          bell=lambda c: BellRational(_xp(1), _xp(1, -c)),
          zeta=lambda c: [(1, 0, 1)] if c == 1 else INFINITE)


# -- sign functions ----------------------------------------------------------

_register("mu", "Moebius function: parity of squarefree factorisations",
          zeta=lambda: [(1, 0, -1)])

_register("liouville", "parity of the total number of prime factors",
          zeta=lambda: [(2, 0, 1), (1, 0, -1)])

_register("mu_star", "sign from the number of distinct prime factors",
          bell=lambda: BellRational(_xp(1, -2), _xp(1, -1)),
          zeta=lambda: INFINITE)

_register("mu_apostol", "1 on k-th-power-free n, -1 when some prime "
          "exponent hits k exactly, else 0", [_K1],
          bell=lambda k: BellRational(
              _xp(1, *([0] * (k - 1)), -2, 1) if k > 1 else _xp(1, -1),
              _xp(1, -1) if k > 1 else _xp(1)),
          zeta=lambda k: [(1, 0, -1)] if k == 1 else INFINITE)


# -- indicator-style selectors -----------------------------------------------

_register("eps", "indicator of perfect t-th powers", [_T],
          zeta=lambda t: [(t, 0, 1)])

_register("xi", "indicator of t-free numbers (no prime power p^t divides)",
          [_T],
          zeta=lambda t: [(1, 0, 1), (t, 0, -1)])

_register("depleted", "drops multiples of q^k, 1 elsewhere",
          [_QP, Param("k", 1, _MAX_K)],
          zeta=lambda q, k: [(1, 0, 1)],
          local=lambda q, k: {q: LocalValues((1,) * k, 0)})

_register("periodic2", "c on even numbers, 1 on odd", [_CP],
          zeta=lambda c: [(1, 0, 1)],
          local=lambda c: {2: LocalValues((1, c), 1)})

_register("periodic4", "c1 on multiples of 4, c2 on other evens, 1 on odd",
          [Param("c1", 1, _MAX_C), Param("c2", 1, _MAX_C)],
          zeta=lambda c1, c2: [(1, 0, 1)],
          local=lambda c1, c2: {2: LocalValues((1, c2, c1), 1)})


# -- fixed-argument gcd and lcm ----------------------------------------------

_register("gcdc", "gcd(n, c) for fixed c", [_CP],
          zeta=lambda c: [(1, 0, 1)],
          local=lambda c: {q: LocalValues(tuple(q**e for e in range(eq + 1)),
                                          1) for q, eq in _factorize(c)})

_register("lcmc", "lcm(n, c)/c for fixed c", [_CP],
          zeta=lambda c: [(1, 1, 1)],
          local=lambda c: {q: LocalValues((1,) * (eq + 1), q)
                           for q, eq in _factorize(c)})


# -- power-part extractors ---------------------------------------------------

_register("core", "t-free part: n divided by its largest t-th-power divisor",
          [_T],
          zeta=lambda t: [(t, 0, 1), (1, 1, 1), (t, t, -1)])

_register("rad", "prime exponents clipped at t-1 (t=2 gives the radical)",
          [_T],
          bell=lambda t: BellRational(
              _xp(1, *({j: 1, j - 1: -1} for j in range(1, t))),
              XPoly.binomial(1, 0, 1)),
          zeta=lambda t: INFINITE)

_register("max_tpow", "largest t-th power dividing n", [_T],
          zeta=lambda t: [(1, 0, 1), (t, t, 1), (t, 0, -1)])

_register("root_tpow", "t-th root of the largest t-th power dividing n",
          [_T],
          zeta=lambda t: [(1, 0, 1), (t, 1, 1), (t, 0, -1)])


# -- divisor sums ------------------------------------------------------------

_register("sigma", "sum of k-th powers of divisors", [_K],
          zeta=lambda k: _zf((1, 0, 1), (1, k, 1)))

_register("sigma_odd", "sum of k-th powers of odd divisors", [_K],
          zeta=lambda k: _zf((1, 0, 1), (1, k, 1)),
          local=lambda k: {2: LocalValues((1,), 1)})

_register("tpow_divisor_sum", "sum of divisors that are t-th powers", [_T],
          zeta=lambda t: [(1, 0, 1), (t, t, 1)])

_register("sigma_tfree", "sum of k-th powers of t-free divisors",
          [_K, _T],
          zeta=lambda k, t: _zf((1, 0, 1), (1, k, 1), (t, t * k, -1)))

_register("sigma_pow", "divisor power sum of a perfect power: "
          "sum of k-th powers of divisors of n^t", [_K, _T],
          bell=lambda k, t: BellRational(
              _xp(1, _geom(k, t - 1, start=k)),
              XPoly.binomial(1, 0, 1) * XPoly.binomial(1, t * k, 1)),
          zeta=lambda k, t: (_zf((1, 0, 1), (1, k, 1), (1, 2 * k, 1),
                                 (2, 2 * k, -1))
                             if t == 2 else INFINITE))

_register("sigma_prime", "sum over coprime unitary splittings d * m = n "
          "of d restricted to squarefree d",
          bell=lambda: BellRational(_xp(1, {1: 1}, {1: -1}),
                                    XPoly.binomial(1, 0, 1)),
          zeta=lambda: INFINITE)


# -- divisor counts ----------------------------------------------------------

_register("tau", "ordered factorisations of n into k parts", [_K1],
          zeta=lambda k: [(1, 0, k)])

_register("tfull_count", "number of t-full divisors (every prime exponent "
          "in the divisor is at least t)", [_T],
          bell=lambda t: BellRational(
              _xp(1, -1, *([0] * (t - 2)), 1),
              XPoly.binomial(1, 0, 1) * XPoly.binomial(1, 0, 1)),
          zeta=lambda t: (_zf((1, 0, 1), (2, 0, 1), (3, 0, 1), (6, 0, -1))
                          if t == 2 else None))


# -- pair statistics over divisor splittings ---------------------------------

_register("gcd_pairs", "sum of gcd(d, n/d)^t over divisors d", [_T1],
          zeta=lambda t: _zf((1, 0, 2), (2, t, 1), (2, 0, -1)))

_register("lcm_pairs", "sum of lcm(d, n/d)^t over divisors d", [_T1],
          zeta=lambda t: _zf((1, t, 2), (2, t, 1), (2, 2 * t, -1)))


# -- totients and their relatives --------------------------------------------

_register("phi", "count of residues mod n coprime to n",
          zeta=lambda: [(1, 1, 1), (1, 0, -1)])

_register("phi_kl", "weighted totient: divisor sum of mu(d) d^k (n/d)^l",
          [Param("k", 0, _MAX_K), Param("l", 1, _MAX_K)],
          zeta=lambda k, l: [(1, l, 1), (1, k, -1)],
          validate=lambda k, l: None if k < l else "needs k < l")

_register("phi_prime", "totient restricted to squarefree arguments",
          bell=lambda: BellRational(_xp(1, {1: 1, 0: -1}), _xp(1)),
          zeta=lambda: INFINITE)

_register("jordan", "count of coprime k-tuples mod n", [_K1],
          zeta=lambda k: [(1, k, 1), (1, 0, -1)])

_register("jordan_ratio", "ratio of the k-th to the first Jordan totient",
          [_K1],
          bell=lambda k: BellRational(_xp(1, _geom(1, k - 1)),
                                      XPoly.binomial(1, k - 1, 1)),
          zeta=lambda k: ([(1, 0, 1)] if k == 1 else
                          _zf((1, 0, 1), (1, 1, 1), (2, 0, -1)) if k == 2
                          else INFINITE))

_register("dedekind", "totient-like product over p | n of n (1 + 1/p)",
          zeta=lambda: [(1, 0, 1), (1, 1, 1), (2, 0, -1)])

_register("psi_k", "k-th power analogue of the Dedekind product", [_K1],
          zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, 0, -1)))

_register("ramanujan", "trigonometric divisor sum at fixed modulus c: "
          "sum of d mu(c/d)-style weights over d | gcd(n, c)", [_CP],
          zeta=lambda c: [(1, 0, -1)],
          local=lambda c: {q: LocalValues(
              (1, *(q**e - q ** (e - 1) for e in range(1, eq + 1)), -(q**eq)),
              0) for q, eq in _factorize(c)})


# -- unitary-divisor analogues ------------------------------------------------

_register("sigma_star", "sum of k-th powers of unitary divisors "
          "(divisors coprime to their cofactor)", [_K],
          zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, k, -1)))

_register("sigma_star_odd", "sum of k-th powers of odd unitary divisors",
          [_K],
          zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, k, -1)),
          local=lambda k: {2: LocalValues((1,), 1)})

_register("phi_star", "unitary totient: product of p^e - 1 over "
          "maximal prime powers in n",
          bell=lambda: BellRational(
              _xp(1, -2, {1: 1}),
              XPoly.binomial(1, 0, 1) * XPoly.binomial(1, 1, 1)),
          zeta=lambda: INFINITE)

_register("jordan_star", "unitary Jordan totient: product of p^(ek) - 1",
          [_K1],
          bell=lambda k: BellRational(
              _xp(1, -2, {k: 1}),
              XPoly.binomial(1, 0, 1) * XPoly.binomial(1, k, 1)),
          zeta=lambda k: INFINITE)

_register("tau_star", "k to the number of distinct primes dividing n",
          [_K1],
          bell=lambda k: BellRational(_xp(1, k - 1),
                                      XPoly.binomial(1, 0, 1)),
          zeta=lambda k: ([(1, 0, 1)] if k == 1 else
                          _zf((1, 0, 2), (2, 0, -1)) if k == 2
                          else INFINITE))


# -- power congruence counts ---------------------------------------------------

_register("congruence_count", "number of residues x mod n with "
          "x^t = 0 (mod n)", [_T],
          bell=lambda t: BellRational(
              _xp(1, *({r - 1: 1} for r in range(1, t))),
              XPoly.binomial(1, t - 1, t)),
          zeta=lambda t: (_zf((1, 0, 1), (2, 1, 1), (2, 0, -1))
                          if t == 2 else INFINITE))

_register("congruence_min", "least m whose t-th power n divides", [_T],
          bell=lambda t: BellRational(
              _xp(1, *({1: 1} for _ in range(1, t))),
              XPoly.binomial(1, 1, t)),
          zeta=lambda t: (_zf((1, 1, 1), (2, 1, 1), (2, 2, -1))
                          if t == 2 else INFINITE))
