"""Built-in library of multiplicative functions.

Each entry couples a prime-power rule (the function's defining master
equation) with a short description and the closed form of its Bell
series at a generic prime.  Where the Dirichlet series is a finite
product of zeta factors zeta(us - l)^gamma, the entry's zeta= list of
(u, l, gamma) is that closed form: its Bell series is the product of
(1 - p^l x^u)^-gamma.  Only the entries whose series is no such product
for some parameter values (zeta= gives "infinite" or None there) carry
an explicit bell= form.  At runtime the closed form is the instance's
generic-prime Bell series, so no master window is refitted.  At an
exceptional prime the values are data (LocalValues): n first values and
the ratio of every later one, whose fit at degree n on 2n + 2 values is
a proof.  Common factors of a closed form are cancelled exactly
(bell._reduce_product) over its denominator binomials: a zeta= list
passes its own, a bell= form has them read off; only a bell= den that is
no product of binomials, as const(c)'s 1 - c x, is reduced by a refit.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

from .bell import (BellRational, MasterEquation, MultiplicativeFunction,
                   _expand, _reduce_product)
from .errors import CatalogError
from .euler import INFINITE, ZetaFactor, _merge, _zeta_sides
from .polys import PrimePoly, XPoly

_MAX_K = 30
_MAX_T = 8
_MAX_C = 10**6

_ZERO = PrimePoly.zero
_ONE = PrimePoly.one


def _P(l: int, c: int = 1) -> PrimePoly:
    return PrimePoly.monomial(l, c)


def _C(v: int) -> PrimePoly:
    return PrimePoly.const(v)


def _geom(step: int, terms: int, start: int = 0) -> PrimePoly:
    """p^start + p^(start+step) + ... (terms summands)."""
    if terms <= 0:
        return _ZERO
    if step == 0:
        return _P(start, terms)
    return PrimePoly({start + step * j: 1 for j in range(terms)})


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


def _bin(S: int, l: int, u: int) -> XPoly:
    return XPoly.binomial(S, l, u)


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


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    params: tuple[Param, ...]
    build: Callable
    bell: Callable | None = None
    zeta: Callable | None = None
    validate: Callable | None = None

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

    def _closed(self, vals) -> tuple[BellRational, Counter | None]:
        """The generic Bell series in closed form and its den's binomials
        with their powers: the bell= form if the entry has one (binomials
        read off its den), else the product of its zeta= factors, which is
        then a finite list for every parameter value, and its factors of
        positive gamma."""
        if self.bell is not None:
            return self.bell(*vals), None
        num, den = _zeta_sides(map(ZetaFactor._make, self.zeta(*vals)))
        return BellRational(_expand(num), _expand(den)), den

    def make(self, *args) -> MultiplicativeFunction:
        vals = self.check_args(args)

        def derive(h, q):
            # at q the fit its n values prove; else the closed form (built
            # on first use) with its common factors cancelled
            if q is not None:
                n = len(h.rule.exceptions[q].values)
                return h._refit(q, n, 2 * n + 1)
            b, binomials = self._closed(vals)
            return _reduce_product(b.num, b.den, binomials)
        return MultiplicativeFunction(self.instance_name(vals),
                                      self.build(*vals), derive=derive)

    def closed_bell(self, *args) -> BellRational:
        return self._closed(self.check_args(args))[0]

    def expected_zeta(self, *args):
        """Finite form as (u, l, gamma) tuples, "infinite", or None."""
        if self.zeta is None:
            return None
        return self.zeta(*self.check_args(args))


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, summary, params=(), bell=None, zeta=None, validate=None):
    def deco(build):
        CATALOG[name] = CatalogEntry(name, summary, tuple(params), build,
                                     bell, zeta, validate)
        return build
    return deco


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

@_register("one", "constantly 1; unit of Dirichlet convolution products",
           zeta=lambda: [(1, 0, 1)])
def _build_one():
    return MasterEquation(lambda e: _ONE)


@_register("id", "identity map n",
           zeta=lambda: [(1, 1, 1)])
def _build_id():
    return MasterEquation(lambda e: _P(e))


@_register("power", "k-th power n^k", [_K],
           zeta=lambda k: [(1, k, 1)])
def _build_power(k):
    return MasterEquation(lambda e: _P(k * e))


@_register("const", "c raised to the number of prime factors with "
           "multiplicity", [_CP],
           bell=lambda c: BellRational(_xp(1), _xp(1, -c)),
           zeta=lambda c: [(1, 0, 1)] if c == 1 else INFINITE)
def _build_const(c):
    return MasterEquation(lambda e: _C(c**e))


# -- sign functions ----------------------------------------------------------

@_register("mu", "Moebius function: parity of squarefree factorisations",
           zeta=lambda: [(1, 0, -1)])
def _build_mu():
    return MasterEquation(lambda e: _C(-1) if e == 1 else _ZERO)


@_register("liouville", "parity of the total number of prime factors",
           zeta=lambda: [(2, 0, 1), (1, 0, -1)])
def _build_liouville():
    return MasterEquation(lambda e: _C((-1) ** e))


@_register("mu_star", "sign from the number of distinct prime factors",
           bell=lambda: BellRational(_xp(1, -2), _xp(1, -1)),
           zeta=lambda: INFINITE)
def _build_mu_star():
    return MasterEquation(lambda e: _C(-1))


@_register("mu_apostol", "1 on k-th-power-free n, -1 when some prime "
           "exponent hits k exactly, else 0", [_K1],
           bell=lambda k: BellRational(
               _xp(1, *([0] * (k - 1)), -2, 1) if k > 1 else _xp(1, -1),
               _xp(1, -1) if k > 1 else _xp(1)),
           zeta=lambda k: [(1, 0, -1)] if k == 1 else INFINITE)
def _build_mu_apostol(k):
    def rule(e):
        if e < k:
            return _ONE
        return _C(-1) if e == k else _ZERO
    return MasterEquation(rule)


# -- indicator-style selectors -----------------------------------------------

@_register("eps", "indicator of perfect t-th powers", [_T],
           zeta=lambda t: [(t, 0, 1)])
def _build_eps(t):
    return MasterEquation(lambda e: _ONE if e % t == 0 else _ZERO)


@_register("xi", "indicator of t-free numbers (no prime power p^t divides)",
           [_T],
           zeta=lambda t: [(1, 0, 1), (t, 0, -1)])
def _build_xi(t):
    return MasterEquation(lambda e: _ONE if e < t else _ZERO)


@_register("depleted", "drops multiples of q^k, 1 elsewhere",
           [_QP, Param("k", 1, _MAX_K)],
           zeta=lambda q, k: [(1, 0, 1)])
def _build_depleted(q, k):
    return MasterEquation(lambda e: _ONE, {q: LocalValues((1,) * k, 0)})


@_register("periodic2", "c on even numbers, 1 on odd", [_CP],
           zeta=lambda c: [(1, 0, 1)])
def _build_periodic2(c):
    return MasterEquation(lambda e: _ONE, {2: LocalValues((1, c), 1)})


@_register("periodic4", "c1 on multiples of 4, c2 on other evens, 1 on odd",
           [Param("c1", 1, _MAX_C), Param("c2", 1, _MAX_C)],
           zeta=lambda c1, c2: [(1, 0, 1)])
def _build_periodic4(c1, c2):
    return MasterEquation(lambda e: _ONE, {2: LocalValues((1, c2, c1), 1)})


# -- fixed-argument gcd and lcm ----------------------------------------------

@_register("gcdc", "gcd(n, c) for fixed c", [_CP],
           zeta=lambda c: [(1, 0, 1)])
def _build_gcdc(c):
    exc = {q: LocalValues(tuple(q**e for e in range(eq + 1)), 1)
           for q, eq in _factorize(c)}
    return MasterEquation(lambda e: _ONE, exc)


@_register("lcmc", "lcm(n, c)/c for fixed c", [_CP],
           zeta=lambda c: [(1, 1, 1)])
def _build_lcmc(c):
    exc = {q: LocalValues((1,) * (eq + 1), q) for q, eq in _factorize(c)}
    return MasterEquation(lambda e: _P(e), exc)


# -- power-part extractors ---------------------------------------------------

@_register("core", "t-free part: n divided by its largest t-th-power divisor",
           [_T],
           zeta=lambda t: [(t, 0, 1), (1, 1, 1), (t, t, -1)])
def _build_core(t):
    return MasterEquation(lambda e: _P(e % t))


@_register("rad", "prime exponents clipped at t-1 (t=2 gives the radical)",
           [_T],
           bell=lambda t: BellRational(
               _xp(1, *({j: 1, j - 1: -1} for j in range(1, t))),
               _bin(1, 0, 1)),
           zeta=lambda t: INFINITE)
def _build_rad(t):
    return MasterEquation(lambda e: _P(min(e, t - 1)))


@_register("max_tpow", "largest t-th power dividing n", [_T],
           zeta=lambda t: [(1, 0, 1), (t, t, 1), (t, 0, -1)])
def _build_max_tpow(t):
    return MasterEquation(lambda e: _P(t * (e // t)))


@_register("root_tpow", "t-th root of the largest t-th power dividing n",
           [_T],
           zeta=lambda t: [(1, 0, 1), (t, 1, 1), (t, 0, -1)])
def _build_root_tpow(t):
    return MasterEquation(lambda e: _P(e // t))


# -- divisor sums ------------------------------------------------------------

@_register("sigma", "sum of k-th powers of divisors", [_K],
           zeta=lambda k: _zf((1, 0, 1), (1, k, 1)))
def _build_sigma(k):
    return MasterEquation(lambda e: _geom(k, e + 1))


@_register("sigma_odd", "sum of k-th powers of odd divisors", [_K],
           zeta=lambda k: _zf((1, 0, 1), (1, k, 1)))
def _build_sigma_odd(k):
    return MasterEquation(lambda e: _geom(k, e + 1), {2: LocalValues((1,), 1)})


@_register("tpow_divisor_sum", "sum of divisors that are t-th powers", [_T],
           zeta=lambda t: [(1, 0, 1), (t, t, 1)])
def _build_tpow_divisor_sum(t):
    return MasterEquation(lambda e: _geom(t, e // t + 1))


@_register("sigma_tfree", "sum of k-th powers of t-free divisors",
           [_K, _T],
           zeta=lambda k, t: _zf((1, 0, 1), (1, k, 1), (t, t * k, -1)))
def _build_sigma_tfree(k, t):
    return MasterEquation(lambda e: _geom(k, min(e, t - 1) + 1))


@_register("sigma_pow", "divisor power sum of a perfect power: "
           "sum of k-th powers of divisors of n^t", [_K, _T],
           bell=lambda k, t: BellRational(
               _xp(1, _geom(k, t - 1, start=k)),
               _bin(1, 0, 1) * _bin(1, t * k, 1)),
           zeta=lambda k, t: (_zf((1, 0, 1), (1, k, 1), (1, 2 * k, 1),
                                  (2, 2 * k, -1))
                              if t == 2 else INFINITE))
def _build_sigma_pow(k, t):
    return MasterEquation(lambda e: _geom(k, e * t + 1))


@_register("sigma_prime", "sum over coprime unitary splittings d * m = n "
           "of d restricted to squarefree d",
           bell=lambda: BellRational(_xp(1, {1: 1}, {1: -1}), _bin(1, 0, 1)),
           zeta=lambda: INFINITE)
def _build_sigma_prime():
    return MasterEquation(lambda e: _ONE + _P(1) if e == 1 else _ONE)


# -- divisor counts ----------------------------------------------------------

@_register("tau", "ordered factorisations of n into k parts", [_K1],
           zeta=lambda k: [(1, 0, k)])
def _build_tau(k):
    return MasterEquation(lambda e: _C(math.comb(e + k - 1, k - 1)))


@_register("tfull_count", "number of t-full divisors (every prime exponent "
           "in the divisor is at least t)", [_T],
           bell=lambda t: BellRational(
               _xp(1, -1, *([0] * (t - 2)), 1),
               _bin(1, 0, 1) * _bin(1, 0, 1)),
           zeta=lambda t: (_zf((1, 0, 1), (2, 0, 1), (3, 0, 1), (6, 0, -1))
                           if t == 2 else None))
def _build_tfull_count(t):
    return MasterEquation(lambda e: _C(max(1, e - t + 2)))


# -- pair statistics over divisor splittings ---------------------------------

@_register("gcd_pairs", "sum of gcd(d, n/d)^t over divisors d", [_T1],
           zeta=lambda t: _zf((1, 0, 2), (2, t, 1), (2, 0, -1)))
def _build_gcd_pairs(t):
    def rule(e):
        acc: dict[int, int] = {}
        for m in range(e + 1):
            l = t * min(m, e - m)
            acc[l] = acc.get(l, 0) + 1
        return PrimePoly(acc)
    return MasterEquation(rule)


@_register("lcm_pairs", "sum of lcm(d, n/d)^t over divisors d", [_T1],
           zeta=lambda t: _zf((1, t, 2), (2, t, 1), (2, 2 * t, -1)))
def _build_lcm_pairs(t):
    def rule(e):
        acc: dict[int, int] = {}
        for m in range(e + 1):
            l = t * max(m, e - m)
            acc[l] = acc.get(l, 0) + 1
        return PrimePoly(acc)
    return MasterEquation(rule)


# -- totients and their relatives --------------------------------------------

@_register("phi", "count of residues mod n coprime to n",
           zeta=lambda: [(1, 1, 1), (1, 0, -1)])
def _build_phi():
    return MasterEquation(lambda e: _P(e) - _P(e - 1))


@_register("phi_kl", "weighted totient: divisor sum of mu(d) d^k (n/d)^l",
           [Param("k", 0, _MAX_K), Param("l", 1, _MAX_K)],
           zeta=lambda k, l: [(1, l, 1), (1, k, -1)],
           validate=lambda k, l: None if k < l else "needs k < l")
def _build_phi_kl(k, l):
    return MasterEquation(lambda e: _P(l * e) - _P(k + l * (e - 1)))


@_register("phi_prime", "totient restricted to squarefree arguments",
           bell=lambda: BellRational(_xp(1, {1: 1, 0: -1}), _xp(1)),
           zeta=lambda: INFINITE)
def _build_phi_prime():
    return MasterEquation(
        lambda e: _P(1) - _ONE if e == 1 else _ZERO)


@_register("jordan", "count of coprime k-tuples mod n", [_K1],
           zeta=lambda k: [(1, k, 1), (1, 0, -1)])
def _build_jordan(k):
    return MasterEquation(lambda e: _P(k * e) - _P(k * (e - 1)))


@_register("jordan_ratio", "ratio of the k-th to the first Jordan totient",
           [_K1],
           bell=lambda k: BellRational(_xp(1, _geom(1, k - 1)),
                                       _bin(1, k - 1, 1)),
           zeta=lambda k: ([(1, 0, 1)] if k == 1 else
                           _zf((1, 0, 1), (1, 1, 1), (2, 0, -1)) if k == 2
                           else INFINITE))
def _build_jordan_ratio(k):
    return MasterEquation(
        lambda e: _geom(1, k, start=(k - 1) * (e - 1)))


@_register("dedekind", "totient-like product over p | n of n (1 + 1/p)",
           zeta=lambda: [(1, 0, 1), (1, 1, 1), (2, 0, -1)])
def _build_dedekind():
    return MasterEquation(lambda e: _P(e) + _P(e - 1))


@_register("psi_k", "k-th power analogue of the Dedekind product", [_K1],
           zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, 0, -1)))
def _build_psi_k(k):
    return MasterEquation(lambda e: _P(k * e) + _P(k * (e - 1)))


@_register("ramanujan", "trigonometric divisor sum at fixed modulus c: "
           "sum of d mu(c/d)-style weights over d | gcd(n, c)", [_CP],
           zeta=lambda c: [(1, 0, -1)])
def _build_ramanujan(c):
    exc = {q: LocalValues((1, *(q**e - q ** (e - 1) for e in range(1, eq + 1)),
                           -(q**eq)), 0) for q, eq in _factorize(c)}
    return MasterEquation(lambda e: _C(-1) if e == 1 else _ZERO, exc)


# -- unitary-divisor analogues ------------------------------------------------

@_register("sigma_star", "sum of k-th powers of unitary divisors "
           "(divisors coprime to their cofactor)", [_K],
           zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, k, -1)))
def _build_sigma_star(k):
    return MasterEquation(lambda e: _ONE + _P(k * e))


@_register("sigma_star_odd", "sum of k-th powers of odd unitary divisors",
           [_K],
           zeta=lambda k: _zf((1, 0, 1), (1, k, 1), (2, k, -1)))
def _build_sigma_star_odd(k):
    return MasterEquation(lambda e: _ONE + _P(k * e), {2: LocalValues((1,), 1)})


@_register("phi_star", "unitary totient: product of p^e - 1 over "
           "maximal prime powers in n",
           bell=lambda: BellRational(_xp(1, -2, {1: 1}),
                                     _bin(1, 0, 1) * _bin(1, 1, 1)),
           zeta=lambda: INFINITE)
def _build_phi_star():
    return MasterEquation(lambda e: _P(e) - _ONE)


@_register("jordan_star", "unitary Jordan totient: product of p^(ek) - 1",
           [_K1],
           bell=lambda k: BellRational(_xp(1, -2, {k: 1}),
                                       _bin(1, 0, 1) * _bin(1, k, 1)),
           zeta=lambda k: INFINITE)
def _build_jordan_star(k):
    return MasterEquation(lambda e: _P(e * k) - _ONE)


@_register("tau_star", "k to the number of distinct primes dividing n",
           [_K1],
           bell=lambda k: BellRational(_xp(1, k - 1), _bin(1, 0, 1)),
           zeta=lambda k: ([(1, 0, 1)] if k == 1 else
                           _zf((1, 0, 2), (2, 0, -1)) if k == 2
                           else INFINITE))
def _build_tau_star(k):
    return MasterEquation(lambda e: _C(k))


# -- power congruence counts ---------------------------------------------------

@_register("congruence_count", "number of residues x mod n with "
           "x^t = 0 (mod n)", [_T],
           bell=lambda t: BellRational(
               _xp(1, *({r - 1: 1} for r in range(1, t))),
               _bin(1, t - 1, t)),
           zeta=lambda t: (_zf((1, 0, 1), (2, 1, 1), (2, 0, -1))
                           if t == 2 else INFINITE))
def _build_congruence_count(t):
    return MasterEquation(lambda e: _P(e - (e + t - 1) // t))


@_register("congruence_min", "least m whose t-th power n divides", [_T],
           bell=lambda t: BellRational(
               _xp(1, *({1: 1} for _ in range(1, t))),
               _bin(1, 1, t)),
           zeta=lambda t: (_zf((1, 1, 1), (2, 1, 1), (2, 2, -1))
                           if t == 2 else INFINITE))
def _build_congruence_min(t):
    return MasterEquation(lambda e: _P((e + t - 1) // t))
