"""Factorisation of Dirichlet series into zeta factors and Euler products.

A Bell series either factors exactly through binomials 1 - S p^l x^u
(giving a finite product of Riemann zeta factors via
prod_p (1 - p^(l-us))^g = zeta^(-g)(us - l)) or is peeled order by
order into a truncated infinite product of such binomials.  Both start
from the exact binomial split of num and den; only the rest N/D that no
binomial divides is peeled.  A zeta form peels that rest to order
max m k over phi(m) k <= D, D = max(deg N, deg D), and gives up past
weight (deg N + deg D) max psi(m)/phi(m) over phi(m) <= D: every
irreducible factor of a binomial is a cyclotomic Phi_m(p^a x^b), whose
binomials have order at most m b and weight psi(m) b at x-degree
phi(m) b, so past these caps no finite product exists.  The peel works
on T = x B'/B, read off num and den by series_div: a binomial power adds
monomials to T, so it takes no series products (the inverse Euler
transform, Bernstein and Sloane 1995); both peels read copies of one T
per Bell series, extended on demand.  The round trip sums T from the
factors and proves x S' = T S by one BellRational.matches.  Zeta-form
coefficients expand by the same series_div.  Split and peeled binomial
powers alike are EulerFactors; only a zeta form's result is ZetaFactors,
and its local corrections are the reduced BellRationals found at their
primes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from . import sequences
from .bell import (BellRational, EulerFactor, MultiplicativeFunction, _expand,
                   _merge, _reduce_product)
from .errors import SieveLimitError
from .polys import PrimePoly, XPoly, series_div
from .records import Record


class EulerFactorList(Record):
    """Canonically ordered factor list; truncated_at None means exact."""
    __slots__ = ("factors", "truncated_at", "residual_ok")

    def __init__(self, factors: Iterable[EulerFactor],
                 truncated_at: int | None = None, residual_ok: bool = True):
        self.factors = _merge(factors, EulerFactor)
        self.truncated_at = truncated_at
        self.residual_ok = residual_ok

    def __iter__(self):
        return iter(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            body = "1"
        else:
            body = " ".join(str(f) for f in self.factors)
        if self.truncated_at is not None:
            body += " ..."
        return body

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors],
                "truncated_at": self.truncated_at}


def _log_series(b, K: int) -> list[dict[int, int]]:
    """T = x B'/B to order K as one fresh {l: c} dict (c p^l) per power
    of x: x N'/N - x D'/D, a plain series read as a polynomial of degree
    K.  Each x P'/P is series_div(x P', P), O(K deg P) products, which a
    BellRational keeps in its _log slot and extends, once per order."""
    def log(P: Sequence[PrimePoly], out=None) -> list[PrimePoly]:
        return series_div([c.scale(n) for n, c in enumerate(P)], P, K, out)

    if isinstance(b, BellRational):
        try:
            ln, ld = b._log
        except AttributeError:
            ln, ld = b._log = ([], [])
        if len(ln) <= K:
            log(b.num.coeffs, ln)
            log(b.den.coeffs, ld)
        T = map(PrimePoly.__sub__, ln[:K + 1], ld)
    else:
        T = log(b.coeffs if isinstance(b, XPoly) else b[: K + 1])
    return [dict(t.items()) for t in T]


def _divide_out(T: list[dict[int, int]], f: EulerFactor) -> None:
    """Divide F = (1 - S p^l x^u)^gamma out of a series with x B'/B = T, in
    place: T loses x F'/F, gaining gamma u S^k p^(lk) at x^(uk), k >= 1."""
    c, e = f.gamma * f.u, 0
    for n in range(f.u, len(T), f.u):
        c, e = c * f.S, e + f.l
        v = T[n].get(e, 0) + c
        if v:
            T[n][e] = v
        else:
            T[n].pop(e, None)


def _peel(T: list[dict[int, int]], signed: bool,
          weight_cap: float = math.inf) -> list[EulerFactor] | None:
    """Read binomial factors off T = x B'/B order by order, in place.

    With the factors below order u divided out, the residual series is
    1 + R_u x^u + O(x^(u+1)), so T_u = u R_u.  B and every factor lie in
    1 + x Z[p][[x]], so the residual does too and R_u = T_u/u is exact.
    Each monomial c p^l of R_u emits (1 + p^l x^u)^c if signed and c > 0,
    else (1 - p^l x^u)^(-c), and its contribution leaves T.  None once
    the weight sum |gamma| u passes weight_cap.
    """
    factors: list[EulerFactor] = []
    weight = 0
    for u in range(1, len(T)):
        for l, c in sorted(T[u].items(), reverse=True):
            r = c // u
            f = EulerFactor(-1, l, u, r) if signed and r > 0 \
                else EulerFactor(+1, l, u, -r)
            factors.append(f)
            _divide_out(T, f)
            weight += abs(r) * u
            if weight > weight_cap:
                return None
    return factors


def euler_expand(b, U: int) -> EulerFactorList:
    """Peel a BellRational, XPoly or plain series starting at 1 into
    binomial factors up to x^U; residual_ok: the residual T vanished."""
    T = _log_series(b, U)
    factors = _peel(T, signed=True)
    return EulerFactorList(factors, truncated_at=U, residual_ok=not any(T))


def round_trips(efl: EulerFactorList, series: Sequence[PrimePoly]) -> bool:
    """Whether the factors multiply back to S = series below x^len(S).  Their
    product B is the one series from 1 with x B' = T B, T = x B'/B, so this
    is (1 - T) S = S - x S' over Z[p].  Dividing every factor out of D = 1
    leaves -T from x^1 on, so D ends as 1 - T."""
    D: list[dict[int, int]] = [{0: 1}] + [{} for _ in series[1:]]
    for f in efl.factors:
        _divide_out(D, f)
    num = XPoly([c.scale(1 - n) for n, c in enumerate(series)])
    return BellRational(num, XPoly(map(PrimePoly, D))).matches(series)


def factor_bell(f, U: int = 8) -> EulerFactorList:
    """Full factorisation of a function's Dirichlet series over primes.

    Exactly dividing binomials of the rational Bell series are split
    off (numerator with exponent +1, denominator with -1) and the
    remaining part is peeled to order U.  Without a rational Bell
    series the raw master-equation series is peeled.
    """
    b = f.bell if isinstance(f, MultiplicativeFunction) else f
    if not isinstance(b, BellRational):
        return euler_expand(f.series(U) if b is None else b, U)

    split, rest = b.split
    if rest is None:
        return EulerFactorList(split, truncated_at=None)
    T = _log_series(rest, U)
    return EulerFactorList(split + _peel(T, signed=True), truncated_at=U,
                           residual_ok=not any(T))


# ---------------------------------------------------------------------------
# finite zeta forms

class ZetaFactor(NamedTuple):
    """zeta(u*s - l)^gamma."""
    u: int
    l: int
    gamma: int

    def sort_key(self):
        return (self.u, -self.l)

    def arg_str(self) -> str:
        us = "s" if self.u == 1 else "%ds" % self.u
        if self.l == 0:
            return us
        return "%s%+d" % (us, -self.l) if self.l < 0 else "%s-%d" % (us, self.l)

    def to_json(self) -> dict:
        return {"u": self.u, "l": self.l, "gamma": self.gamma}


def _q_terms(xp: XPoly) -> list[list[int]]:
    """The terms [c, j], c q^(-js), of a polynomial over Z in x = q^-s."""
    return [[c.constant_value(), j] for j, c in enumerate(xp.coeffs)
            if not c.is_zero()]


def _q_str(q: int, xp: XPoly) -> str:
    """The polynomial over Z in x = q^-s as text, in parentheses."""
    parts = []
    for c, j in _q_terms(xp):
        if j == 0:
            t = str(abs(c))
        else:
            base = "%d^(-s)" % q**j
            t = base if abs(c) == 1 else "%d*%s" % (abs(c), base)
        parts.append(("- " if c < 0 else ("+ " if parts else "")) + t)
    return "(%s)" % " ".join(parts)


class ZetaForm(Record):
    """Finite product of zeta factors times local corrections {q: num/den},
    each a reduced Bell series over Z in x = q^-s, in increasing q."""
    __slots__ = ("zeta_factors", "local")

    def __init__(self, zeta_factors: Iterable[ZetaFactor],
                 local: dict[int, BellRational] | None = None):
        self.zeta_factors = _merge(zeta_factors, ZetaFactor)
        self.local = dict(sorted((local or {}).items()))

    def __str__(self) -> str:
        num = [z for z in self.zeta_factors if z.gamma > 0]
        den = [z for z in self.zeta_factors if z.gamma < 0]

        def side(fs, flip):
            parts = []
            for z in fs:
                g = -z.gamma if flip else z.gamma
                t = "zeta(%s)" % z.arg_str()
                if g != 1:
                    t += "^%d" % g
                parts.append(t)
            return "*".join(parts)

        s = side(num, False) or "1"
        if len(den) > 1:
            s += "/(%s)" % side(den, True)
        elif den:
            s += "/" + side(den, True)
        for q, b in self.local.items():
            s += " * " + _q_str(q, b.num)
            if not b.den.is_one():
                s += "/" + _q_str(q, b.den)
            s += " [p=%d]" % q
        return s

    def to_json(self) -> dict:
        local = []
        for q, b in self.local.items():
            d = {"prime": q, "poly": _q_terms(b.num)}
            if not b.den.is_one():
                d["den_poly"] = _q_terms(b.den)
            local.append(d)
        return {"zeta": [z.to_json() for z in self.zeta_factors],
                "local": local}


INFINITE = "infinite"
# the verdict where no rational Bell series was found, at the generic
# prime or at an exceptional one: neither a form nor a proof of none
UNKNOWN = "unknown"


def _zeta_bell(zs: Iterable[tuple[int, int, int]]) -> tuple[XPoly, XPoly]:
    """The Bell series of the factors zeta(us - l)^gamma, (u, l, gamma),
    as its numerator and denominator: prod (1 - p^l x^u)^(-gamma)."""
    fs = [EulerFactor(1, l, u, -g) for u, l, g in zs]
    return (_expand([f for f in fs if f.gamma > 0]),
            _expand([f for f in fs if f.gamma < 0]))


@cache
def _peel_caps(D: int) -> tuple[int, Fraction]:
    """The order cap max m k and the ratio max psi(m)/phi(m), both over
    phi(m) k <= D: the bounds on the binomials of every irreducible
    Phi_m(p^a x^b) of x-degree at most D (see finite_zeta_form).  As
    phi(m) >= sqrt(m/2), only m <= 2 D^2 can qualify; phi and psi come
    from one pass over the primes of the shared sieve."""
    M = 2 * D * D
    phi, psi = list(range(M + 1)), list(range(M + 1))
    for q in sequences._SIEVE.primes(M):
        for k in range(q, M + 1, q):
            phi[k] -= phi[k] // q
            psi[k] += psi[k] // q
    ms = [m for m in range(1, M + 1) if phi[m] <= D]
    return (max(m * (D // phi[m]) for m in ms),
            max(Fraction(psi[m], phi[m]) for m in ms))


def finite_zeta_form(f):
    """Finite zeta-product form of a function, or the string "infinite",
    or "unknown" where it has no known rational Bell series.

    The generic Bell series B is split exactly (BellRational.split): every
    binomial 1 - S p^l x^u dividing num or den is a zeta factor or a
    ratio of two (zeta_factors_from_euler).  Only a rest N/D that no
    binomial divides is peeled, in the zeta basis S = +1, and the product
    found is checked exactly against it.  The peel's caps are sound, so
    a negative verdict is a proof.  Every irreducible factor of
    1 - p^l x^u over Q(p) is Phi_m(p^a x^b) with gcd(a, b) = 1 (Capelli),
    of x-degree phi(m) b, and Phi_m(y) = prod_{d|m} (1 - y^d)^mu(m/d) has
    binomials of order at most m b and weight sum |gamma| u = psi(m) b.
    So if N/D is a finite product, with D' = max(deg N, deg D), its
    binomials have order at most max m k over phi(m) k <= D', and its
    weight is at most (deg N + deg D) max psi(m)/phi(m) over
    phi(m) <= D' (_peel_caps); the peel reads to that order and gives
    up past that weight.  Per-prime exceptional factors are carried
    through as local rational corrections in q^-s; one equal to 1 is
    left out.
    """
    func = f if isinstance(f, MultiplicativeFunction) else None
    b = f if func is None else func.bell
    if b is None:
        return UNKNOWN
    split, rest = b.split
    if rest is not None:
        n, d = rest.num.degree(), rest.den.degree()
        order, ratio = _peel_caps(max(n, d))
        peeled = _peel(_log_series(rest, order), signed=False,
                       weight_cap=(n + d) * ratio)
        if peeled is None:
            return INFINITE
        # exact: rest == num/den, the peeled factors' product
        if (rest.num * _expand([f for f in peeled if f.gamma < 0])
                != rest.den * _expand([f for f in peeled if f.gamma > 0])):
            return INFINITE
        split = split + peeled

    local = {}
    if func is not None:
        for q in func.exceptional_primes:
            lb = func.local_bell(q)
            if lb is None:
                return UNKNOWN
            gb = b.bind_prime(q)
            r = _reduce_product(lb.num * gb.den, lb.den * gb.num)
            if not (r.num.is_one() and r.den.is_one()):
                local[q] = r
    return ZetaForm(zeta_factors_from_euler(split), local)


def zeta_factors_from_euler(efl: Iterable[EulerFactor]) -> list[ZetaFactor]:
    """Convert Euler factors (an EulerFactorList or any iterable) to zeta
    factors, merged.

    (1 - p^(l-us))^g over all p is zeta^(-g)(us-l); with a plus sign it
    is zeta^g(us-l)/zeta^g(2us-2l).
    """
    zs = []
    for f in efl:
        zs.append(ZetaFactor(f.u, f.l, -f.S * f.gamma))
        if f.S < 0:
            zs.append(ZetaFactor(2 * f.u, 2 * f.l, -f.gamma))
    return _merge(zs, ZetaFactor)


# ---------------------------------------------------------------------------
# convergence and Dirichlet coefficients

def abscissa(factors: Iterable) -> Fraction:
    """Region of convergence s > max (l+1)/u of a product of Euler or zeta
    factors; 0 for the empty product, which converges everywhere."""
    return max((Fraction(f.l + 1, f.u) for f in factors), default=Fraction(0))


def _mul_local(acc: list[int], p: int, cs: Iterable[int]) -> None:
    """Multiply a stream by the Euler factor 1 + sum_j cs[j-1] p^(-js),
    in place: a(p^j m) gains cs[j-1] a(m).  cs is read lazily, only while
    p^j <= N; a(m) is read for j = 1 before the first write and for
    j >= 2 from a copy of the entries m <= N/p^2 taken before it.
    """
    N = len(acc) - 1
    old = acc[:N // (p * p) + 1]
    q, cs = p, iter(cs)
    while q <= N:
        c = next(cs)
        if c:
            src = acc if q == p else old
            acc[q::q] = [a + c * b for a, b in zip(acc[q::q], src[1:N // q + 1])]
        q *= p


def zeta_form_to_coeffs(zf: ZetaForm, N: int) -> list[int]:
    """First N Dirichlet coefficients of a finite zeta form.

    The zeta factors multiply to one Bell series num/den over Z[p]
    (_zeta_bell), expanded once by series_div to x^J with 2^J > N.  At
    each prime p with p^j0 <= N, x^j0 its first term past 1, it is one
    Euler factor whose coefficients are evaluated at p only while
    p^j <= N; each local factor applies the same way at its prime.  Only
    the primes come from the shared sieve, so the result stays
    independent of terms().  As there, N < 0 raises SieveLimitError.
    """
    if N < 0:
        raise SieveLimitError("term count %d is negative" % N)
    if N == 0:
        return []
    acc = [0] * (N + 1)
    acc[1] = 1
    J = N.bit_length()
    num_z, den_z = _zeta_bell(zf.zeta_factors)
    B = series_div(num_z.coeffs, den_z.coeffs, J)[1:]
    j0 = next((j for j, c in enumerate(B, 1) if not c.is_zero()), J + 1)
    for p in sequences._SIEVE.primes(N):
        if p ** j0 > N:
            break
        _mul_local(acc, p, map(PrimePoly.evaluate, B, repeat(p)))
    for q, b in zf.local.items():
        _mul_local(acc, q, map(PrimePoly.constant_value, b.series(J)[1:]))
    return acc[1:]
