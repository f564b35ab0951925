"""Factorisation of Dirichlet series into zeta factors and Euler products.

A Bell series either factors exactly through binomials 1 - S p^l x^u
(giving a finite product of Riemann zeta factors via
prod_p (1 - p^(l-us))^g = zeta^(-g)(us - l)) or is peeled order by
order into a truncated infinite product of such binomials.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import sequences
from .bell import BellRational, MultiplicativeFunction, _reduce_product
from .errors import DegreeBoundError
from .polys import PrimePoly, XPoly, series_inv, series_mul


@dataclass(frozen=True)
class EulerFactor:
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


@dataclass
class EulerFactorList:
    """Canonically ordered factor list; truncated_at None means exact."""
    factors: list[EulerFactor]
    truncated_at: int | None = None
    residual_ok: bool = True

    def __post_init__(self):
        self.factors = _merge_factors(self.factors)

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

    def gammas_at(self, u: int) -> dict[tuple[int, int], int]:
        return {(f.S, f.l): f.gamma for f in self.factors if f.u == u}

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors],
                "truncated_at": self.truncated_at}


def _merge_factors(factors: Sequence[EulerFactor]) -> list[EulerFactor]:
    acc: dict[tuple[int, int, int], int] = {}
    for f in factors:
        key = (f.S, f.l, f.u)
        acc[key] = acc.get(key, 0) + f.gamma
    out = [EulerFactor(S, l, u, g) for (S, l, u), g in acc.items() if g]
    out.sort(key=EulerFactor.sort_key)
    return out


def _binomial_power(S: int, l: int, u: int, gamma: int, K: int) -> list[PrimePoly]:
    """Series of (1 - S p^l x^u)^gamma to order K, for any integer gamma."""
    out = [PrimePoly.zero] * (K + 1)
    out[0] = PrimePoly.one
    c = 1
    for j in range(1, K // u + 1):
        # generalized binomial C(gamma, j) (-S)^j; the division is exact
        c = c * -S * (gamma - j + 1) // j
        out[u * j] = PrimePoly.monomial(l * j, c)
    return out


def _to_series(b, K: int) -> list[PrimePoly]:
    if isinstance(b, BellRational):
        return b.series(K)
    if isinstance(b, XPoly):
        return b.series(K)
    out = list(b[: K + 1])
    out += [PrimePoly.zero] * (K + 1 - len(out))
    return out


def euler_expand(b, U: int) -> EulerFactorList:
    """Peel a series into binomial factors order by order up to x^U.

    Each x^u coefficient of the residual is read as a sum of monomials
    c p^l; positive c emits (1 + p^l x^u)^c, negative c emits
    (1 - p^l x^u)^(-c), and the residual is divided by what was emitted.
    """
    R = _to_series(b, U)
    if not R or not R[0].is_one():
        raise ValueError("Euler expansion needs a series starting at 1")
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
            R = series_mul(R, _binomial_power(f.S, f.l, f.u, -f.gamma, U), U)
    ok = R[0].is_one() and all(R[i].is_zero() for i in range(1, U + 1))
    return EulerFactorList(factors, truncated_at=U, residual_ok=ok)


def expand_factor_list(efl: EulerFactorList, K: int) -> list[PrimePoly]:
    """Multiply a factor list back out as a series (round-trip check)."""
    out = [PrimePoly.one] + [PrimePoly.zero] * K
    for f in efl.factors:
        out = series_mul(out, _binomial_power(f.S, f.l, f.u, f.gamma, K), K)
    return out


def _partial_binomials(xp: XPoly) -> tuple[list[tuple[int, int, int]], XPoly]:
    """Strip every binomial 1 - S p^l x^u that divides xp exactly.

    Candidates are read off the lowest-order non-constant term; the
    remainder is returned unfactored.
    """
    found: list[tuple[int, int, int]] = []
    while xp.degree() >= 1:
        u = next((i for i in range(1, xp.degree() + 1)
                  if not xp.coeff(i).is_zero()), None)
        if u is None:
            break
        progressed = False
        for l, c in sorted(xp.coeff(u).items(), key=lambda t: -t[0]):
            S = -1 if c > 0 else +1
            q = xp.divide_binomial(S, l, u)
            if q is not None:
                found.append((S, l, u))
                xp = q
                progressed = True
                break
        if not progressed:
            break
    return found, xp


def factor_bell(f, U: int = 8) -> EulerFactorList:
    """Full factorisation of a function's Dirichlet series over primes.

    Exactly dividing binomials of the rational Bell series are split
    off (numerator with exponent +1, denominator with -1) and the
    remaining part is peeled to order U.  Without a rational Bell
    series the raw master-equation series is peeled.
    """
    if isinstance(f, MultiplicativeFunction):
        b = f.bell
        if b is None:
            return euler_expand(f.series(U), U)
    elif isinstance(f, BellRational):
        b = f
    else:
        return euler_expand(f, U)

    num_facs, num_res = _partial_binomials(b.num)
    den_facs, den_res = _partial_binomials(b.den)
    factors = [EulerFactor(S, l, u, +1) for S, l, u in num_facs]
    factors += [EulerFactor(S, l, u, -1) for S, l, u in den_facs]
    if num_res.is_one() and den_res.is_one():
        return EulerFactorList(factors, truncated_at=None)
    peel = euler_expand(BellRational(num_res, den_res), U)
    return EulerFactorList(factors + peel.factors, truncated_at=U,
                           residual_ok=peel.residual_ok)


# ---------------------------------------------------------------------------
# finite zeta forms

@dataclass(frozen=True)
class ZetaFactor:
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


@dataclass
class LocalFactor:
    """Rational correction in x = q^-s at one exceptional prime."""
    prime: int
    num: list[int]
    den: list[int] = field(default_factory=lambda: [1])

    def is_polynomial(self) -> bool:
        return self.den == [1]

    def bell(self) -> BellRational:
        """num/den as a Bell series with integer coefficients."""
        return BellRational(XPoly.from_ints(self.num), XPoly.from_ints(self.den))

    def series(self, K: int) -> list[int]:
        return [c.constant_value() for c in self.bell().series(K)]

    def _poly_str(self, coeffs: list[int]) -> str:
        parts = []
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            if j == 0:
                t = str(abs(c))
            else:
                base = "%d^(-s)" % self.prime**j
                t = base if abs(c) == 1 else "%d*%s" % (abs(c), base)
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + t)
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        s = "(%s)" % self._poly_str(self.num)
        if not self.is_polynomial():
            s += "/(%s)" % self._poly_str(self.den)
        return "%s [p=%d]" % (s, self.prime)

    def to_json(self) -> dict:
        d = {"prime": self.prime,
             "poly": [[c, j] for j, c in enumerate(self.num) if c]}
        if not self.is_polynomial():
            d["den_poly"] = [[c, j] for j, c in enumerate(self.den) if c]
        return d


@dataclass
class ZetaForm:
    """Finite product of zeta factors times per-prime local corrections."""
    zeta_factors: list[ZetaFactor]
    local: list[LocalFactor] = field(default_factory=list)

    def __post_init__(self):
        self.zeta_factors = _merge_zeta(self.zeta_factors)
        self.local = sorted(self.local, key=lambda lf: lf.prime)

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
        for lf in self.local:
            s += " * %s" % lf
        return s

    def to_json(self) -> dict:
        return {"zeta": [z.to_json() for z in self.zeta_factors],
                "local": [lf.to_json() for lf in self.local]}


INFINITE = "infinite"


def _merge_zeta(factors: Sequence[ZetaFactor]) -> list[ZetaFactor]:
    acc: dict[tuple[int, int], int] = {}
    for z in factors:
        key = (z.u, z.l)
        acc[key] = acc.get(key, 0) + z.gamma
    out = [ZetaFactor(u, l, g) for (u, l), g in acc.items() if g]
    out.sort(key=ZetaFactor.sort_key)
    return out


def _log_exponents(b: BellRational, u_cap: int,
                   weight_cap: int) -> list[ZetaFactor] | None:
    """Exponents gamma(u,l) with B = prod (1 - p^l x^u)^(-gamma), if finite.

    Works on T(x) = x B'(x)/B(x), whose x^n coefficient is
    sum_{u|n} gamma(u,l) u p^(l n/u); exponents are read off smallest
    u first and must be integers.  Infinite expansions have exponents
    whose total weight sum |gamma| u grows without bound, so the scan
    gives up once weight_cap is passed; the caller verifies exactness.
    """
    K = u_cap
    bs = b.series(K)
    xdb = [bs[n].scale(n) for n in range(K + 1)]
    T = series_mul(xdb, series_inv(bs, K), K)
    gammas: dict[tuple[int, int], int] = {}
    weight = 0
    for n in range(1, K + 1):
        resid = T[n]
        for (u, l), g in gammas.items():
            if n % u == 0:
                resid = resid - PrimePoly.monomial(l * (n // u), g * u)
        for l, c in resid.items():
            if c % n:
                return None
            gammas[(n, l)] = c // n
            weight += abs(c // n) * n
            if weight > weight_cap:
                return None
    return [ZetaFactor(u, l, g) for (u, l), g in gammas.items() if g]


def finite_zeta_form(f, u_cap: int | None = None):
    """Finite zeta-product form of a function, or the string "infinite".

    The generic Bell series must be expressible as a finite product
    prod_zeta; per-prime exceptional factors are carried through as
    local rational corrections in q^-s.
    """
    if isinstance(f, MultiplicativeFunction):
        b = f.bell
        func = f
    else:
        b = f
        func = None
    if b is None:
        return INFINITE
    if u_cap is None:
        u_cap = max(16, 2 * (b.num.degree() + b.den.degree()))
    weight_cap = max(64, 4 * (b.num.degree() + b.den.degree()))
    factors = _log_exponents(b, u_cap, weight_cap)
    if factors is None:
        return INFINITE
    # exact verification: b.num * prod_{g>0} == b.den * prod_{g<0}
    lhs, rhs = b.num, b.den
    for z in factors:
        piece = XPoly.binomial(+1, z.l, z.u)
        if z.gamma > 0:
            for _ in range(z.gamma):
                lhs = lhs * piece
        else:
            for _ in range(-z.gamma):
                rhs = rhs * piece
    if lhs != rhs:
        return INFINITE

    local: list[LocalFactor] = []
    if func is not None:
        for q in func.exceptional_primes:
            lb = func.local_bell(q)
            if lb is None:
                return INFINITE
            gb = b.bind_prime(q)
            r = _reduce_product(lb.num * gb.den, lb.den * gb.num)
            num, den = ([c.constant_value() for c in xp.coeffs]
                        for xp in (r.num, r.den))
            local.append(LocalFactor(q, num, den))
    return ZetaForm(factors, local)


def zeta_factors_from_euler(efl: EulerFactorList) -> list[ZetaFactor]:
    """Convert Euler factors to zeta factors.

    (1 - p^(l-us))^g over all p is zeta^(-g)(us-l); with a plus sign it
    is zeta^g(us-l)/zeta^g(2us-2l).
    """
    out: list[ZetaFactor] = []
    for f in efl.factors:
        if f.S > 0:
            out.append(ZetaFactor(f.u, f.l, -f.gamma))
        else:
            out.append(ZetaFactor(f.u, f.l, f.gamma))
            out.append(ZetaFactor(2 * f.u, 2 * f.l, -f.gamma))
    return _merge_zeta(out)


# ---------------------------------------------------------------------------
# convergence and Dirichlet coefficients

@dataclass
class ConvergenceInfo:
    """Abscissa bound max (l+1)/u; empty products converge everywhere."""
    abscissa: Fraction
    from_empty_product: bool = False

    def __str__(self) -> str:
        if self.from_empty_product:
            return "0 (empty product)"
        return str(self.abscissa)


def abscissa(obj) -> ConvergenceInfo:
    """Region of convergence s > max (l+1)/u of a factored form."""
    if isinstance(obj, EulerFactorList):
        pairs = [(f.l, f.u) for f in obj.factors]
    elif isinstance(obj, ZetaForm):
        pairs = [(z.l, z.u) for z in obj.zeta_factors]
    else:
        pairs = [(z.l, z.u) for z in obj]
    if not pairs:
        return ConvergenceInfo(Fraction(0), from_empty_product=True)
    return ConvergenceInfo(max(Fraction(l + 1, u) for l, u in pairs))


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


def _mul_local(acc: list[int], p: int, cs: Sequence[int]) -> None:
    """Multiply a stream by the Euler factor sum_j cs[j] p^(-js), in place.

    cs[0] must be 1; a(p^j m) gains cs[j] a(m), read from a copy of the
    entries the factor reads.
    """
    N = len(acc) - 1
    old = acc[:N // p + 1]
    q = p
    for c in cs[1:]:
        if q > N:
            break
        if c:
            acc[q::q] = [a + c * b for a, b in zip(acc[q::q], old[1:N // q + 1])]
        q *= p


def zeta_form_to_coeffs(zf: ZetaForm, N: int) -> list[int]:
    """First N Dirichlet coefficients of a finite zeta form.

    zeta(us - l)^gamma with gamma > 0 multiplies in as a whole stream;
    with gamma < 0 it is the Euler factor (1 - p^l p^(-us))^(-gamma) at
    each prime with p^u <= N, applied in place like the local factors.
    Only the primes come from the shared sieve, so the result stays
    independent of terms().
    """
    acc = [0] * (N + 1)
    acc[1] = 1
    for z in zf.zeta_factors:
        if z.gamma > 0:
            base = _zeta_base_stream(z.u, z.l, N)
            for _ in range(z.gamma):
                acc = dirichlet_mul_streams(acc, base)
            continue
        for p in sequences._SIEVE.primes(N):
            if p ** z.u > N:
                break
            for _ in range(-z.gamma):
                _mul_local(acc, p, [1] + [0] * (z.u - 1) + [-p ** z.l])
    for lf in zf.local:
        _mul_local(acc, lf.prime, lf.series(N.bit_length()))
    return acc[1:]
