"""Exact polynomial arithmetic underlying Bell series.

Two layers: PrimePoly is an integer polynomial in a formal prime p,
used for values of multiplicative functions at prime powers.  XPoly is
a polynomial in x (standing for p^-s) whose coefficients are PrimePolys.
Truncated power series in x are plain lists of PrimePoly; series_div is
the one expansion of a rational function num/den into such a series,
and XPoly.divide, through it, the one exact division of XPolys.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .errors import MasterEquationError, SeriesWindowError


# Horner stages chained before one list is built: nested maps recurse in
# C, and degrees of tens of thousands, in p or in x, are reachable (a(p) =
# p^122880 of power(30)^4096, dens of convolutions)
_STAGES = 512


class PrimePoly:
    """Integer polynomial in the formal prime p, kept sparse.

    Immutable by convention: no method mutates self.  Zero coefficients
    are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for exp, v in coeffs.items():
                if v:
                    if exp < 0:
                        raise MasterEquationError("negative exponent of p: %d" % exp)
                    c[exp] = v
        self._c = c

    @classmethod
    def const(cls, n: int) -> "PrimePoly":
        return cls({0: n})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "PrimePoly":
        return cls({exp: coeff})

    zero: "PrimePoly"
    one: "PrimePoly"

    def items(self):
        return self._c.items()

    def terms_desc(self) -> list[tuple[int, int]]:
        return sorted(self._c.items(), reverse=True)

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def is_constant(self) -> bool:
        return not self._c or set(self._c) == {0}

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self._c.get(0, 0)

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return max(self._c) if self._c else -1

    def __add__(self, other: "PrimePoly") -> "PrimePoly":
        c = dict(self._c)
        for e, v in other._c.items():
            r = c.get(e, 0) + v
            if r:
                c[e] = r
            else:
                c.pop(e, None)
        out = PrimePoly.__new__(PrimePoly)
        out._c = c
        return out

    def __neg__(self) -> "PrimePoly":
        out = PrimePoly.__new__(PrimePoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "PrimePoly") -> "PrimePoly":
        return self + (-other)

    def __mul__(self, other: "PrimePoly") -> "PrimePoly":
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                r = c.get(e, 0) + v1 * v2
                if r:
                    c[e] = r
                else:
                    c.pop(e, None)
        out = PrimePoly.__new__(PrimePoly)
        out._c = c
        return out

    def scale(self, n: int) -> "PrimePoly":
        if n == 0:
            return PrimePoly.zero
        out = PrimePoly.__new__(PrimePoly)
        out._c = {e: v * n for e, v in self._c.items()}
        return out

    def shift_p(self, k: int) -> "PrimePoly":
        """Multiply by p^k.  Negative k requires exact divisibility."""
        if k < 0 and any(e + k < 0 for e in self._c):
            raise MasterEquationError("not divisible by p^%d: %s" % (-k, self))
        out = PrimePoly.__new__(PrimePoly)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

    def pack(self, k: int) -> int:
        """The value at p = 2^k, by shifts (Kronecker substitution)."""
        return sum(v << (e * k) for e, v in self._c.items())

    @staticmethod
    def unpack(v: int, k: int) -> "PrimePoly":
        """The PrimePoly with value v at p = 2^k, k >= 2, and coefficients
        in [-2^(k-1), 2^(k-1)): the balanced base-2^k digits of v."""
        half = 1 << (k - 1)
        if v.bit_length() <= 64 * k:
            digits, e = {}, 0
            while v:
                r = ((v + half) & ((1 << k) - 1)) - half
                digits[e] = r
                v, e = (v - r) >> k, e + 1
            return PrimePoly(digits)
        # past 64 digits, one pass over the binary string of v plus half
        # in every digit, where shifting v per digit is quadratic
        n = v.bit_length() // k + 3
        s = format(v + int(("1" + "0" * (k - 1)) * n, 2), "b")
        return PrimePoly({i: int(s[(n - 1 - i) * k:(n - i) * k], 2) - half
                          for i in range(n)})

    def __pow__(self, j: int) -> "PrimePoly":
        """self^j, j >= 1, by one power of its value at p = 2^k: every
        coefficient is at most l1(self)^j < 2^(k-1)."""
        if len(self._c) <= 1:
            return PrimePoly({e * j: v ** j for e, v in self._c.items()})
        k = j * sum(map(abs, self._c.values())).bit_length() + 2
        return PrimePoly.unpack(self.pack(k) ** j, k)

    def evaluate(self, p: int) -> int:
        acc = 0
        for e, v in self._c.items():
            acc += v * p**e
        return acc

    def evaluate_block(self, ps: Sequence[int]) -> Iterator[int]:
        """The exact values at every p in ps, by Horner in p in C-level
        maps: the integers map(self.evaluate, ps) gives, without a Python
        call per point.  Each stage steps from one stored power of p to
        the next, times p or, across a gap of g powers, times p^g by one
        pow per point; a list is built every _STAGES stages.  With a
        leading coefficient 1, Horner starts from the powers themselves,
        as 1 * p^g is p^g."""
        c = self._c
        es = sorted(c, reverse=True)
        if not es or es[-1]:
            es.append(0)
        acc = repeat(c.get(es[0], 0), len(ps))
        for n, (hi, e) in enumerate(zip(es, es[1:]), 1):
            step = iter(ps) if hi - e == 1 else map(pow, ps, repeat(hi - e))
            acc = step if n == 1 and c[hi] == 1 else map(mul, acc, step)
            if e in c:
                acc = map(add, acc, repeat(c[e]))
            if not n % _STAGES:
                acc = list(acc)
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimePoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, v in self.terms_desc():
            if e == 0:
                t = str(abs(v))
            else:
                base = "p" if e == 1 else "p^%d" % e
                t = base if abs(v) == 1 else "%d%s" % (abs(v), base)
            parts.append(("-" if v < 0 else ("+" if parts else "")) + t)
        return "".join(parts)

    def __repr__(self) -> str:
        return "PrimePoly(%s)" % self


PrimePoly.zero = PrimePoly()
PrimePoly.one = PrimePoly.const(1)


class XPoly:
    """Polynomial in x with PrimePoly coefficients, dense list storage."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[PrimePoly]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs

    @classmethod
    def from_ints(cls, ints: Iterable[int]) -> "XPoly":
        return cls([PrimePoly.const(n) for n in ints])

    @classmethod
    def binomial(cls, S: int, l: int, u: int) -> "XPoly":
        """The binomial 1 - S p^l x^u."""
        cs = [PrimePoly.zero] * (u + 1)
        cs[0] = PrimePoly.one
        cs[u] = PrimePoly.monomial(l, -S)
        return cls(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def coeff(self, i: int) -> PrimePoly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else PrimePoly.zero

    def __mul__(self, other: "XPoly") -> "XPoly":
        if not self.coeffs or not other.coeffs:
            return XPoly([])
        out = [PrimePoly.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return XPoly(out)

    def __add__(self, other: "XPoly") -> "XPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return XPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "XPoly") -> "XPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return XPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, XPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def evaluate(self, p: int, x: Fraction | float) -> Fraction | float:
        return self.evaluate_block([p], [x])[0]

    def evaluate_block(self, ps: Sequence[int], xs: Sequence) -> list:
        """Values at the points (ps[i], xs[i]), the xs all floats or none:
        Horner in x in C-level maps, from the top coefficient's values at
        ps, each stage times xs plus the next coefficient's, a list built
        only every _STAGES stages and at the end.  A float operation
        converts an int operand as float() does, so at float xs a constant
        coefficient enters as one float(c) for the whole block, and the
        result has the bits of Horner from 0.0 over the exact integer
        values; an empty block converts nothing.  With Fraction xs every
        value stays exact, and a constant XPoly gives its integers."""
        if not self.coeffs:
            return [0] * len(ps)
        at_floats = len(self.coeffs) > 1 and bool(xs) and \
            isinstance(xs[0], float)

        def values(c: PrimePoly):
            if at_floats and c.is_constant():
                return repeat(float(c.constant_value()), len(ps))
            return c.evaluate_block(ps)
        cs = reversed(self.coeffs)
        acc = values(next(cs))
        for i, c in enumerate(cs, 1):
            acc = map(add, map(mul, acc, xs), values(c))
            if not i % _STAGES:
                acc = list(acc)
        return list(acc)

    def divide(self, other: "XPoly") -> "XPoly | None":
        """Exact division by other, other[0] = 1; None if it does not
        divide.  The series self/other to x^n, n = deg self, is a
        polynomial of degree n - deg other exactly when other divides."""
        n, d = self.degree(), other.degree()
        if n < d:
            return None
        q = series_div(self.coeffs, other.coeffs, n)
        if any(not c.is_zero() for c in q[n - d + 1:]):
            return None
        return XPoly(q[: n - d + 1])

    def pack(self, k: int, K: int) -> int:
        """The value at p = 2^k, x = 2^K."""
        return sum(c.pack(k) << (K * i) for i, c in enumerate(self.coeffs))

    def substitute_x_pk(self, k: int) -> "XPoly":
        """x -> p^k x.  Negative k requires divisibility of each coefficient."""
        return XPoly([c.shift_p(k * e) for e, c in enumerate(self.coeffs)])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if e == 0:
                parts.append(str(c))
                continue
            xs = "x" if e == 1 else "x^%d" % e
            if c.is_one():
                t = xs
            elif (-c).is_one():
                t = "-" + xs
            elif c.is_monomial() or (c.is_constant()):
                t = "%s*%s" % (c, xs)
            else:
                t = "(%s)*%s" % (c, xs)
            if parts and not t.startswith("-"):
                parts.append("+ " + t)
            elif parts:
                parts.append("- " + t[1:])
            else:
                parts.append(t)
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return "XPoly(%s)" % self


# ---------------------------------------------------------------------------

def series_div(num: Sequence[PrimePoly], den: Sequence[PrimePoly],
               K: int, out: list[PrimePoly] | None = None) -> list[PrimePoly]:
    """num/den to order K, for a den with den[0] = 1; given out, the
    series so far, it is extended in place from its length.

    The coefficients obey the linear recurrence of den (Stanley, EC1,
    Thm 4.1.1): B_n = num_n - sum_{j=1..deg den} den_j B_(n-j), which is
    O(K deg den) products.  Raises SeriesWindowError unless den[0] = 1.
    """
    if not den or not den[0].is_one():
        raise SeriesWindowError("series division needs a denominator starting at 1")
    terms = [(j, c) for j, c in enumerate(den[1:K + 1], 1) if not c.is_zero()]
    out = [] if out is None else out
    for n in range(len(out), K + 1):
        acc = dict(num[n]._c) if n < len(num) else {}
        for j, c in terms:
            if j > n:
                break
            for e1, v1 in c._c.items():
                for e2, v2 in out[n - j]._c.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) - v1 * v2
        out.append(PrimePoly(acc))
    return out
