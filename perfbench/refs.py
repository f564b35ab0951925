"""Reference values computed without the engine under test.

Atoms are evaluated straight from their definitions (divisor sums,
gcds, factorisations by trial division), composites from the meaning of
each combinator at the sequence level, and numeric values with mpmath.
Nothing here imports ``dgf``: the checks must stay valid while the
package is rewritten underneath them.

Expressions are small syntax trees of tuples:
``("atom", name, args)``, ``("conv", a, b)``, ``("uconv", a, b)``,
``("mul", a, b)``, ``("pow", a, j)``, ``("inv", a)``, ``("shift", a, k)``.
"""
from __future__ import annotations

import math
import re
from functools import lru_cache

import mpmath

# ---------------------------------------------------------------------------
# elementary number theory by trial division


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == ((n, 1),)


def _largest_tpow_divisor(n: int, t: int) -> int:
    return max(d for d in divisors(n) if round(d ** (1.0 / t)) ** t == d)


@lru_cache(maxsize=1 << 16)
def _tau(k: int, n: int) -> int:
    """Ordered factorisations of n into k factors."""
    if k == 1:
        return 1
    return sum(_tau(k - 1, d) for d in divisors(n))


def _unitary(n: int) -> list[int]:
    return [d for d in divisors(n) if math.gcd(d, n // d) == 1]


# Each atom by its defining formula, not by a prime-power rule.
ATOM_DEFS = {
    "one": lambda n: 1,
    "id": lambda n: n,
    "power": lambda n, k: n**k,
    "mu": mobius,
    "liouville": lambda n: (-1) ** sum(e for _, e in factorize(n)),
    "mu_star": lambda n: (-1) ** len(factorize(n)),
    "phi": lambda n: sum(mobius(d) * (n // d) for d in divisors(n)),
    "jordan": lambda n, k: sum(mobius(d) * (n // d) ** k for d in divisors(n)),
    "dedekind": lambda n: sum(mobius(d) ** 2 * (n // d) for d in divisors(n)),
    "psi_k": lambda n, k: sum(mobius(d) ** 2 * (n // d) ** k
                              for d in divisors(n)),
    "sigma": lambda n, k: sum(d**k for d in divisors(n)),
    "sigma_star": lambda n, k: sum(d**k for d in _unitary(n)),
    "tau": lambda n, k: _tau(k, n),
    "tau_star": lambda n, k: k ** len(factorize(n)),
    "core": lambda n, t: n // _largest_tpow_divisor(n, t),
    "xi": lambda n, t: int(all(e < t for _, e in factorize(n))),
    "rad": lambda n, t: math.prod(p ** min(e, t - 1) for p, e in factorize(n)),
    "phi_prime": lambda n: (sum(mobius(d) * (n // d) for d in divisors(n))
                            if mobius(n) else 0),
    "phi_star": lambda n: sum((-1) ** len(factorize(d)) * (n // d)
                              for d in _unitary(n)),
    "gcdc": lambda n, c: math.gcd(n, c),
    "lcmc": lambda n, c: n // math.gcd(n, c),
    "periodic4": lambda n, c1, c2: c1 if n % 4 == 0 else c2 if n % 2 == 0 else 1,
    "depleted": lambda n, q, k: 0 if n % q**k == 0 else 1,
    "ramanujan": lambda n, c: sum(mobius(n // d) * d
                                  for d in divisors(math.gcd(n, c))),
}


def atom_exceptional_primes(name: str, args: tuple) -> set[int]:
    """Primes where an atom departs from its generic prime-power rule."""
    if name in ("gcdc", "lcmc", "ramanujan"):
        return {p for p, _ in factorize(args[0])} if args[0] > 1 else set()
    if name == "periodic4":
        return {2}
    if name == "depleted":
        return {args[0]}
    return set()


# ---------------------------------------------------------------------------
# expression trees


def text(node) -> str:
    kind = node[0]
    if kind == "atom":
        _, name, args = node
        return name if not args else "%s(%s)" % (name, ",".join(map(str, args)))
    if kind == "conv":
        return "(%s <*> %s)" % (text(node[1]), text(node[2]))
    if kind == "uconv":
        return "(%s <+> %s)" % (text(node[1]), text(node[2]))
    if kind == "mul":
        return "(%s * %s)" % (text(node[1]), text(node[2]))
    if kind == "pow":
        return "%s^%d" % (text(node[1]), node[2])
    if kind == "inv":
        return "inv(%s)" % text(node[1])
    if kind == "shift":
        return "shift(%s, %d)" % (text(node[1]), node[2])
    raise ValueError("unknown node %r" % (kind,))


def subexpressions(node) -> list[str]:
    """Text of every subtree, atoms included."""
    out = [text(node)]
    if node[0] != "atom":
        for child in node[1:]:
            if isinstance(child, tuple):
                out += subexpressions(child)
    return out


def atoms(node) -> list[tuple]:
    if node[0] == "atom":
        return [node]
    return [a for child in node[1:] if isinstance(child, tuple)
            for a in atoms(child)]


def exceptional_primes(node) -> set[int]:
    out: set[int] = set()
    for _, name, args in atoms(node):
        out |= atom_exceptional_primes(name, args)
    return out


class Evaluator:
    """Definition-level a(n) of an expression, memoised per instance."""

    def __init__(self, node):
        self.node = node
        self._memo: dict[tuple[int, int], int] = {}

    def __call__(self, n: int) -> int:
        return self._value(self.node, n)

    def _value(self, node, n: int) -> int:
        key = (id(node), n)
        v = self._memo.get(key)
        if v is None:
            v = self._compute(node, n)
            self._memo[key] = v
        return v

    def _compute(self, node, n: int) -> int:
        kind = node[0]
        if kind == "atom":
            return ATOM_DEFS[node[1]](n, *node[2])
        if kind == "conv":
            return sum(self._value(node[1], d) * self._value(node[2], n // d)
                       for d in divisors(n))
        if kind == "uconv":
            return sum(self._value(node[1], d) * self._value(node[2], n // d)
                       for d in _unitary(n))
        if kind == "mul":
            return self._value(node[1], n) * self._value(node[2], n)
        if kind == "pow":
            return self._value(node[1], n) ** node[2]
        if kind == "inv":
            if n == 1:
                return 1
            return -sum(self._value(node[1], n // d) * self._value(node, d)
                        for d in divisors(n) if d < n)
        if kind == "shift":
            return n ** node[2] * self._value(node[1], n)
        raise ValueError("unknown node %r" % (kind,))


def check_primes(node, count: int = 3) -> list[int]:
    """The first `count` primes at which the generic rule applies."""
    skip = exceptional_primes(node)
    out = []
    p = 2
    while len(out) < count:
        if is_prime(p) and p not in skip:
            out.append(p)
        p += 1
    return out


# ---------------------------------------------------------------------------
# integer power series truncated at x^K


def ser_mul(a: list, b: list, K: int) -> list:
    out = [0] * (K + 1)
    for i, ai in enumerate(a[: K + 1]):
        if ai:
            for j, bj in enumerate(b[: K + 1 - i]):
                out[i + j] += ai * bj
    return out


def ser_div(num: list, den: list, K: int) -> list:
    """num/den with den[0] = 1, over whatever number type the lists hold."""
    if den[0] != 1:
        raise ValueError("denominator constant term must be 1")
    num = list(num[: K + 1]) + [0] * (K + 1 - len(num[: K + 1]))
    out = [0] * (K + 1)
    for n in range(K + 1):
        out[n] = num[n] - sum(den[j] * out[n - j]
                              for j in range(1, min(n, len(den) - 1) + 1))
    return out


def binomial_power(c: int, u: int, gamma: int, K: int) -> list:
    """Series of (1 - c x^u)^gamma, by the generalised binomial theorem."""
    out = [0] * (K + 1)
    for j in range(K // u + 1):
        if gamma >= 0:
            coeff = math.comb(gamma, j) * (-c) ** j
        else:
            coeff = math.comb(-gamma + j - 1, j) * c**j
        out[u * j] = coeff
    return out


def euler_series(factors: list[dict], p: int, K: int) -> list:
    """prod (1 - S p^l x^u)^gamma from to_json() factor dicts."""
    out = [1] + [0] * K
    for f in factors:
        out = ser_mul(out, binomial_power(f["S"] * p ** f["l"], f["u"],
                                          f["gamma"], K), K)
    return out


def zeta_series(zeta: list, p: int, K: int) -> list:
    """Local factor at p of prod zeta(u s - l)^gamma: prod (1 - p^l x^u)^-gamma."""
    out = [1] + [0] * K
    for u, l, g in zeta:
        out = ser_mul(out, binomial_power(p**l, u, -g, K), K)
    return out


def definition_series(ev: Evaluator, p: int, K: int) -> list:
    return [ev(p**e) for e in range(K + 1)]


# ---------------------------------------------------------------------------
# printed polynomials in p and x, as the command line writes them

_SAFE = re.compile(r"^[0-9px+\-*/^() ]*$")


class _Series:
    """Truncated series in x, just enough arithmetic to evaluate text."""

    def __init__(self, c, K):
        self.c = list(c) + [0] * (K + 1 - len(c))
        self.K = K

    def _lift(self, o):
        return o if isinstance(o, _Series) else _Series([o], self.K)

    def __add__(self, o):
        o = self._lift(o)
        return _Series([a + b for a, b in zip(self.c, o.c)], self.K)

    __radd__ = __add__

    def __neg__(self):
        return _Series([-a for a in self.c], self.K)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return _Series(ser_mul(self.c, o.c, self.K), self.K)

    __rmul__ = __mul__

    def __pow__(self, j):
        out = _Series([1], self.K)
        for _ in range(j):
            out = out * self
        return out

    def __truediv__(self, o):
        return _Series(ser_div(self.c, self._lift(o).c, self.K), self.K)

    def __rtruediv__(self, o):
        return self._lift(o) / self


def eval_printed(s: str, p: int, K: int) -> list[int]:
    """Series coefficients of a printed rational function of p and x."""
    if not _SAFE.match(s):
        raise ValueError("unexpected characters in %r" % s)
    expr = re.sub(r"(\d)(p|x|\()", r"\1*\2", s).replace("^", "**")
    v = eval(expr, {"__builtins__": {}}, {"p": p, "x": _Series([0, 1], K)})
    return v.c if isinstance(v, _Series) else [v] + [0] * K


_ZETA = re.compile(r"zeta\((\d*)s(?:([+-])(\d+))?\)(?:\^(\d+))?")


def parse_zeta_text(s: str) -> list[tuple[int, int, int]] | None:
    """(u, l, gamma) tuples of a printed zeta product, or None if infinite."""
    if s.strip() == "infinite":
        return None
    num, _, den = s.partition("/")
    out = []
    for part, sign in ((num, 1), (den, -1)):
        for u, pm, l, g in _ZETA.findall(part):
            lv = int(l) if l else 0
            out.append((int(u or 1), lv if pm == "-" else -lv,
                        sign * int(g or 1)))
    return sorted(out)


# ---------------------------------------------------------------------------
# numeric references

REF_DPS = 30


def _local_value(ev: Evaluator, q: int, s) -> mpmath.mpf:
    """sum_e a(q^e) q^(-es) straight from the definition."""
    x = mpmath.power(q, -s)
    acc, term_x, e = mpmath.mpf(1), mpmath.mpf(1), 1
    while e < 400:
        term_x *= x
        t = ev(q**e) * term_x
        acc += t
        if t != 0 and abs(t) < mpmath.mpf(10) ** -28 * abs(acc):
            break
        if t == 0 and e > 40:
            break
        e += 1
    return acc


def reference_value(node, zeta: list, s: float) -> float:
    """Value at s of sum a(n) n^-s for an atom with the given zeta form.

    `zeta` comes from the catalog's hand-written expected forms; at each
    exceptional prime the generic local factor is swapped for the one
    summed from the definition.
    """
    with mpmath.workdps(REF_DPS):
        s = mpmath.mpf(s)
        v = mpmath.mpf(1)
        for u, l, g in zeta:
            v *= mpmath.zeta(u * s - l) ** g
        ev = Evaluator(node)
        for q in sorted(exceptional_primes(node)):
            generic = mpmath.mpf(1)
            for u, l, g in zeta:
                generic *= (1 - mpmath.power(q, l - u * s)) ** (-g)
            v *= _local_value(ev, q, s) / generic
        return float(v)


def correct_digits(value: float, ref: float) -> float:
    if value == ref:
        return 16.0
    if ref == 0 or not math.isfinite(value):
        return 0.0
    return max(0.0, min(16.0, -math.log10(abs(value - ref) / abs(ref))))
