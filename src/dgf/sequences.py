"""Sequence terms from a prime-power rule, and b-file comparison.

One smallest-prime-factor table serves the whole runtime: term
generation, factorisation, and the primes of Euler products and of
zeta-form coefficients.
"""
from __future__ import annotations

import math
import operator
from array import array
from itertools import compress, islice
from pathlib import Path
from typing import Iterator, Sequence

from .bell import MultiplicativeFunction
from .errors import BFileError, SieveLimitError

MAX_SIEVE = 10**7


class FactorSieve:
    """Smallest-prime-factor table, grown on demand.

    Entry n > 1 holds the smallest prime factor of n, or 0 when n is prime.
    """

    def __init__(self):
        self._spf = array("i", [0, 0])

    @property
    def limit(self) -> int:
        return len(self._spf) - 1

    def ensure(self, n: int) -> None:
        if n <= self.limit:
            return
        if n > MAX_SIEVE:
            raise SieveLimitError("sieve limit is %d" % MAX_SIEVE)
        size = min(MAX_SIEVE, max(n, 2 * self.limit))
        small = list(self.primes(math.isqrt(size)))[1:]
        # 2 at every even entry, then the odd primes at their odd multiples,
        # largest first, so that the smallest one writes each entry last
        spf = array("i", [2, 0]) * (size // 2 + 1)
        del spf[size + 1:]
        spf[0] = spf[2] = 0
        for p in reversed(small):
            spf[p * p::2 * p] = \
                array("i", [p]) * len(range(p * p, size + 1, 2 * p))
        self._spf = spf

    def factor(self, n: int) -> list[tuple[int, int]]:
        if n < 1:
            raise ValueError("need n >= 1")
        self.ensure(n)
        spf = self._spf
        out = []
        while n > 1:
            p = spf[n] or n
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def primes(self, n: int) -> Iterator[int]:
        """Primes <= n in increasing order, read lazily off the table."""
        self.ensure(n)
        return compress(range(2, n + 1),
                        map(operator.not_, islice(self._spf, 2, n + 1)))


_SIEVE = FactorSieve()


def terms(f: MultiplicativeFunction, N: int, sieve: FactorSieve | None = None
          ) -> list[int]:
    """a(1), ..., a(N) in one multiplicative pass.

    Each n splits as m p^e with p its smallest prime factor; a(n) is
    a(m) a(p^e) read back from the output, so f.value runs only at prime
    powers, once each.
    """
    sv = sieve or _SIEVE
    sv.ensure(max(N, 1))
    spf, value = sv._spf, f.value
    out = [1] * N
    for n in range(2, N + 1):
        p = spf[n] or n
        q, m, e = p, n // p, 1
        while m % p == 0:
            q, m, e = q * p, m // p, e + 1
        out[n - 1] = out[m - 1] * out[q - 1] if m > 1 else value(p, e)
    return out


def compare_bfile(source, values: Sequence[int]) -> None:
    """Check sequence values against b-file lines ("n a(n)" per line).

    Comment lines start with '#'; indices must be consecutive.  Raises
    BFileError with a line number on any malformed or mismatched entry.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    else:
        lines = list(source)
    expect = None
    seen = 0
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError("expected 'n value'", ln)
        try:
            n, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError("non-integer entry", ln) from None
        if expect is None:
            if n < 1:
                raise BFileError("first index must be >= 1", ln)
            expect = n
        if n != expect:
            raise BFileError("index %d out of order (expected %d)"
                             % (n, expect), ln)
        if n > len(values):
            break
        if values[n - 1] != v:
            raise BFileError("a(%d) mismatch: file has %d, sequence has %d"
                             % (n, v, values[n - 1]), ln)
        seen += 1
        expect = n + 1
    if seen == 0:
        raise BFileError("no data lines", 0)
