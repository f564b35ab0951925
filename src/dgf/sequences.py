"""Sequence terms from a prime-power rule, and b-file comparison.

One smallest-prime-power table serves the whole runtime: term
generation and the primes of Euler products and of zeta-form
coefficients, read off it once into a cached prime array.  Entry n holds
the exact power p^e of its smallest prime, so a(n) = a(p^e) a(n/p^e) is
one lookup and one product.
"""
from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from itertools import compress, filterfalse, islice, repeat
from pathlib import Path
from typing import Iterator, Sequence

from .bell import MultiplicativeFunction
from .errors import BFileError, SieveLimitError

MAX_SIEVE = 10**7
# table entries read per step when primes() extends its array: a bounded
# copy, 512 KB of the 40 MB table at MAX_SIEVE
_SLICE = 1 << 17


class FactorSieve:
    """Smallest-prime-power table, grown on demand.

    Entry n > 1 holds p^e, the exact power dividing n of its smallest
    prime p, or 0 when n is prime.  The primes read off it so far are
    kept in increasing order in a second array, complete up to _scanned;
    growing the table changes no entry below its old limit, so they stay
    valid.
    """

    def __init__(self):
        self._spp = array("i", [0, 0])
        self._primes = array("i")
        self._scanned = 1

    @property
    def limit(self) -> int:
        return len(self._spp) - 1

    def ensure(self, n: int) -> None:
        if n <= self.limit:
            return
        if n > MAX_SIEVE:
            raise SieveLimitError("sieve limit is %d" % MAX_SIEVE)
        size = min(MAX_SIEVE, max(n, 2 * self.limit))
        odd = list(self.primes(math.isqrt(size)))[1:]
        # the 2-part of every entry from its period-16 pattern; then each
        # prime power q at its odd multiples: 32, 64, ..., then the odd
        # primes, largest first and powers increasing, so that the exact
        # power of the smallest prime writes each entry last
        t = array("i", [16, 0, 2, 0, 4, 0, 2, 0, 8, 0, 2, 0, 4, 0, 2, 0]) \
            * (size // 16 + 1)
        del t[size + 1:]
        for p, q in [(2, 32)] + [(p, p) for p in reversed(odd)]:
            while q <= size:
                t[q::2 * q] = array("i", [q]) * len(range(q, size + 1, 2 * q))
                q *= p
        t[0] = t[2] = 0
        for p in odd:
            t[p] = 0
        self._spp = t

    def primes(self, n: int) -> Iterator[int]:
        """Primes <= n in increasing order, read lazily off the prime
        array, which is first extended past its cached extent if n is."""
        if n > self._scanned:
            self.ensure(n)
            t, out = self._spp, self._primes
            if not out:
                out.append(2)
            # the odd entries only, copied out a bounded slice at a time
            for lo in range((self._scanned + 1) | 1, n + 1, _SLICE):
                hi = min(n + 1, lo + _SLICE)
                out.extend(compress(range(lo, hi, 2),
                                    map(operator.not_, t[lo:hi:2])))
            self._scanned = n
        return islice(self._primes, bisect_right(self._primes, n))


_SIEVE = FactorSieve()


def terms(f: MultiplicativeFunction, N: int, sieve: FactorSieve | None = None
          ) -> list[int]:
    """a(1), ..., a(N) in one multiplicative pass.

    f.value runs once at each prime power, and only there: first at the
    proper powers p^e (e >= 2) with p <= sqrt(N), then at each prime as
    the pass reaches it.  Every other n splits as q (n/q), where q = p^e is
    its table entry, and a(n) = a(q) a(n/q) is read back from the output.
    """
    if N < 0:
        raise SieveLimitError("term count %d is negative" % N)
    sv = sieve or _SIEVE
    sv.ensure(max(N, 1))
    t, value = sv._spp, f.value
    out = [1] * (N + 1)
    for p in sv.primes(math.isqrt(N)):
        q, e = p * p, 2
        while q <= N:
            out[q] = value(p, e)
            q, e = q * p, e + 1
    for n, q in zip(range(2, N + 1), islice(t, 2, N + 1)):
        if not q:
            out[n] = value(n, 1)
        elif q != n:
            out[n] = out[q] * out[n // q]
    del out[0]
    return out


def matches_bell(f: MultiplicativeFunction, vals: Sequence[int]) -> bool:
    """Whether vals[q-1] = a(p^e) at every prime power q = p^e <= N =
    len(vals), read off the Bell series (f.series if not rational)
    expanded once to x^J, 2^J > N: each coefficient at all its primes at
    once, the local series at exceptional primes."""
    N, J, exc = len(vals), len(vals).bit_length(), f.exceptions
    B = f.series(J) if f.bell is None else f.bell.series(J)
    ps = list(filterfalse(exc.__contains__, _SIEVE.primes(N)))
    for e in range(1, J):
        del ps[bisect_right(ps, N, key=lambda p: p ** e):]
        at = map(operator.sub, map(pow, ps, repeat(e)), repeat(1))
        if any(map(operator.ne, B[e].evaluate_block(ps),
                   map(vals.__getitem__, at))):
            return False
    for q in [q for q in exc if q <= N]:
        lb = f.local_bell(q)
        want = (f.local_series(q, J) if lb is None else
                [c.constant_value() for c in lb.series(J)])
        if any(vals[q**e - 1] != want[e] for e in range(1, J) if q**e <= N):
            return False
    return True


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
            if seen == 0:
                raise BFileError("index %d exceeds the %d computed terms"
                                 % (n, len(values)), ln)
            break
        if values[n - 1] != v:
            raise BFileError("a(%d) mismatch: file has %d, sequence has %d"
                             % (n, v, values[n - 1]), ln)
        seen += 1
        expect = n + 1
    if seen == 0:
        raise BFileError("no data lines", 0)
