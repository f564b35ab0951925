"""Sequence terms from a prime-power rule, and b-file comparison.

One smallest-prime-power table serves the whole runtime: term
generation and the primes of Euler products and of zeta-form
coefficients, read off it once into a cached prime array.  Entry n holds
the exact power p^e of its smallest prime, so for n prime to 6,
a(n) = a(p^e) a(n/p^e) is one lookup and one product; the 2- and 3-parts
of every other n are strided products over whole slices.
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
# the bound on every temporary slice: the table entries primes() copies
# per step when it extends its array (512 KB of the 40 MB table at
# MAX_SIEVE), and in terms the chunk of n its pass walks and the
# cofactors of one strided product
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
    """a(1), ..., a(N) in one multiplicative pass over the n prime to 6.

    f.coeff runs only where no product gives a(n): at the proper powers
    p^e (e >= 2) with p <= sqrt(N), at 2 and 3, and at each exceptional
    prime.  The pass walks n = 1, 5 (mod 6) in chunks [lo, hi) with
    hi <= 5 lo.  A composite n splits as q (n/q), where q = p^e is its
    table entry; both factors are at most n/5 < lo, so a(n) = a(q) a(n/q)
    reads only earlier chunks.  The chunk's other primes get a(p) at once,
    by one block Horner of the generic polynomial a(p).  Then, for each
    power q of 3 and then of 2, a(q m) = a(q) a(m) over every cofactor m
    prime to 6, then every odd m, by strided products of whole slices.
    """
    if N < 0:
        raise SieveLimitError("term count %d is negative" % N)
    sv = sieve or _SIEVE
    sv.ensure(max(N, 1))
    t, value, exc = sv._spp, f.coeff, f.exceptions
    out = [1] * (N + 1)
    for p in sv.primes(math.isqrt(N)):
        q, e = p * p, 2
        while q <= N:
            out[q] = value(p, e)
            q, e = q * p, e + 1
    for p in {2, 3, *exc}:
        if p <= N:
            out[p] = value(p, 1)
    lo = 5
    while lo <= N:
        hi = min(5 * lo, lo + _SLICE, N + 1)
        ps = []
        for n0 in (lo + (1 - lo) % 6, lo + (5 - lo) % 6):
            for n, q in zip(range(n0, hi, 6), t[n0:hi:6]):
                if not q:
                    ps.append(n)
                elif q != n:
                    out[n] = out[q] * out[n // q]
        ps = list(filterfalse(exc.__contains__, ps))
        if ps:
            for p, v in zip(ps, f.coeff(None, 1).evaluate_block(ps)):
                out[p] = v
        lo = hi
    # cofactors m = 1, 5 (mod 6) of the powers of 3, then odd m of those of 2
    for p, step, residues in ((3, 6, (1, 5)), (2, 2, (1,))):
        q = p
        while q <= N:
            a, M = out[q], N // q
            for r in residues:
                for m0 in range(r, M + 1, step * _SLICE):
                    m1 = min(M + 1, m0 + step * _SLICE)
                    out[q * m0:q * m1:step * q] = map(
                        operator.mul, repeat(a), out[m0:m1:step])
            q *= p
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
