"""Term generation, the sieve, brute-force convolutions, b-file checking."""
from __future__ import annotations

import math
from collections import Counter

import pytest

from dgf.bell import MasterEquation, MultiplicativeFunction
from dgf.catalog import make
from dgf.errors import (BFileError, CatalogError, MasterEquationError,
                        SieveLimitError)
from dgf.euler import finite_zeta_form, zeta_form_to_coeffs
from dgf import sequences
from dgf.parser import parse_function
from dgf.polys import PrimePoly
from dgf.sequences import (MAX_SIEVE, FactorSieve, compare_bfile,
                           matches_bell, terms)

from conftest import EXCEPTIONAL, GRID
from oracles import (_ofactor, brute_convolve, brute_unitary_convolve,
                     oracle, terms_by_table, trial_primes)


def test_terms_fixtures():
    assert terms(make("phi"), 10) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert terms(make("mu"), 8) == [1, -1, -1, 0, -1, 1, -1, 0]
    assert terms(make("eps", 2), 9) == [1, 0, 0, 1, 0, 0, 0, 0, 1]
    assert terms(make("phi"), 0) == []
    assert terms(make("phi"), 1) == [1]
    assert terms(make("mu"), 2) == [1, -1]


# the exceptional instances GRID already has keep their ids
@pytest.mark.parametrize("name,args",
                         GRID + [g for g in EXCEPTIONAL if g not in GRID],
                         ids=lambda v: str(v))
def test_terms_match_definition_oracle(name, args):
    N = 300
    assert terms(make(name, *args), N) == oracle(name, args, N)


def test_shared_sieve_reuse():
    sieve = FactorSieve()
    a = terms(make("phi"), 50, sieve=sieve)
    b = terms(make("sigma", 1), 50, sieve=sieve)
    assert sieve.limit >= 50
    assert a[11] == 4 and b[11] == 28


def test_terms_value_once_per_prime_power():
    # f.coeff runs once at each proper power, at 2 and 3 and at each
    # exceptional prime, and at no other prime: the other primes read a(p)
    # off one block evaluation of the generic polynomial
    N = 2000
    primes = [p for p in range(2, N + 1) if _ofactor(p) == [(p, 1)]]
    powers = {(p, e) for p in primes for e in range(2, N.bit_length())
              if p**e <= N}
    for src in ("sigma(1)", "depleted(5,2) * mu^2", "gcdc(360) <*> sigma(2)"):
        calls = Counter()
        f = parse_function(src)
        value = f.coeff

        def counting(p, e):
            calls[p, e] += p is not None
            return value(p, e)

        f.coeff = counting
        got = terms(f, N)
        assert got == (oracle("sigma", (1,), N) if src == "sigma(1)" else
                       terms_by_table(parse_function(src), N, FactorSieve()))
        fixed = powers | {(p, 1) for p in {2, 3, *f.exceptions}}
        assert +calls == dict.fromkeys(fixed, 1), src
        assert all(got[p - 1] == value(p, 1) for p in primes
                   if p not in {2, 3, *f.exceptions}), src


@pytest.mark.parametrize("src", ["sigma(1)", "mu", "gcdc(12)", "depleted(5,2)",
                                 "gcdc(360) <*> sigma(2)",
                                 "((phi <*> sigma(2)) <*> sigma(1)) * mu^2"])
def test_terms_match_the_pass_by_table(src):
    # every N <= 200, N = 5^k +- 1 at the chunk edges of the pass, and N
    # past the first chunk of _SLICE n (78125 + 2^17 = 209197)
    sieve = FactorSieve()
    Ns = list(range(201)) + [5**k + d for k in range(4, 8) for d in (-1, 1)]
    for N in Ns + [3 * 10**5]:
        assert terms(parse_function(src), N, sieve) == \
            terms_by_table(parse_function(src), N, sieve), (src, N)


def test_terms_refuse_a_generic_rule_without_a_polynomial():
    # a hand-built rule whose generic value is an int, not a PrimePoly
    def bad():
        return MultiplicativeFunction("bad", MasterEquation(lambda e: 1))

    for run in (terms, lambda f, N: terms_by_table(f, N, FactorSieve())):
        assert run(bad(), 1) == [1]
        for N in (2, 3, 10, 1000):
            with pytest.raises(MasterEquationError):
                run(bad(), N)


def test_terms_memoize_only_at_exceptional_primes():
    # a(p^e) at any other prime is the generic polynomial at p, evaluated
    # afresh, so a long run of terms leaves no per-prime memo on any node
    h = parse_function("inv(phi) <*> gcdc(60)")
    assert len(terms(h, 10**5)) == 10**5
    nodes = [h]
    for f in nodes:
        nodes += f.ops
    assert len(nodes) == 4 and h.exceptions == {2, 3, 5}
    seen = set()
    for f in nodes:
        primes = {q for q, e in f._memo if q is not None}
        assert primes <= h.exceptions
        seen |= primes
    assert seen == h.exceptions


def test_terms_above_sieve_limit():
    with pytest.raises(SieveLimitError, match="sieve limit is %d" % MAX_SIEVE):
        terms(make("phi"), MAX_SIEVE + 1)
    assert issubclass(SieveLimitError, ValueError)


def test_terms_negative_count():
    with pytest.raises(SieveLimitError, match="term count -1 is negative"):
        terms(make("phi"), -1)


def test_terms_are_products_over_prime_powers():
    # one plain, one composite and one exceptional function, past 2^16
    N = 2**16 + 1
    facs = [_ofactor(n) for n in range(1, N + 1)]
    for f in (make("sigma", 1),
              parse_function("(phi <*> sigma(2)) * mu^2"),
              make("gcdc", 12)):
        want = [math.prod(f.coeff(p, e) for p, e in fac) for fac in facs]
        assert terms(f, N, FactorSieve()) == want, f


def _spp_by_trial(n):
    fac = _ofactor(n)
    return 0 if fac == [(n, 1)] else fac[0][0] ** fac[0][1]


def test_sieve_holds_smallest_prime_power():
    # entry n: 0 for a prime, else p^e for its smallest prime p, p^e || n;
    # sizes around the period-16 pattern and the powers of 2 it leaves out
    for size in (2, 3, 4, 31, 32, 33, 63, 64, 65, 4999, 8192):
        s = FactorSieve()
        s.ensure(size)
        assert s.limit == size
        assert list(s._spp[2:]) == [_spp_by_trial(n) for n in range(2, size + 1)]
    grown = FactorSieve()
    for n in (2, 3, 9, 50, 101, 1000, 2001, 5000):
        grown.ensure(n)
        assert list(grown._spp[2:]) == \
            [_spp_by_trial(m) for m in range(2, grown.limit + 1)], n


def test_factor_prime_powers():
    # a prime reads 0, a proper prime power itself
    n = 97**2 * 2**5 * 3
    s = FactorSieve()
    s.ensure(n)
    for p, top in ((2, 16), (3, 10), (97, 2)):
        assert s._spp[p] == _spp_by_trial(p) == 0
        for k in range(2, top + 1):
            assert s._spp[p**k] == _spp_by_trial(p**k) == p**k
    assert s._spp[n] == _spp_by_trial(n) == 2**5


def test_matches_bell_agrees_with_master_values():
    def master_ok(f, seq):
        N = len(seq)
        return all(seq[p ** e - 1] == f.coeff(p, e)
                   for p in trial_primes(N)
                   for e in range(1, N.bit_length()) if p ** e <= N)

    # sigma(1) by its Bell series, gcdc(12) by local ones at its
    # exceptional primes 2 and 3, and e! (3^(e^2) at 3) by the master's
    # series, as neither has a rational form
    fact = MultiplicativeFunction("fact", MasterEquation(
        lambda e: PrimePoly.const(math.factorial(e)), {3: lambda e: 3**(e * e)}))
    assert fact.bell is None and fact.local_bell(3) is None
    for f in (make("sigma", 1), make("gcdc", 12), fact):
        base = terms(f, 300)
        assert matches_bell(f, base) and master_ok(f, base)
        assert matches_bell(f, []) and matches_bell(f, base[:1])
        for n in (2, 3, 4, 6, 8, 9, 12, 30, 97, 128, 210, 243, 289, 300):
            seq = list(base)
            seq[n - 1] += 1
            assert matches_bell(f, seq) == master_ok(f, seq)
            # a wrong value is caught exactly at a prime power
            assert master_ok(f, seq) == (len(_ofactor(n)) > 1)


def test_factor_sieve():
    # grown in steps or at once, the table gives each n the smallest prime
    # power of its trial-division factorisation
    grown, fresh = FactorSieve(), FactorSieve()
    for n in (2, 3, 9, 50, 101, 1000, 2001, 5000):
        grown.ensure(n)
    fresh.ensure(5000)
    assert grown.limit == fresh.limit == 5000
    want = [_spp_by_trial(n) for n in range(2, 5001)]
    assert list(grown._spp[2:]) == list(fresh._spp[2:]) == want
    assert (fresh._spp[12], fresh._spp[97]) == (4, 0)
    # odd and even table sizes, the smallest ones included
    for size in (2, 3, 4, 51, 4999):
        small = FactorSieve()
        small.ensure(size)
        assert small.limit == size
        assert list(small._spp[2:]) == want[:size - 1]
    assert list(fresh.primes(100)) == [p for p in range(2, 101) if _ofactor(p) == [(p, 1)]]


@pytest.mark.parametrize("step", [sequences._SLICE, 16])
def test_primes_read_off_the_cached_prime_array(step, monkeypatch):
    # the array grows by table slices of `step` entries; 16 puts many
    # slice boundaries below 20000
    monkeypatch.setattr(sequences, "_SLICE", step)
    s = FactorSieve()
    # small, then large, then small again: the cache only grows, and each
    # call reads just its own prefix of it
    for n in (10, 20000, 97, 20000, 1000, 20001, 20011):
        assert list(s.primes(n)) == list(trial_primes(n)), n
    # ensure growing the table past the cached extent keeps it valid
    s.ensure(60000)
    assert list(s.primes(1000)) == list(trial_primes(1000))
    assert list(s.primes(50000)) == list(trial_primes(50000))
    for n in (1, 0, -5):
        assert list(s.primes(n)) == []
    for n in (2, 97, 1000, 49999, 50000, 59999):
        assert s._spp[n] == _spp_by_trial(n), n
    with pytest.raises(SieveLimitError):
        s.primes(MAX_SIEVE + 1)


def test_zeta_form_coeffs_after_prime_cache_use():
    # the shared sieve's prime array is read by zeta_form_to_coeffs
    for name, args, N in (("sigma", (1,), 3000), ("mu", (), 100),
                          ("gcdc", (12,), 3000), ("phi", (), 40)):
        zf = finite_zeta_form(make(name, *args))
        assert zeta_form_to_coeffs(zf, N) == oracle(name, args, N), name


def test_brute_convolve_fixtures():
    phi = terms(make("phi"), 6)
    one = terms(make("one"), 6)
    assert brute_convolve(phi, one) == [1, 2, 3, 4, 5, 6]
    mu = terms(make("mu"), 8)
    assert brute_convolve(mu, [1] * 8) == [1, 0, 0, 0, 0, 0, 0, 0]
    t2 = terms(make("tau", 2), 100)
    assert brute_convolve(t2, t2) == terms(make("tau", 4), 100)


def test_brute_unitary_fixtures():
    n_musq = [n * m * m for n, m in zip(range(1, 9), terms(make("mu"), 8))]
    assert brute_unitary_convolve(n_musq, [1] * 8) == [1, 3, 4, 1, 6, 12, 8, 1]
    assert brute_unitary_convolve([1] * 8, [1] * 8) == [1, 2, 2, 2, 2, 4, 2, 2]


def test_brute_length_mismatch():
    with pytest.raises(ValueError, match="sequences differ in length: 3 vs 4"):
        brute_convolve([1, 1, 1], [1, 1, 1, 1])
    with pytest.raises(ValueError, match="differ in length"):
        brute_unitary_convolve([1], [1, 2])


def test_compare_bfile_accepts_comments_and_blanks():
    lines = ["# header", "", "1 1", "2 1", "3 2", "# trailing"]
    assert compare_bfile(lines, [1, 1, 2]) is None


def test_compare_bfile_value_mismatch():
    with pytest.raises(BFileError) as ei:
        compare_bfile(["1 1", "2 5"], [1, 1])
    assert ei.value.line == 2
    assert "a(2) mismatch" in str(ei.value)


def test_compare_bfile_gap_and_garbage():
    with pytest.raises(BFileError, match="out of order"):
        compare_bfile(["1 1", "3 2"], [1, 1, 2])
    with pytest.raises(BFileError, match="non-integer"):
        compare_bfile(["1 x"], [1])
    with pytest.raises(BFileError, match="expected 'n value'"):
        compare_bfile(["1 2 3"], [1])
    with pytest.raises(BFileError, match="no data lines"):
        compare_bfile(["# nothing"], [1])
    with pytest.raises(BFileError) as ei:
        compare_bfile(["# from 5", "5 4", "6 2"], [1, 1, 2])
    assert ei.value.line == 2
    assert "index 5 exceeds the 3 computed terms" in str(ei.value)


def test_compare_bfile_ignores_tail_beyond_values():
    # file longer than computed prefix: extra lines are fine
    assert compare_bfile(["1 1", "2 1", "3 2", "4 2"], [1, 1]) is None


def test_compare_bfile_reads_path(tmp_path):
    p = tmp_path / "b000010.txt"
    p.write_text("# b-file\n1 1\n2 1\n3 2\n4 2\n5 4\n")
    assert compare_bfile(p, terms(make("phi"), 5)) is None
    assert compare_bfile(str(p), terms(make("phi"), 5)) is None


def test_oracle_unknown_name():
    with pytest.raises(CatalogError, match="no oracle for 'nope'"):
        oracle("nope", (), 5)
