"""Cross-entry convolution identities checked on term prefixes."""
from __future__ import annotations

from dgf.bell import shift_by_power
from dgf.catalog import make
from dgf.sequences import FactorSieve, terms

from oracles import _ofactor, brute_convolve

N = 2000
_SIEVE = FactorSieve()


def T(name, *args):
    return terms(make(name, *args), N, sieve=_SIEVE)


def argpow_terms(name, args, k: int, count: int = N):
    # f evaluated at n^k, term by term, via the prime factorization of n
    f = make(name, *args)
    out = []
    for n in range(1, count + 1):
        v = 1
        for p, e in _ofactor(n):
            v *= f.coeff(p, k * e)
        out.append(v)
    return out


def test_alternating_sign_sums_to_square_indicator():
    assert brute_convolve(T("liouville"), T("one")) == T("eps", 2)


def test_totient_sums_to_identity():
    assert brute_convolve(T("phi"), T("one")) == T("id")


def test_power_indicator_has_inverse_in_pair():
    for t in [2, 3]:
        assert brute_convolve(T("xi", t), T("eps", t)) == T("one")


def test_divisor_sum_of_square_decomposes():
    for k in [1, 2]:
        rhs = brute_convolve(T("sigma", 2 * k),
                             terms(shift_by_power(make("xi", 2), k), N,
                                   sieve=_SIEVE))
        assert T("sigma_pow", k, 2) == rhs


def test_largest_power_part_times_core():
    for t in [2, 3]:
        assert brute_convolve(T("max_tpow", t), T("core", t)) == T("sigma", 1)


def test_squarefree_kernel_sum_is_dedekind_variant():
    for k in [1, 3]:
        musq = [m * m for m in T("mu")]
        assert brute_convolve(T("power", k), musq) == T("psi_k", k)


def test_square_indicator_lifts_dedekind_to_sigma():
    for k in [1, 2]:
        assert brute_convolve(T("eps", 2), T("psi_k", k)) == T("sigma", k)


def test_unitary_totient_against_totient():
    lhs = brute_convolve(T("phi_star"), T("phi"))
    rhs = [a * b for a, b in zip(T("sigma", 0), T("phi"))]
    assert lhs == rhs


def test_unitary_jordan_is_unitary_totient_of_power():
    for k in [2, 3]:
        assert T("jordan_star", k) == argpow_terms("phi_star", (), k)


def test_totient_of_square_kernel_sums_to_squared_radical():
    assert brute_convolve(T("one"), T("phi_prime")) == T("rad", 2)


def test_unitary_divisor_count_sums_to_divisor_count_of_power():
    for k in [2, 3]:
        lhs = brute_convolve(T("one"), T("tau_star", k))
        assert lhs == argpow_terms("sigma", (0,), k)


def test_jordan_ratio_sums_to_divisor_sum_of_power():
    for k in [2, 3]:
        scaled = terms(shift_by_power(make("jordan_ratio", k), 1), N,
                       sieve=_SIEVE)
        assert brute_convolve(T("one"), scaled) == T("sigma_pow", 1, k)


def test_squared_divisor_sum_decomposes():
    for k in [1, 2]:
        sig = T("sigma", k)
        lhs = [v * v for v in sig]
        assert lhs == brute_convolve(T("sigma_pow", k, 2), T("power", k))


def test_divisor_power_convolution_is_symmetric():
    for k, t in [(0, 1), (1, 2), (2, 5)]:
        lhs = brute_convolve(T("sigma", k), T("power", t))
        rhs = brute_convolve(T("sigma", t), T("power", k))
        assert lhs == rhs
