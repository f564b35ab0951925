"""Registry integrity: series are the definitions, claimed zeta forms hold."""
from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from dgf import bell, catalog
from dgf.bell import MasterEquation, _expand, _reduce_product
from dgf.catalog import CATALOG, CatalogEntry, LocalValues, make, names
from dgf.errors import CatalogError
from dgf.euler import INFINITE, finite_zeta_form
from dgf.parser import parse_function
from dgf.polys import PrimePoly
from dgf.sequences import terms

from conftest import EXCEPTIONAL, GRID, grid_instances, zf_tuples
from oracles import (DEFAULT_DEGREE_CAP, _ofactor, capped_zeta_form, oracle,
                     oracle_at, rationalize, refit_bell, refit_local_bell)


def test_names_sorted_and_complete():
    ns = names()
    assert len(ns) == 44
    assert ns == sorted(ns)
    assert set(ns) == set(CATALOG)


@pytest.mark.parametrize("bad,msg", [
    (("nope", ()), "unknown function 'nope'"),
    (("sigma", (1, 2)), "sigma takes parameters (k), got 2 value(s)"),
    (("tau", (0,)), "tau: parameter k=0 out of range [1, 30]"),
    (("tau", (31,)), "tau: parameter k=31 out of range [1, 30]"),
    (("depleted", (4, 2)), "depleted: parameter q=4 must be prime"),
    (("phi_kl", (3, 1)), "phi_kl: needs k < l"),
    (("const", (0,)), "const: parameter c=0 out of range [1, 1000000]"),
])
def test_argument_validation(bad, msg):
    with pytest.raises(CatalogError) as ei:
        make(bad[0], *bad[1])
    assert str(ei.value) == msg


def test_instance_names():
    assert CATALOG["sigma_pow"].instance_name((1, 2)) == "sigma_pow(1,2)"
    assert CATALOG["phi"].instance_name(()) == "phi"
    assert make("jordan", 2).name == "jordan(2)"


def _definition(name, args, N):
    """n -> a(n) for n <= N, from the definition: per n, or off the first
    N values where the oracle has no per-n form (tau, jordan_ratio)."""
    try:
        oracle_at(name, args, 1)
    except AttributeError:
        vals = oracle(name, args, N)
        return lambda n: vals[n - 1]
    return lambda n: oracle_at(name, args, n)


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_closed_bell_matches_master(name, args):
    # an atom's a(p^e) is read off its closed form, so the reference is
    # the definition: at each small prime with no exceptional value, the
    # series at p is a(p^e) for every p^e <= 10^4
    N, f = 10**4, make(name, *args)
    series, at = f.series(N.bit_length() - 1), _definition(name, args, N)
    primes = [p for p in (2, 3, 5, 7) if p not in f.exceptions]
    for p in primes:
        es = [e for e in range(len(series)) if p**e <= N]
        assert [series[e].evaluate(p) for e in es] == \
            [at(p**e) for e in es], p
    assert primes


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_bell_equals_master_refit(name, args):
    # closed forms are runtime data: the series built from one is the one
    # the master window at the degree cap fits
    f = make(name, *args)
    assert f.bell == refit_bell(f)


def test_den_binomials_expand_to_the_den():
    # the den's merged binomial factors multiply back to it, generic and
    # at each exceptional prime, wherever it is a product of binomials
    split = 0
    for name, args, f in grid_instances(GRID + EXCEPTIONAL):
        for b in [f.bell] + list(map(f.local_bell, f.exceptional_primes)):
            if b.den_binomials is not None:
                assert _expand(b.den_binomials) == b.den, (name, args)
                split += 1
    assert split


def test_closed_forms_skip_the_master_refit(monkeypatch):
    # no runtime fit: every series, generic and at each exceptional prime,
    # is its closed form, built without reading a single coefficient, and
    # at q of degree at most the n values of its LocalValues
    reads = []
    monkeypatch.setattr(MasterEquation, "__call__",
                        lambda self, h, q, e: reads.append((h.name, q, e)))
    monkeypatch.setattr(LocalValues, "__call__",
                        lambda self, e: reads.append(e))
    local = 0
    for name, args, f in grid_instances(GRID + EXCEPTIONAL):
        assert f.bell is not None
        for q in f.exceptional_primes:
            b, n = f.local_bell(q), len(f.rule.exceptions[q].values)
            assert max(b.num.degree(), b.den.degree()) <= n
            local += 1
    assert local and reads == []


@pytest.mark.parametrize("name,args", EXCEPTIONAL, ids=lambda v: str(v))
def test_local_values_are_the_definition(name, args):
    # the data's values, and the series fitted to them, are the values
    # from the definition and the series the cap refit finds
    f = make(name, *args)
    for q in f.exceptional_primes:
        assert [f.coeff(q, e) for e in range(41)] == \
            [oracle_at(name, args, q**e) for e in range(41)]
        assert f.local_bell(q) == refit_local_bell(f, q)


def test_closed_forms_built_once_per_process(monkeypatch):
    # every instance of an atom shares its one reduced series, generic and
    # at each exceptional prime; each is built on the first instance's use
    built, local = Counter(), Counter()
    closed, local_bell = CatalogEntry._closed, LocalValues.bell

    def count_closed(self, vals):
        built[self.name, vals] += 1
        return closed(self, vals)

    def count_local(self):
        local[self] += 1
        return local_bell(self)
    monkeypatch.setattr(CatalogEntry, "_closed", count_closed)
    monkeypatch.setattr(LocalValues, "bell", count_local)
    for src in ["sigma(1)", "sigma(1) <*> phi", "sigma(1) * mu^2"]:
        assert parse_function(src).bell is not None
    assert built == {("sigma", (1,)): 1, ("phi", ()): 1, ("mu", ()): 1}
    for src in ["gcdc(12)", "gcdc(12) <*> phi", "inv(gcdc(12))"]:
        f = parse_function(src)
        assert [f.local_bell(q) is not None for q in (2, 3)] == [True] * 2
    assert sorted(v.values for v in local) == [(1, 2, 4), (1, 3)]
    assert set(local.values()) == {1}
    assert make("sigma", 1).bell is make("sigma", 1).bell


def test_coefficients_come_off_the_one_shared_series(monkeypatch):
    # every instance reads a(p^e) off its shared closed form's series,
    # which grows by doubling: one series_div per doubling, none per e
    orders, div = [], bell.series_div

    def count(num, den, K, out=None):
        orders.append(K)
        return div(num, den, K, out)
    monkeypatch.setattr(bell, "series_div", count)
    f, g = make("tau", 3), make("tau", 3)
    assert [f.coeff(None, e) for e in range(41)] == \
        [PrimePoly.const(math.comb(e + 2, 2)) for e in range(41)]
    assert g.coeff(None, 40) is f.coeff(None, 40)
    assert orders == [1, 4, 10, 22, 46]


@pytest.mark.parametrize("a,b", [
    (("sigma", (1,)), ("sigma", (2,))),
    (("gcdc", (12,)), ("gcdc", (60,))),
    (("periodic4", (3, 7)), ("periodic4", (7, 3))),
])
def test_distinct_parameters_never_share_a_series(a, b):
    # built one after the other, each instance gets the series of its own
    # closed form and of its own local values
    fs = [make(name, *args) for name, args in (a, b)]
    for (name, args), f in zip((a, b), fs):
        closed = CATALOG[name].closed_bell(*args)
        assert f.bell == _reduce_product(closed.num, closed.den)
        for q in f.exceptional_primes:
            assert f.local_bell(q) == f.rule.exceptions[q].bell()


def test_memo_hit_still_validates():
    assert make("sigma", 1).bell is not None
    for args in [("sigma", True), ("sigma", 31), ("depleted", 4, 1)]:
        with pytest.raises(CatalogError):
            make(*args)


def test_memo_stays_at_its_bound():
    size = catalog._MEMO_SIZE
    for c in range(1, size + 51):
        assert make("gcdc", c).bell is not None
    assert catalog._generic_bell.cache_info().currsize == size


def test_patched_instance_leaves_later_instances_alone():
    f = make("sigma", 1)
    assert f.bell is not None
    f.rule = None
    g = make("sigma", 1)
    assert g.rule is not None and g.bell == f.bell
    assert terms(g, 12) == [sum(d for d in range(1, n + 1) if n % d == 0)
                            for n in range(1, 13)]


@pytest.mark.parametrize("name,args",
                         [g for g in GRID if CATALOG[g[0]].bell is None],
                         ids=lambda v: str(v))
def test_closed_zeta_product_is_its_cancelled_form(name, args):
    # a zeta= product is kept as built when no numerator binomial shares
    # its ratio l/u with a denominator binomial; either way it is the
    # form with common factors cancelled
    closed = CATALOG[name].closed_bell(*args)
    assert make(name, *args).bell == _reduce_product(closed.num, closed.den)


def test_closed_forms_refit_only_where_factors_can_cancel(monkeypatch):
    # no runtime fit: every closed form, a zeta= product (1 - p^2 x^2 over
    # 1 - p x in core(2), 1 - x^2 over 1 - x in psi_k(3)) or const(2)'s
    # bell= form over 1 - 2x, is cancelled by the one exact gcd, without
    # reading a coefficient, and comes out reduced
    monkeypatch.setattr(MasterEquation, "__call__", None)
    for name, args in [("phi", ()), ("sigma", (3,)), ("tau", (6,)),
                       ("mu", ()), ("core", (2,)), ("psi_k", (3,)),
                       ("const", (2,))]:
        b = make(name, *args).bell
        assert b is not None
        assert _reduce_product(b.num, b.den) == b
    assert str(make("const", 2).bell) == "(1)/(1 - 2*x)"


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_zeta_form_is_the_capped_peels_where_it_finds_one(name, args):
    f = make(name, *args)
    want = capped_zeta_form(f)
    if want is INFINITE:
        assert CATALOG[name].expected_zeta(*args) in (INFINITE, None)
    else:
        assert str(finite_zeta_form(f)) == str(want)


def _bound_values(p):
    hi = p.hi
    while p.prime and _ofactor(hi) != [(hi, 1)]:
        hi -= 1
    return sorted({p.lo, hi})


def _bound_instances():
    out = []
    for name in names():
        entry = CATALOG[name]
        for args in itertools.product(*map(_bound_values, entry.params)):
            try:
                entry.check_args(args)
            except CatalogError:
                continue  # e.g. phi_kl needs k < l
            out.append((name, args))
    # a large exceptional prime power: gcdc's local factor has degree 20
    return out + [("gcdc", (2**19,)), ("lcmc", (2**19,)),
                  ("ramanujan", (2**19,))]


@pytest.mark.parametrize("name,args", _bound_instances(),
                         ids=lambda v: str(v))
def test_bell_at_parameter_bounds_equals_master_refit(name, args):
    # the closed form is the series the master window fits at a cap of at
    # least its degree, also where that degree exceeds the default cap
    f = make(name, *args)
    b = f.bell
    d = max(b.num.degree(), b.den.degree(), DEFAULT_DEGREE_CAP)
    assert b == rationalize(f.series(2 * d + 3), d)


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_expected_zeta_form_verified(name, args):
    entry = CATALOG[name]
    expected = entry.expected_zeta(*args)
    if expected is None:
        pytest.skip("no closed zeta form claimed")
    got = finite_zeta_form(make(name, *args))
    if expected == "infinite":
        assert got is INFINITE
    else:
        assert got is not INFINITE
        assert zf_tuples(got) == sorted(expected)


def test_exceptional_primes_of_local_entries():
    assert make("gcdc", 4).exceptional_primes == [2]
    assert make("ramanujan", 9).exceptional_primes == [3]
    assert make("sigma_odd", 2).exceptional_primes == [2]
    assert make("periodic2", 5).exceptional_primes == [2]
    assert make("depleted", 5, 2).exceptional_primes == [5]
    assert make("phi").exceptional_primes == []


def test_depleted_drops_high_powers():
    f = make("depleted", 2, 3)
    got = terms(f, 20)
    assert got == [0 if n % 8 == 0 else 1 for n in range(1, 21)]


def test_every_grid_instance_builds_and_evaluates():
    for _, _, f in grid_instances():
        assert f.coeff(2, 0) == 1
        assert terms(f, 8)[0] == 1


def test_ramanujan_small_cases():
    # c_n(12) over n: classical values at small n
    f = make("ramanujan", 12)
    assert terms(f, 12) == [1, 1, 2, 2, -1, 2, -1, -4, -3, -1, -1, 4]


def test_const_and_power_are_completely_multiplicative():
    vals = terms(make("const", 3), 12)
    for n in range(1, 13):
        assert vals[n - 1] == 3 ** sum(e for _, e in _factor(n))
    assert terms(make("power", 2), 10) == [n * n for n in range(1, 11)]


def _factor(n: int):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
