"""Registry integrity: bells match masters, claimed zeta forms hold."""
from __future__ import annotations

import itertools

import pytest

import dgf.bell as bell_module
from dgf.bell import (DEFAULT_DEGREE_CAP, LOCAL_DEGREE_CAP,
                      MultiplicativeFunction, _reduce_product, rationalize)
from dgf.catalog import CATALOG, make, names
from dgf.errors import CatalogError
from dgf.euler import INFINITE, finite_zeta_form
from dgf.sequences import terms

from conftest import GRID, grid_instances, zf_tuples
from oracles import (_ofactor, capped_zeta_form, oracle_at, refit_bell,
                     refit_local_bell, series_eq)


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


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_closed_bell_matches_master(name, args):
    f = make(name, *args)
    closed = CATALOG[name].closed_bell(*args)
    # the whole window the master refit used to prove at the degree cap
    K = 2 * DEFAULT_DEGREE_CAP + 3
    assert series_eq(closed.series(K), f.series(K), K)


@pytest.mark.parametrize("name,args", GRID, ids=lambda v: str(v))
def test_bell_equals_master_refit(name, args):
    # closed forms are runtime data: the series built from one is the one
    # the master window at the degree cap fits
    f = make(name, *args)
    assert f.bell == refit_bell(f)


# the 8 entries with exceptional primes at their parameter bounds and at
# small values: c = 524288 = 2^19 and 720720 = 2^4 3^2 5 7 11 13 have the
# largest exceptional exponents, 999999 = 3^3 7 11 13 37 the most primes
_CS = (1, 2, 12, 360, 524288, 720720, 999999)
EXCEPTIONAL = (
    [(name, (c,)) for name in ("gcdc", "lcmc", "ramanujan") for c in _CS]
    + [("depleted", (q, k)) for q in (2, 3, 999983) for k in (1, 2, 30)]
    + [("periodic2", (c,)) for c in (1, 10**6)]
    + [("periodic4", (a, b)) for a in (1, 10**6) for b in (1, 10**6)]
    + [(name, (k,)) for name in ("sigma_odd", "sigma_star_odd")
       for k in (0, 1, 30)])


def test_closed_forms_skip_the_master_refit(monkeypatch):
    refits = []
    refit = MultiplicativeFunction._refit

    def counted(self, q, d, K):
        refits.append((self.name, q, d))
        return refit(self, q, d, K)

    monkeypatch.setattr(MultiplicativeFunction, "_refit", counted)
    local = []
    for name, args, f in grid_instances(GRID + EXCEPTIONAL):
        assert f.bell is not None
        for q in f.exceptional_primes:
            assert f.local_bell(q) is not None
            local.append((f.name, q, len(f.rule.exceptions[q].values)))
    # no atom refits its generic master window; each exceptional prime
    # refits its n values once, at degree at most n, never at the cap
    assert local and len(refits) == len(local)
    for (name, q, d), (want, p, n) in zip(refits, local):
        assert (name, q) == (want, p) and d <= n and d != LOCAL_DEGREE_CAP


@pytest.mark.parametrize("name,args", EXCEPTIONAL, ids=lambda v: str(v))
def test_local_values_are_the_definition(name, args):
    # the data's values, and the series fitted to them, are the values
    # from the definition and the series the cap refit finds
    f = make(name, *args)
    for q in f.exceptional_primes:
        assert [f.value(q, e) for e in range(41)] == \
            [oracle_at(name, args, q**e) for e in range(41)]
        assert f.local_bell(q) == refit_local_bell(f, q)


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
    # every zeta= form has a den of binomials, so its common factors are
    # cancelled exactly, with no refit: 1 - p^2 x^2 over 1 - p x in core(2)
    # and 1 - x^2 over 1 - x in psi_k(3) too; const(2)'s den 1 - 2x is no
    # binomial, so its bell= form is still reduced by a refit
    calls = []
    fit = bell_module.rationalize

    def counted(series, max_degree):
        calls.append(max_degree)
        return fit(series, max_degree)

    monkeypatch.setattr(bell_module, "rationalize", counted)
    for name, args in [("phi", ()), ("sigma", (3,)), ("tau", (6,)),
                       ("mu", ()), ("core", (2,)), ("psi_k", (3,))]:
        assert make(name, *args).bell is not None
    assert calls == []
    assert make("const", 2).bell is not None
    assert len(calls) == 1


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
        assert f.value(2, 0) == 1
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
