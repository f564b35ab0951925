"""Shared fixtures: a representative instance grid over the whole catalog."""
from __future__ import annotations

import pytest

from dgf import catalog
from dgf.catalog import make


@pytest.fixture(autouse=True)
def _cold_closed_forms():
    # each test builds its atoms' closed forms itself, so a test that
    # watches how a series is built never sees one cached by another test
    catalog._generic_bell.cache_clear()
    catalog._local_bell.cache_clear()


# One or more argument tuples per catalog entry.  Kept small enough that a
# full sweep with N in the low thousands stays in seconds.
GRID: list[tuple[str, tuple[int, ...]]] = [
    ("congruence_count", (2,)), ("congruence_count", (3,)),
    ("congruence_min", (2,)), ("congruence_min", (3,)),
    ("const", (1,)), ("const", (2,)), ("const", (10,)),
    ("core", (2,)), ("core", (3,)),
    ("dedekind", ()),
    ("depleted", (2, 3)), ("depleted", (5, 2)),
    ("eps", (2,)), ("eps", (3,)),
    ("gcd_pairs", (1,)), ("gcd_pairs", (2,)),
    ("gcdc", (1,)), ("gcdc", (12,)),
    ("id", ()),
    ("jordan", (1,)), ("jordan", (4,)),
    ("jordan_ratio", (1,)), ("jordan_ratio", (3,)),
    ("jordan_star", (2,)), ("jordan_star", (3,)),
    ("lcm_pairs", (1,)), ("lcm_pairs", (2,)),
    ("lcmc", (12,)),
    ("liouville", ()),
    ("max_tpow", (2,)), ("max_tpow", (3,)),
    ("mu", ()),
    ("mu_apostol", (1,)), ("mu_apostol", (2,)), ("mu_apostol", (3,)),
    ("mu_star", ()),
    ("one", ()),
    ("periodic2", (5,)),
    ("periodic4", (3, 7)),
    ("phi", ()),
    ("phi_kl", (0, 1)), ("phi_kl", (1, 3)),
    ("phi_prime", ()),
    ("phi_star", ()),
    ("power", (0,)), ("power", (3,)),
    ("psi_k", (1,)), ("psi_k", (3,)),
    ("rad", (2,)), ("rad", (4,)),
    ("ramanujan", (1,)), ("ramanujan", (9,)), ("ramanujan", (12,)),
    ("root_tpow", (2,)), ("root_tpow", (3,)),
    ("sigma", (0,)), ("sigma", (1,)), ("sigma", (3,)),
    ("sigma_odd", (1,)),
    ("sigma_pow", (1, 2)), ("sigma_pow", (0, 3)), ("sigma_pow", (2, 2)),
    ("sigma_prime", ()),
    ("sigma_star", (0,)), ("sigma_star", (2,)),
    ("sigma_star_odd", (1,)),
    ("sigma_tfree", (1, 2)), ("sigma_tfree", (0, 3)),
    ("tau", (1,)), ("tau", (2,)), ("tau", (3,)), ("tau", (6,)),
    ("tau_star", (1,)), ("tau_star", (2,)), ("tau_star", (3,)),
    ("tfull_count", (2,)), ("tfull_count", (3,)),
    ("tpow_divisor_sum", (2,)), ("tpow_divisor_sum", (3,)),
    ("xi", (2,)), ("xi", (4,)),
]

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

# one representative instance per entry name, in GRID order
GRID_ONE_PER_NAME = []
_seen: set[str] = set()
for _name, _args in GRID:
    if _name not in _seen:
        _seen.add(_name)
        GRID_ONE_PER_NAME.append((_name, _args))


def grid_instances(grid=None):
    for name, args in (GRID if grid is None else grid):
        yield name, args, make(name, *args)


def ef_tuples(efl):
    return [(f.S, f.l, f.u, f.gamma) for f in efl]


def zf_tuples(zf):
    return sorted((z.u, z.l, z.gamma) for z in zf.zeta_factors)
