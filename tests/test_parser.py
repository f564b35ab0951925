"""Expression language: tokens, precedence, round trips, and errors."""
from __future__ import annotations

import copy
import pickle

import pytest

from dgf.catalog import make
from dgf.errors import CatalogError, ParseError
from dgf.parser import (
    Atom,
    Conv,
    Inv,
    PMul,
    PPow,
    Shift,
    UConv,
    build,
    parse,
    parse_function,
    to_text,
    tokenize,
)
from dgf.sequences import terms

from oracles import brute_convolve


def test_tokenize_kinds_and_columns():
    toks = tokenize("mu^2 * phi")
    assert [(t.kind, t.text, t.pos) for t in toks] == [
        ("NAME", "mu", 1), ("CARET", "^", 3), ("INT", "2", 4),
        ("STAR", "*", 6), ("NAME", "phi", 8), ("EOF", "", 11),
    ]
    assert [t.kind for t in tokenize("a <*> b <+> c")] == \
        ["NAME", "CONV", "NAME", "UCONV", "NAME", "EOF"]


def test_precedence_power_then_product_then_convolution():
    ast = parse("mu^2 * phi <*> one")
    assert ast == Conv(PMul(PPow(Atom("mu"), 2), Atom("phi")), Atom("one"))


def test_convolutions_left_associative():
    ast = parse("one <*> phi <+> mu")
    assert ast == UConv(Conv(Atom("one"), Atom("phi")), Atom("mu"))
    ast = parse("one <*> (phi <+> mu)")
    assert ast == Conv(Atom("one"), UConv(Atom("phi"), Atom("mu")))


def test_atom_arguments_inv_shift():
    assert parse("sigma(1)") == Atom("sigma", (1,))
    assert parse("sigma_pow(1, 2)") == Atom("sigma_pow", (1, 2))
    assert parse("inv(one)") == Inv(Atom("one"))
    assert parse("shift(phi, 2)") == Shift(Atom("phi"), 2)
    assert parse("shift(phi, -1)") == Shift(Atom("phi"), -1)


def test_node_kinds_equality_and_hash():
    a, b = Atom("mu"), Atom("phi")
    nodes = [Conv(a, b), UConv(a, b), PMul(a, b), PPow(a, 2), Inv(a),
             Shift(a, 2)]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j), (x, y)
    # equal trees of separate parses hash alike, so a set keeps one each
    again = [parse(to_text(n)) for n in nodes]
    assert again == nodes
    assert [hash(n) for n in again] == [hash(n) for n in nodes]
    assert len(set(nodes + again)) == len(nodes)
    assert Conv(a, b) != (a, b) and Atom("mu") != ("mu", ())
    assert repr(Shift(a, 2)) == "Shift(inner=Atom(name='mu', args=()), k=2)"
    assert copy.deepcopy(nodes) == nodes
    assert pickle.loads(pickle.dumps(nodes)) == nodes
    with pytest.raises(AttributeError):
        a.name = "phi"
    with pytest.raises(TypeError):
        Conv(a)


@pytest.mark.parametrize("src", [
    "mu^2 * phi", "(one <*> phi)^2", "inv(one)", "shift(phi, 1)",
    "sigma(1) <*> jordan(2)", "one <*> phi <+> mu",
    "inv(shift(mu, 3)) * tau(2)^3",
])
def test_to_text_round_trips(src):
    ast = parse(src)
    assert parse(to_text(ast)) == ast


@pytest.mark.parametrize("src,msg", [
    ("sigma(", "col 7: expected an integer"),
    ("phi^0", "col 5: exponent must be a positive integer"),
    ("phi^-1", "col 5: exponent must be a positive integer"),
    ("2 * phi", "col 1: expected a function name or '('"),
    ("phi )", "col 5: unexpected trailing input"),
    ("shift(phi)", "col 10: expected ',' and a shift amount"),
    ("phi^(2)", "col 5: expected an exponent"),
    ("bogus&", "col 6: unexpected character '&'"),
    ("phi^4097", "col 5: exponent must be at most 4096"),
    ("mu * phi^99999999999999999999", "col 10: exponent must be at most 4096"),
    # digits counted before int(), which refuses over 4300 of them
    pytest.param("sigma(%s)" % ("9" * 5000),
                 "col 7: parameter must be at most 1000000000000000000",
                 id="param-5000-digits"),
    pytest.param("gcdc(-%s)" % ("9" * 5000),
                 "col 6: parameter must be at least -1000000000000000000",
                 id="negative-param-5000-digits"),
    pytest.param("shift(phi, %s)" % ("9" * 5000),
                 "col 12: shift amount must be at most 4096",
                 id="shift-5000-digits"),
    ("shift(phi, 1000000000000)", "col 12: shift amount must be at most 4096"),
    ("shift(phi, -4097)", "col 12: shift amount must be at least -4096"),
    ("phi^-99999999999999999999", "col 5: exponent must be a positive integer"),
    # isdigit takes these, int() does not: each is no integer token
    ("sigma(²)", "col 7: unexpected character '²'"),
    ("phi^²", "col 5: unexpected character '²'"),
    ("shift(phi, ¹)", "col 12: unexpected character '¹'"),
])
def test_parse_errors_carry_columns(src, msg):
    with pytest.raises(ParseError) as ei:
        parse(src)
    assert str(ei.value) == msg


def test_integer_bounds_are_inclusive():
    assert parse("shift(phi, 4096)") == Shift(Atom("phi"), 4096)
    assert parse("shift(phi, -04096)") == Shift(Atom("phi"), -4096)
    assert parse("gcdc(1000000000000000000)") == \
        Atom("gcdc", (10**18,))
    assert parse("gcdc(-0001000000000000000000)") == \
        Atom("gcdc", (-10**18,))


def test_exponent_bound_is_inclusive():
    assert parse("phi^4096") == PPow(Atom("phi"), 4096)
    assert parse("phi^0003") == PPow(Atom("phi"), 3)
    # past the 4300 digits int() takes, still a parse error
    with pytest.raises(ParseError, match="col 5: exponent must be at most"):
        parse("phi^" + "9" * 5000)


def test_unknown_names_fail_at_build_not_parse():
    ast = parse("bogus <*> phi")
    with pytest.raises(CatalogError, match="unknown function 'bogus'"):
        build(ast)
    with pytest.raises(CatalogError, match="takes parameters"):
        build(parse("sigma(1, 2)"))


def test_build_semantics():
    assert terms(parse_function("mu^2 * phi"), 60) == \
        terms(make("phi_prime"), 60)
    assert terms(parse_function("inv(one)"), 30) == terms(make("mu"), 30)
    phi = terms(make("phi"), 30)
    assert terms(parse_function("shift(phi, 1)"), 30) == \
        [n * v for n, v in enumerate(phi, start=1)]
    got = terms(parse_function("liouville <*> one"), 9)
    assert got == [1, 0, 0, 1, 0, 0, 0, 0, 1]
    conv = terms(parse_function("sigma(1) <*> jordan(2)"), 40)
    assert conv == brute_convolve(terms(make("sigma", 1), 40),
                                  terms(make("jordan", 2), 40))
