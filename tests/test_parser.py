"""Expression language: tokens, precedence, round trips, and errors."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dgf.catalog import make
from dgf.errors import CatalogError, ParseError
from dgf.parser import build, parse, parse_function, tokenize
from dgf.sequences import terms

from oracles import brute_convolve, parse_by_descent


def test_tokenize_kinds_and_columns():
    toks = tokenize("mu^2 * phi")
    assert [(t.kind, t.text, t.pos) for t in toks] == [
        ("NAME", "mu", 1), ("CARET", "^", 3), ("INT", "2", 4),
        ("STAR", "*", 6), ("NAME", "phi", 8), ("EOF", "", 11),
    ]
    assert [t.kind for t in tokenize("a <*> b <+> c")] == \
        ["NAME", "CONV", "NAME", "UCONV", "NAME", "EOF"]


MU, PHI, ONE = ("atom", "mu", ()), ("atom", "phi", ()), ("atom", "one", ())


def test_precedence_power_then_product_then_convolution():
    assert parse("mu^2 * phi <*> one") == [
        MU, ("pow", 2), PHI, ("mul",), ONE, ("conv",)]
    assert parse("one <*> mu * phi^2") == [
        ONE, MU, PHI, ("pow", 2), ("mul",), ("conv",)]


def test_convolutions_left_associative():
    assert parse("one <*> phi <+> mu") == [
        ONE, PHI, ("conv",), MU, ("uconv",)]
    assert parse("one <*> (phi <+> mu)") == [
        ONE, PHI, MU, ("uconv",), ("conv",)]
    assert parse("mu * phi * one") == [MU, PHI, ("mul",), ONE, ("mul",)]


def test_atom_arguments_inv_shift():
    assert parse("sigma(1)") == [("atom", "sigma", (1,))]
    assert parse("sigma_pow(1, 2)") == [("atom", "sigma_pow", (1, 2))]
    assert parse("inv(one)") == [ONE, ("inv",)]
    assert parse("shift(phi, 2)") == [PHI, ("shift", 2)]
    assert parse("shift(phi, -1)") == [PHI, ("shift", -1)]


def test_post_order_nodes_are_plain_tuples():
    # each node follows its operands; parentheses leave no node, and a
    # power of a power is two nodes
    ops = parse("((phi^2)^3 <+> inv(shift(mu, 1)))")
    assert ops == [PHI, ("pow", 2), ("pow", 3), MU, ("shift", 1), ("inv",),
                   ("uconv",)]
    assert all(type(op) is tuple for op in ops)
    assert parse(" ( ( mu ) ) ") == [MU]


NAMES = [
    ("mu^2 * phi", "(mu^2 * phi)"),
    ("(one <*> phi)^2", "(one <*> phi)^2"),
    ("inv(one)", "inv(one)"),
    ("shift(phi, 1)", "shift(phi, 1)"),
    ("sigma(1) <*> jordan(2)", "(sigma(1) <*> jordan(2))"),
    ("one <*> phi <+> mu", "((one <*> phi) <+> mu)"),
    ("inv(shift(mu, 3)) * tau(2)^3", "(inv(shift(mu, 3)) * tau(2)^3)"),
    ("(phi^2)^3", "(phi^2)^3"),
    ("((sigma_pow(1,  2))^2)^3 * mu", "((sigma_pow(1,2)^2)^3 * mu)"),
]


@pytest.mark.parametrize("src,name", NAMES, ids=[src for src, _ in NAMES])
def test_name_round_trips(src, name):
    # a function's name is its fully parenthesised text, which parses to
    # the same nodes as the text it was built from
    f = parse_function(src)
    assert f.name == name
    assert parse(f.name) == parse(src)
    assert parse_function(f.name).name == name


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
    assert parse("shift(phi, 4096)") == [PHI, ("shift", 4096)]
    assert parse("shift(phi, -04096)") == [PHI, ("shift", -4096)]
    assert parse("gcdc(1000000000000000000)") == \
        [("atom", "gcdc", (10**18,))]
    assert parse("gcdc(-0001000000000000000000)") == \
        [("atom", "gcdc", (-10**18,))]


def test_exponent_bound_is_inclusive():
    assert parse("phi^4096") == [PHI, ("pow", 4096)]
    assert parse("phi^0003") == [PHI, ("pow", 3)]
    # past the 4300 digits int() takes, still a parse error
    with pytest.raises(ParseError, match="col 5: exponent must be at most"):
        parse("phi^" + "9" * 5000)


def test_unknown_names_fail_at_build_not_parse():
    ast = parse("bogus <*> phi")
    with pytest.raises(CatalogError, match="unknown function 'bogus'"):
        build(ast)
    with pytest.raises(CatalogError, match="takes parameters"):
        build(parse("sigma(1, 2)"))


def test_syntax_checked_before_atoms_made_left_to_right():
    # every syntax error comes before any catalog lookup, and of two bad
    # atoms the leftmost raises
    with pytest.raises(ParseError, match="col 15: unexpected trailing"):
        parse_function("bogus <*> phi )")
    with pytest.raises(CatalogError, match="unknown function 'bogus'"):
        parse_function("inv(bogus) <*> sigma(1, 2)")
    with pytest.raises(CatalogError, match="takes parameters"):
        parse_function("(sigma(1, 2))^2 <*> bogus")


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


# names, inv and shift, punctuation, the three operators and '^', signed
# integers in and past their bounds, and characters no token starts with
TOKENS = ["phi", "mu", "sigma", "x_1", "inv", "shift", "(", ")", ",",
          "<*>", "<+>", "*", "^", "0", "2", "-3", "4096", "4097", "-4097",
          "9" * 20, "-" + "9" * 20, "-", "$", "\u00b2"]


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as e:
        return "ParseError: %s" % e


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=24),
       st.sampled_from([" ", ""]))
def test_parse_is_the_recursive_descent(toks, sep):
    # the same node list, or the same error text at the same column
    text = sep.join(toks)
    assert _outcome(parse, text) == _outcome(parse_by_descent, text)
