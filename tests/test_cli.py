"""Command-line interface: transcripts, exit codes, JSON output."""
from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter

import pytest

jsonschema = pytest.importorskip("jsonschema")

import dgf.cli as cli
from dgf.cli import main
from dgf.errors import SieveLimitError
from dgf.euler import EulerFactorList, euler_expand
from dgf.polys import PrimePoly

from conftest import GRID_ONE_PER_NAME

FACTORIZE_SCHEMA = {
    "type": "object",
    "required": ["factors", "truncated_at", "abscissa"],
    "properties": {
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["S", "l", "u", "gamma"],
                "properties": {
                    "S": {"enum": [1, -1]},
                    "l": {"type": "integer", "minimum": 0},
                    "u": {"type": "integer", "minimum": 1},
                    "gamma": {"type": "integer"},
                },
            },
        },
        "truncated_at": {"type": ["integer", "null"]},
        "abscissa": {"type": "string"},
    },
}

ZETAFORM_SCHEMA = {
    "type": "object",
    "required": ["zeta", "local"],
    "properties": {
        "zeta": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["u", "l", "gamma"],
                "properties": {
                    "u": {"type": "integer", "minimum": 1},
                    "l": {"type": "integer"},
                    "gamma": {"type": "integer"},
                },
            },
        },
        "local": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["prime", "poly"],
                "properties": {
                    "prime": {"type": "integer", "minimum": 2},
                    "poly": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "den_poly": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            },
        },
    },
}


def run(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_zetaform_transcript(capsys):
    rc, out, _ = run(capsys, ["zetaform", "phi"])
    assert rc == 0
    assert out.splitlines() == ["zeta(s-1)/zeta(s)", "abscissa: 2"]


def test_zetaform_infinite(capsys):
    rc, out, _ = run(capsys, ["zetaform", "sigma(0) * phi"])
    assert rc == 0
    assert out.strip() == "infinite"


# Bell series Phi_30(x) = 1 + x - x^3 - x^4 - x^5 + x^7 + x^8, whose zeta
# form needs order 30 and weight psi(30) = 72
PHI30 = ("inv(eps(5)*eps(6)) <*> inv(eps(3)) <*> inv(eps(5)) <*> inv(eps(2))"
         " <*> (eps(3)*eps(5)) <*> (eps(2)*eps(5)) <*> eps(6) <*> one")


def test_zetaform_of_a_cyclotomic_bell_series(capsys):
    rc, out, _ = run(capsys, ["zetaform", PHI30])
    assert rc == 0
    assert out.splitlines()[0] == \
        "zeta(s)*zeta(6s)*zeta(10s)*zeta(15s)/(zeta(2s)*zeta(3s)*zeta(5s)*zeta(30s))"
    rc, out, _ = run(capsys, ["eval", PHI30, "--s", "1.5"])
    assert rc == 0
    assert out.startswith("2.05276888434 (error <= ")
    assert out.rstrip().endswith(", zeta_form)")


def test_termwise_products_of_lacunary_series(capsys):
    # eps(7)*eps(8) is 1/(1 - x^56); the cap refit's 36 coefficients read 1.
    # The den 1 - x^280 of eps(5)*eps(7)*eps(8) is sparse enough to build
    rc, out, _ = run(capsys, ["zetaform", "eps(7)*eps(8)"])
    assert rc == 0 and out.splitlines()[0] == "zeta(56s)"
    rc, out, _ = run(capsys, ["zetaform", "eps(5)*eps(7)*eps(8)"])
    assert rc == 0 and out.splitlines()[0] == "zeta(280s)"
    # past the work bound no series is known, which proves nothing
    rc, out, _ = run(capsys, ["zetaform", "(eps(7)*eps(8)) * sigma(1)^10"])
    assert rc == 0 and out.strip() == "unknown"
    rc, out, _ = run(capsys, ["zetaform", "(eps(7)*eps(8)) * sigma(1)^10",
                              "--json"])
    assert rc == 0 and json.loads(out) == {"unknown": True}
    rc, _, err = run(capsys, ["eval", "(eps(7)*eps(8)) * sigma(1)^10",
                              "--s", "2", "--method", "zeta"])
    assert rc == 3 and "no zeta form known" in err
    rc, out, _ = run(capsys, ["eval", "eps(7)*eps(8)", "--s", "0.02"])
    assert rc == 0 and out.rstrip().endswith(", zeta_form)")
    value, err = (float(v) for v in
                  re.match(r"(\S+) \(error <= (\S+),", out).groups())
    assert abs(value - 8.919216557499339) <= err    # zeta(1.12), mpmath


def test_termwise_products_over_dens_that_do_not_split(capsys):
    # inv(phi_star)'s den 1 - 2x + p x^2 is no product of binomials; times
    # a lacunary series a cap refit read 36 coefficients 1, 0, ..., 0 as 1.
    # The composed den has degree 2 * 56 or 2 * 40, past the work bound
    from dgf.parser import parse_function
    for src in ["inv(phi_star) * (eps(7)*eps(8))",
                "inv(phi_star) * (eps(5)*eps(8))"]:
        f = parse_function(src)
        for cmd in ("bell", "zetaform"):
            rc, out, _ = run(capsys, [cmd, src])
            assert rc == 0 and out.splitlines()[0] != "1"
            if f.bell is None:
                assert out.splitlines()[0] == "unknown"
        if f.bell is not None:
            assert f.bell.matches(f.series(400))
    # const(3)'s 1 - 3x composed with 1 - x^56 is 1 - 3^56 x^56
    src = "const(3) * (eps(7)*eps(8))"
    rc, out, _ = run(capsys, ["bell", src])
    assert rc == 0 and out.splitlines()[0] == \
        "(1)/(1 - 523347633027360537213511521*x^56)"
    assert 523347633027360537213511521 == 3**56
    rc, out, _ = run(capsys, ["zetaform", src])
    assert rc == 0 and out.strip() == "infinite"


def test_trivial_local_factors_are_left_out(capsys):
    rc, out, _ = run(capsys, ["catalog", "periodic2", "1"])
    assert rc == 0
    assert out.splitlines()[-1] == "  dirichlet series: zeta(s)"
    rc, out, _ = run(capsys, ["zetaform", "gcdc(12) <*> inv(gcdc(12))"])
    assert rc == 0
    assert out.splitlines() == ["1", "abscissa: 0 (empty product)"]


def test_terms_transcript(capsys):
    rc, out, _ = run(capsys, ["terms", "liouville <*> one", "-n", "9"])
    assert rc == 0
    assert out.strip() == "1,0,0,1,0,0,0,0,1"


@pytest.mark.parametrize("N", [65536, 65537])
def test_terms_text_across_write_chunks(capsys, N):
    from dgf.catalog import make
    from dgf.sequences import terms
    rc, out, _ = run(capsys, ["terms", "sigma(1)", "-n", str(N)])
    assert rc == 0
    assert out == ",".join(str(v) for v in terms(make("sigma", 1), N)) + "\n"


def test_factorize_transcript(capsys):
    rc, out, _ = run(capsys, ["factorize", "mu^2 * phi", "--order", "5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].count("(1 ") == 12
    assert lines[0].endswith("...")
    assert lines[1] == "truncated at order 5"
    assert lines[2] == "abscissa: 2"


def test_bell_transcript(capsys):
    rc, out, _ = run(capsys, ["bell", "phi", "-K", "3"])
    assert rc == 0
    assert out.splitlines() == [
        "(1 - x)/(1 - p*x)",
        "series: 1, p-1, p^2-p, p^3-p^2",
    ]


def test_eval_transcript(capsys):
    rc, out, _ = run(capsys, ["eval", "sigma(1)", "--s", "3"])
    assert rc == 0
    assert out.startswith("1.9773043503 (error <= ")
    assert "zeta_form" in out
    rc, out, _ = run(capsys, ["eval", "sigma(1)", "--s", "3",
                              "--method", "euler", "-P", "2000"])
    assert rc == 0 and "euler_product+wynn" in out
    rc, out, _ = run(capsys, ["eval", "sigma(1)", "--s", "3",
                              "--method", "sum", "-N", "5000"])
    assert rc == 0 and "partial_sum" in out


def test_exit_code_usage(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["nope"])[0] == 1
    rc, _, err = run(capsys, ["terms", "phi"])
    assert rc == 1
    assert "required: -n/--count" in err


@pytest.mark.parametrize("argv", [
    ["terms", "phi", "-n", "-3"],
    ["terms", "phi", "-n", "0"],
    ["bell", "phi", "-K", "-2"],
    ["factorize", "phi", "-U", "-1"],
    ["factorize", "phi", "-U", "0"],
    ["verify", "phi", "-n", "0"],
    ["verify", "phi", "-U", "-1"],
    ["factorize", "phi", "-U", "65"],       # above the peeling order bound
    ["verify", "phi", "-U", "65"],
    ["eval", "sigma(1)", "--s", "3", "--method", "euler", "-P", "1"],
    ["eval", "phi", "--s", "3", "--method", "sum", "-N", "0"],
    ["eval", "phi", "--s", "nan"],
    ["eval", "phi", "--s", "inf"],
    ["terms", "phi", "-n", "20000000"],     # above the sieve limit
    ["eval", "sigma(1)", "--s", "3", "--method", "euler", "-P", "20000000"],
])
def test_exit_code_bad_counts_and_s(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("dgf %s: error: argument " % argv[0])
    assert "Traceback" not in err


def test_exit_code_expression_errors(capsys):
    rc, _, err = run(capsys, ["terms", "sigma(", "-n", "5"])
    assert rc == 2
    assert err.strip() == "parse error: col 7: expected an integer"
    rc, _, err = run(capsys, ["terms", "bogus", "-n", "5"])
    assert rc == 2
    assert err.strip() == "error: unknown function 'bogus'"
    # refused before a power node of that many operands is made
    rc, out, err = run(capsys, ["bell", "phi^99999999999999999999"])
    assert (rc, out) == (2, "")
    assert err == "parse error: col 5: exponent must be at most 4096\n"


@pytest.mark.parametrize("src,msg", [
    ("sigma(%s)" % ("9" * 5000),
     "col 7: parameter must be at most 1000000000000000000"),
    ("shift(phi, %s)" % ("9" * 5000), "col 12: shift amount must be at most 4096"),
    # refused before a shift by p^(10^12) is built
    ("shift(phi, 1000000000000)", "col 12: shift amount must be at most 4096"),
], ids=["param-5000-digits", "shift-5000-digits", "shift-10^12"])
def test_exit_code_oversized_integer_tokens(capsys, src, msg):
    rc, out, err = run(capsys, ["terms", src, "-n", "5"])
    assert (rc, out) == (2, "")
    assert err == "parse error: %s\n" % msg


@pytest.mark.parametrize("src,col", [("sigma(²)", 7), ("phi^²", 5),
                                     ("shift(phi, ¹)", 12)])
def test_exit_code_unicode_digits(capsys, src, col):
    # str.isdigit takes superscripts, which int() refuses: no traceback
    rc, out, err = run(capsys, ["terms", src, "-n", "5"])
    assert (rc, out) == (2, "")
    assert err == "parse error: col %d: unexpected character %r\n" % (
        col, src[col - 1])


def _int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_exact_values_past_the_int_str_limit(capsys):
    # a(2) = 2^30000 has 9,031 digits, past the interpreter's default
    # limit of 4300; main lifts it for the call and restores it
    limit = _int_str_limit()
    rc, out, err = run(capsys, ["terms", "power(30)^1000", "-n", "2"])
    assert (rc, err) == (0, "")
    one, a2 = out.rstrip("\n").split(",")
    assert one == "1" and len(a2) == 9031
    assert int(a2[-4000:]) == pow(2, 30000, 10**4000)
    assert _int_str_limit() == limit
    rc, out, err = run(capsys, ["terms", "power(30)^1000", "-n", "2",
                                "--json"])
    assert (rc, err) == (0, "")
    assert json.loads(out, parse_int=str) == ["1", a2]
    rc, out, err = run(capsys, ["bell", "const(1000000)^1000"])
    assert (rc, err) == (0, "")
    assert out.startswith("(1)/(1 - 1%s*x)\n" % ("0" * 6000))
    assert _int_str_limit() == limit


def test_terms_of_a_high_degree_in_p(capsys):
    # a(p) = p^122880: block Horner in p over that many stages once
    # recursed in C past the stack (a segmentation fault)
    rc, out, err = run(capsys, ["terms", "power(30)^4096", "-n", "3"])
    assert (rc, err) == (0, "")
    assert [len(v) for v in out.rstrip("\n").split(",")] == [1, 36991, 58629]


# expressions once refused as nested too deeply: 10,000 levels of a
# left-nested chain, of parentheses and of nested inverses, each phi
# again, and a chain of 200 convolutions.  From the text to the value
# nothing recurses per level, so each answers as its shallow equivalent
DEEP_CHAIN = "phi" + " * one" * 10000
DEEP_PARENS = "(" * 10000 + "phi" + ")" * 10000
DEEP_INV = "inv(" * 10000 + "phi" + ")" * 10000


def _balanced(names: list[str]) -> str:
    """The convolution of names, parenthesised to depth log2 len(names)."""
    if len(names) == 1:
        return names[0]
    h = len(names) // 2
    return "(%s <*> %s)" % (_balanced(names[:h]), _balanced(names[h:]))


TERMS = ["terms", "-n", "100"]


@pytest.mark.parametrize("cmd,text,shallow", [
    (TERMS, DEEP_CHAIN, "phi"), (["bell"], DEEP_CHAIN, "phi"),
    (["zetaform"], DEEP_CHAIN, "phi"), (TERMS, DEEP_PARENS, "phi"),
    (["bell"], "mu" + " <*> one" * 200, _balanced(["mu"] + ["one"] * 200)),
    (["bell"], DEEP_PARENS, "phi"), (["zetaform"], DEEP_PARENS, "phi"),
    (TERMS, DEEP_INV, "phi"), (["bell"], DEEP_INV, "phi"),
    (["zetaform"], DEEP_INV, "phi"),
], ids=["terms-chain", "bell-chain", "zetaform-chain", "terms-parens",
        "bell-chain-201", "bell-parens", "zetaform-parens", "terms-inv",
        "bell-inv", "zetaform-inv"])
def test_exit_code_expression_too_deep(capsys, cmd, text, shallow):
    rc, out, err = run(capsys, [*cmd, text])
    assert (rc, err) == (0, "")
    assert (rc, out, err) == run(capsys, [*cmd, shallow])


def test_terms_of_a_deep_convolution_chain(capsys):
    # mu <*> one^2000 has the Bell series 1/(1 - x)^1999: a(p) = 1999 and
    # a(p^2) = C(2000, 2)
    rc, out, err = run(capsys, ["terms", "mu" + " <*> one" * 2000, "-n", "20"])
    assert (rc, err) == (0, "")
    a = [int(v) for v in out.split(",")]
    assert (a[1], a[3]) == (1999, math.comb(2000, 2))


def test_exit_code_shift_not_integral_at_an_exceptional_prime(capsys):
    # lcmc(2) shifted by p^-1 has no a(2) at p = 2 (its zeta form is
    # unknown: test_euler); the message names the first exponent that
    # fails, whichever coefficient a command asks for first
    for n in ("10", "3"):
        rc, out, err = run(capsys, ["terms", "shift(lcmc(2), -1)", "-n", n])
        assert (rc, out) == (3, "")
        assert err == "error: shift by -1 not integral at p=2, e=1\n"
    for cmd in (["terms", "-n", "5"], ["bell"]):
        rc, out, err = run(capsys, [*cmd, "shift(phi, -2)"])
        assert (rc, out) == (3, "")
        assert err == "error: shift by -2 not integral at e=1\n"


def test_exit_code_math_errors(capsys):
    rc, _, err = run(capsys, ["eval", "sigma(1)", "--s", "2"])
    assert rc == 3
    assert "not beyond the abscissa" in err
    # the refusal names the s given, not its %g rounding, and the margin
    for method in ("auto", "euler", "sum"):
        rc, out, err = run(capsys, ["eval", "mu", "--s", "1.0000001",
                                    "--method", method])
        assert (rc, out) == (3, "")
        assert err == "error: s = 1.0000001 is not beyond the abscissa 1 " \
            "by more than 1e-06\n"


@pytest.mark.parametrize("argv", [
    ["eval", "sigma(30)^3", "--s", "200"],
    ["eval", "sigma(30)^3", "--s", "200", "--method", "euler"],
    ["eval", "sigma(30)^3", "--s", "200", "--method", "sum"],
    ["eval", "sigma(30)*sigma(29)*sigma(28)", "--s", "100"],
    ["eval", "sigma(30)^3", "--s", "200.0000001"],
])
def test_exit_code_values_too_wide_for_a_float(capsys, argv):
    # the refusal names s by repr, as given: 200.0, not 200
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "")
    assert err == "error: s = %r: exact values too large for floating " \
        "point\n" % float(argv[3])


@pytest.mark.parametrize("method", ["auto", "euler", "sum"])
@pytest.mark.parametrize("src", ["power(30)^2 * gcdc(524288)",
                                 "inv(power(30)^2 * gcdc(524288))"])
def test_local_factor_too_wide_for_a_float_is_evaluated_exactly(capsys, src,
                                                                 method):
    # the factor at 2 has coefficients up to 2^1159 in its num (in its den
    # under inv, which the pole test reads), past a double, yet at x =
    # 2^-200 its value is 1 +- 1.4e-42 (mpmath); the generic primes of the
    # Euler product and the sum's terms stay within a double here
    rc, out, _ = run(capsys, ["eval", src, "--s", "200", "--method", method])
    assert rc == 0
    value, err = (float(v) for v in
                  re.match(r"(\S+) \(error <= (\S+),", out).groups())
    assert abs(value - 1.0) <= err


@pytest.mark.parametrize("argv", [
    ["eval", "const(3)", "--s", "1.2"],
    ["eval", "const(3)", "--s", "1.2", "--method", "sum"],
    ["eval", "const(1000000)", "--s", "1.5"],
    ["eval", "inv(periodic2(1000000))", "--s", "2"],         # zeta form
    # 1/(1 - 3x)^2 at p = 2: a double pole keeps the den's sign at +-x
    ["eval", "const(3) <*> const(3)", "--s", "1.2"],
    ["eval", "const(3) <*> const(3)", "--s", "1.2", "--method", "sum"],
    ["eval", "const(3)", "--s", "1.20000001"],     # not s = 1.2, as %g says
])
def test_exit_code_real_pole_at_two(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "")
    assert err == "error: s = %r: the Euler factor at p = 2 has a real " \
        "pole with |x| <= 2^-s\n" % float(argv[3])


@pytest.mark.parametrize("method", ["auto", "euler", "sum"])
def test_eval_refuses_where_no_series_is_known(capsys, method):
    # a(p^56) = sigma(p^56)^10 makes the series diverge below s ~ 10, yet
    # its first terms are those of 1: a sum over them proves nothing
    rc, out, err = run(capsys, ["eval", "(eps(7)*eps(8)) * sigma(1)^10",
                                "--s", "2", "--method", method])
    assert (rc, out) == (3, "")
    assert err == "error: no Bell series known, so no Euler factor can " \
        "be evaluated\n"


def test_exit_code_any_library_error(capsys, monkeypatch):
    def over_limit(*args):
        raise SieveLimitError("sieve limit exceeded")

    monkeypatch.setattr(cli, "terms", over_limit)
    rc, out, err = run(capsys, ["terms", "phi", "-n", "5"])
    assert (rc, out, err) == (3, "", "error: sieve limit exceeded\n")
    # a series not starting at 1 reaches the peel
    monkeypatch.setattr(cli, "factor_bell",
                        lambda f, U: euler_expand([PrimePoly.zero], U))
    rc, out, err = run(capsys, ["factorize", "phi"])
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_bfile_mismatch(capsys, tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("1 1\n2 9\n")
    rc, _, err = run(capsys, ["terms", "phi", "-n", "5", "--bfile", str(p)])
    assert rc == 4
    assert err.startswith("verification failed: line 2:")


def test_exit_code_bfile_starts_beyond_terms(capsys, tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# phi from 5\n5 4\n6 2\n")
    rc, _, err = run(capsys, ["terms", "phi", "-n", "3", "--bfile", str(p)])
    assert rc == 4
    assert err.startswith("verification failed: line 2: "
                          "index 5 exceeds the 3 computed terms")


@pytest.mark.parametrize("argv", [["terms", "phi", "-n", "3"],
                                  ["verify", "phi", "-n", "3"]],
                         ids=["terms", "verify"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_exit_code_unreadable_bfile(capsys, tmp_path, argv, kind):
    # the b-file is read before any work: nothing is printed, and the one
    # stderr line names the file
    p = tmp_path / "b.txt"
    if kind == "directory":
        p.mkdir()
    elif kind == "not-utf-8":
        p.write_bytes(b"1 1\n\xff2 1\n")
    rc, out, err = run(capsys, argv + ["--bfile", str(p)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: cannot read b-file %s: " % p)
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_terms_bfile_ok(capsys, tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# phi\n1 1\n2 1\n3 2\n4 2\n5 4\n")
    rc, out, _ = run(capsys, ["terms", "phi", "-n", "5", "--bfile", str(p)])
    assert rc == 0
    assert "1,1,2,2,4" in out


def test_factorize_json_schema(capsys):
    for expr in ["phi", "mu^2 * phi", "sigma(1) <*> jordan(2)", "liouville"]:
        rc, out, _ = run(capsys, ["factorize", expr, "--json"])
        assert rc == 0
        doc = json.loads(out)
        jsonschema.validate(doc, FACTORIZE_SCHEMA)
    rc, out, _ = run(capsys, ["factorize", "phi", "--json"])
    doc = json.loads(out)
    assert doc["truncated_at"] is None
    assert doc["abscissa"] == "2"
    assert doc["factors"][0] == {"S": 1, "l": 1, "u": 1, "gamma": -1}


def test_zetaform_json_schema(capsys):
    for expr in ["phi", "gcdc(4)", "sigma_star_odd(1)", "tfull_count(2)"]:
        rc, out, _ = run(capsys, ["zetaform", expr, "--json"])
        assert rc == 0
        jsonschema.validate(json.loads(out), ZETAFORM_SCHEMA)
    rc, out, _ = run(capsys, ["zetaform", "gcdc(4)", "--json"])
    doc = json.loads(out)
    assert doc["local"] == [{"prime": 2, "poly": [[1, 0], [1, 1], [2, 2]]}]


def test_terms_json(capsys):
    rc, out, _ = run(capsys, ["terms", "mu", "-n", "6", "--json"])
    assert rc == 0
    assert json.loads(out) == [1, -1, -1, 0, -1, 1]


def test_catalog_listing(capsys):
    rc, out, _ = run(capsys, ["catalog"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 44
    assert any(line.startswith("phi ") or line.startswith("phi(")
               for line in lines)


def test_catalog_detail(capsys):
    rc, out, _ = run(capsys, ["catalog", "sigma"])
    assert rc == 0
    assert out.splitlines()[0] == "sigma: sum of k-th powers of divisors"
    assert "parameter k in [0, 30]" in out


@pytest.mark.parametrize("argv,msg", [
    (["sigma", "99"], "sigma: parameter k=99 out of range [0, 30]"),
    (["gcdc", "0"], "gcdc: parameter c=0 out of range [1, 1000000]"),
    (["depleted", "4", "1"], "depleted: parameter q=4 must be prime"),
    (["sigma", "1", "2"], "sigma takes parameters (k), got 2 value(s)"),
])
def test_catalog_bad_args_write_nothing(capsys, argv, msg):
    rc, out, err = run(capsys, ["catalog", *argv])
    assert rc == 2
    assert out == ""
    assert err == "error: %s\n" % msg


def test_catalog_json(capsys):
    rc, out, _ = run(capsys, ["catalog", "--json"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 44
    sig = next(r for r in rows if r["name"] == "sigma")
    assert sig["params"] == [{"name": "k", "min": 0, "max": 30, "prime": False}]
    assert sig["summary"]


def test_verify_transcript(capsys):
    rc, out, _ = run(capsys, ["verify", "phi", "-n", "50"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok  ") for line in lines)


def test_verify_names_the_series_it_checks(capsys):
    # with no rational Bell series the two lines read the rule's own series:
    # the termwise product's den (1 - x^56)...(1 - p^560 x^56) is past the
    # work bound, and the cap refit's 1 is not taken
    rc, out, _ = run(capsys, ["verify", "(eps(7)*eps(8)) * sigma(1)^10",
                              "-n", "200"])
    assert rc == 0
    assert out.splitlines() == [
        "ok   Euler factors multiply back to the prime-power rule's series",
        "ok   values match the prime-power rule's series at every prime "
        "power"]
    rc, out, _ = run(capsys, ["verify", "mu_star", "-n", "200"])
    assert rc == 0
    assert out.splitlines() == [
        "ok   closed Bell series matches the prime-power rule",
        "ok   Euler factors multiply back to the Bell series",
        "ok   values match the Bell series at every prime power"]


def test_verify_catches_non_multiplicative_values(capsys, monkeypatch):
    terms, factor_bell = cli.terms, cli.factor_bell

    def bump_term(n):
        def corrupted(*args):
            seq = terms(*args)
            seq[n - 1] += 1
            return seq
        return corrupted

    def bump_first_gamma(*args):
        efl = factor_bell(*args)
        g = efl.factors[0]
        return EulerFactorList([g._replace(gamma=g.gamma + 1)]
                               + efl.factors[1:], efl.truncated_at)

    # a(6) of phi, a coprime product, against its zeta form; a(4) of
    # mu_star, which has no zeta form, against its Bell series
    for expr, name, patch, label in [
            ("phi", "terms", bump_term(6),
             "zeta form reproduces the first 50 terms"),
            ("mu_star", "terms", bump_term(4),
             "values match the Bell series at every prime power"),
            ("mu_star", "factor_bell", bump_first_gamma,
             "Euler factors multiply back to the Bell series")]:
        with monkeypatch.context() as m:
            m.setattr(cli, name, patch)
            rc, out, _ = run(capsys, ["verify", expr, "-n", "50"])
        assert rc == 4, expr
        assert ["FAIL " + label] == [line for line in out.splitlines()
                                     if line.startswith("FAIL")]


@pytest.mark.parametrize("argv, counted", [
    (["eval", "sigma(1)", "--s", "3"], "finite_zeta_form"),
    (["eval", "sigma(1)", "--s", "3", "--method", "zeta"], "finite_zeta_form"),
    (["verify", "phi", "-n", "50"], "terms"),
])
def test_cli_computes_once(capsys, monkeypatch, argv, counted):
    calls = Counter()
    step = getattr(cli, counted)

    def counting(*args):
        calls[counted] += 1
        return step(*args)

    monkeypatch.setattr(cli, counted, counting)
    rc, _, _ = run(capsys, argv)
    assert rc == 0 and calls[counted] == 1


def test_verify_every_catalog_entry(capsys):
    for name, args in GRID_ONE_PER_NAME:
        expr = name if not args else \
            "%s(%s)" % (name, ",".join(map(str, args)))
        rc, out, _ = run(capsys, ["verify", expr, "-n", "60", "-U", "5"])
        assert rc == 0, "verify failed for %s:\n%s" % (expr, out)
        assert "FAIL" not in out
