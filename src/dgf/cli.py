"""Command-line interface.

Exit codes: 0 success, 1 usage problems or an output pipe closed by its
reader (`dgf terms ... | head`), 2 expression errors, 3 math-domain
errors (non-integral shifts, divergent evaluation points, no known Bell
series or zeta form to evaluate, values too large for a float), 4
verification mismatches.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bell import MAX_ORDER
from .catalog import CATALOG, make
from .errors import (BFileError, CatalogError, DegreeBoundError, DgfError,
                     ParseError)
from .euler import (INFINITE, UNKNOWN, ZetaForm, abscissa, factor_bell,
                    finite_zeta_form, round_trips, zeta_factors_from_euler,
                    zeta_form_to_coeffs)
from .numeric import eval_euler_product, eval_partial_sum, eval_zeta_form
from .parser import parse_function
from .sequences import MAX_SIEVE, compare_bfile, matches_bell, terms


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi], checked before any work."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % text) from None
        if v < lo or (hi is not None and v > hi):
            want = ">= %d" % lo if hi is None else "in [%d, %d]" % (lo, hi)
            raise argparse.ArgumentTypeError("must be %s, got %d" % (want, v))
        return v
    return parse


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("need a finite number, got %r" % text)
    return v


def _cmd_catalog(ns) -> int:
    if not ns.name:
        if ns.json:
            rows = [{"name": name,
                     "params": [{"name": p.name, "min": p.lo, "max": p.hi,
                                 "prime": p.prime}
                                for p in CATALOG[name].params],
                     "summary": CATALOG[name].summary}
                    for name in sorted(CATALOG)]
            print(json.dumps(rows, indent=2))
            return 0
        width = max(len(n) for n in CATALOG)
        for name in sorted(CATALOG):
            entry = CATALOG[name]
            sig = name
            if entry.params:
                sig += "(%s)" % ",".join(p.name for p in entry.params)
            print("%-*s  %s" % (width + 10, sig, entry.summary))
        return 0
    entry = CATALOG.get(ns.name)
    if entry is None:
        raise CatalogError("unknown function %r" % ns.name)
    # the arguments are checked before anything is written
    f = entry.make(*ns.args) if ns.args or not entry.params else None
    print("%s: %s" % (ns.name, entry.summary))
    for p in entry.params:
        extra = ", prime" if p.prime else ""
        print("  parameter %s in [%d, %d]%s" % (p.name, p.lo, p.hi, extra))
    if f is not None:
        print("  bell series: %s" % (f.bell or UNKNOWN))
        zf = finite_zeta_form(f)
        print("  dirichlet series: %s" % zf)
    return 0


def _cmd_bell(ns) -> int:
    f = parse_function(ns.expr)
    # both lines are built before either is written: the series can fail
    # where the Bell series did not
    ser = f.series(ns.K)
    print("%s\nseries: %s" % (f.bell or UNKNOWN,
                              ", ".join(str(c) for c in ser)))
    return 0


def _print_abscissa(factors: list) -> None:
    print("abscissa: %s" % (abscissa(factors) if factors
                            else "0 (empty product)"))


def _cmd_factorize(ns) -> int:
    f = parse_function(ns.expr)
    efl = factor_bell(f, ns.U)
    if ns.json:
        doc = efl.to_json()
        doc["abscissa"] = str(abscissa(efl))
        print(json.dumps(doc, indent=2))
        return 0
    print(efl)
    if efl.truncated_at is not None:
        print("truncated at order %d" % efl.truncated_at)
    _print_abscissa(efl.factors)
    return 0


def _cmd_zetaform(ns) -> int:
    f = parse_function(ns.expr)
    zf = finite_zeta_form(f)
    if ns.json:
        if not isinstance(zf, ZetaForm):  # "infinite" or "unknown"
            print(json.dumps({zf: True}))
        else:
            print(json.dumps(zf.to_json(), indent=2))
        return 0
    print(zf)
    if isinstance(zf, ZetaForm):
        _print_abscissa(zf.zeta_factors)
    return 0


def _cmd_terms(ns) -> int:
    f = parse_function(ns.expr)
    vals = terms(f, ns.count)
    if ns.json:
        print(json.dumps(vals))
    else:
        # a chunk of values per write, so that the text never exists whole
        step = 1 << 16
        for i in range(0, len(vals), step):
            sys.stdout.write(("," if i else "")
                             + ",".join(map(str, vals[i:i + step])))
        sys.stdout.write("\n")
    if ns.bfile is not None:
        compare_bfile(ns.bfile, vals)
        print("b-file check passed", file=sys.stderr)
    return 0


def _cmd_eval(ns) -> int:
    f = parse_function(ns.expr)
    method = ns.method
    zf = finite_zeta_form(f) if method in ("auto", "zeta") else None
    if method == "auto":
        method = "zeta" if isinstance(zf, ZetaForm) else "euler"
    if method == "zeta":
        if not isinstance(zf, ZetaForm):
            raise DegreeBoundError(
                "no finite zeta form; use --method euler or sum"
                if zf == INFINITE else "no zeta form known")
        res = eval_zeta_form(zf, ns.s)
    elif method == "euler":
        res = eval_euler_product(f, ns.s, P=ns.P, accel=ns.accel)
    else:
        res = eval_partial_sum(f, ns.s, N=ns.N)
    print(res)
    return 0


def _cmd_verify(ns) -> int:
    f = parse_function(ns.expr)
    failed = []

    def check(label, ok):
        print("%s %s" % ("ok  " if ok else "FAIL", label))
        if not ok:
            failed.append(label)

    b = f.bell
    if b is not None:
        check("closed Bell series matches the prime-power rule",
              b.matches(f.series(ns.U + 6)))
    # without a rational Bell series the two checks below compare with
    # the series of the rule the function was built from
    series = ("the Bell series" if b is not None
              else "the prime-power rule's series")
    efl = factor_bell(f, ns.U)
    check("Euler factors multiply back to %s" % series,
          round_trips(efl, f.series(ns.U)) and efl.residual_ok)
    zf = finite_zeta_form(f)
    seq = terms(f, ns.count)
    if isinstance(zf, ZetaForm):
        check("zeta form reproduces the first %d terms" % ns.count,
              zeta_form_to_coeffs(zf, ns.count) == seq)
        conv = [z for z in zeta_factors_from_euler(efl) if z.u <= ns.U]
        want = [z for z in zf.zeta_factors if z.u <= ns.U]
        check("Euler factors agree with the zeta form through order %d" % ns.U,
              sorted((z.u, z.l, z.gamma) for z in conv) ==
              sorted((z.u, z.l, z.gamma) for z in want))
    check("values match %s at every prime power" % series,
          matches_bell(f, seq))
    if ns.bfile is not None:
        compare_bfile(ns.bfile, seq)
        print("ok   b-file values match")
    return 4 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgParser(prog="dgf", description=__doc__.splitlines()[0]
                   if __doc__ else None)
    sub = p.add_subparsers(dest="command", parser_class=_ArgParser)

    c = sub.add_parser("catalog", help="list built-in functions")
    c.add_argument("name", nargs="?", help="entry to describe")
    c.add_argument("args", nargs="*", type=int, help="parameter values")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_catalog)

    c = sub.add_parser("bell", help="Bell series of an expression")
    c.add_argument("expr")
    c.add_argument("-K", "--order", dest="K", type=_int_in(0), default=8,
                   help="series order (default 8)")
    c.set_defaults(func=_cmd_bell)

    c = sub.add_parser("factorize", help="Euler product factorisation")
    c.add_argument("expr")
    c.add_argument("-U", "--order", dest="U", type=_int_in(1, MAX_ORDER),
                   default=8, help="peel factors up to x^U (default 8)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_factorize)

    c = sub.add_parser("zetaform", help="finite zeta-product form")
    c.add_argument("expr")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_zetaform)

    c = sub.add_parser("terms", help="sequence values a(1..N)")
    c.add_argument("expr")
    c.add_argument("-n", "--count", type=_int_in(1, MAX_SIEVE), required=True)
    c.add_argument("--bfile", help="compare against a b-file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_terms)

    c = sub.add_parser("eval", help="numeric value of the Dirichlet series")
    c.add_argument("expr")
    c.add_argument("-s", "--s", dest="s", type=_finite_float, required=True)
    c.add_argument("--method", choices=["auto", "zeta", "euler", "sum"],
                   default="auto")
    c.add_argument("-P", "--primes", dest="P", type=_int_in(2, MAX_SIEVE),
                   default=10**5,
                   help="prime bound for --method euler; unused where the "
                   "Bell series splits exactly into binomials, whose "
                   "product runs over all primes")
    c.add_argument("-N", "--sum", dest="N", type=_int_in(1, MAX_SIEVE),
                   default=10**4, help="term bound for --method sum")
    c.add_argument("--accel", "--accelerate", dest="accel",
                   choices=["wynn", "none"], default="wynn")
    c.set_defaults(func=_cmd_eval)

    c = sub.add_parser("verify", help="internal consistency checks")
    c.add_argument("expr")
    c.add_argument("-n", "--count", type=_int_in(1, MAX_SIEVE), default=200)
    c.add_argument("-U", "--order", dest="U", type=_int_in(1, MAX_ORDER),
                   default=6)
    c.add_argument("--bfile", help="also compare against a b-file")
    c.set_defaults(func=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if not getattr(ns, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    # read before any work, so an unreadable b-file stops the command first
    if getattr(ns, "bfile", None) is not None:
        try:
            ns.bfile = Path(ns.bfile).read_text("utf-8").splitlines()
        except (OSError, UnicodeError) as e:
            print("error: cannot read b-file %s: %s"
                  % (ns.bfile, getattr(e, "strerror", None) or e),
                  file=sys.stderr)
            return 1
    # exact values are printed in full: the interpreter's limit on int-to-str
    # digits (Python >= 3.10.7) is lifted for the command and restored after
    # it, so callers in the same process keep theirs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = ns.func(ns) or 0
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early: the rest of the output goes to devnull,
        # so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except CatalogError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BFileError as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return 4
    except DgfError as e:
        # any other library error is a math-domain one, never a traceback
        print("error: %s" % e, file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
