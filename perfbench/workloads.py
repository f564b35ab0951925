"""The four seeded workloads: inputs, one operation each, and its check.

Each workload is an object with `ops(rng)`, which makes the run's set of
`Op`s from the seed.  The set has a fixed make-up (the seed only picks
atoms, parameters, sizes and order inside it), so every seed gets the
same mix; the runner times every op of the set several times.
`Op.run()` is the timed call; `Op.check(out)` compares its output with
references from `refs.py` and returns a failure reason or None.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import refs
from refs import Evaluator, check_primes, text

# ---------------------------------------------------------------------------
# atom pools (every parameter inside its catalog range)


def A(name, *args):
    return ("atom", name, tuple(args))


def conv(a, b):
    return ("conv", a, b)


def mul(a, b):
    return ("mul", a, b)


MU2 = ("pow", A("mu"), 2)


class Deck:
    """Deals its items in a seeded shuffled order and reshuffles when empty,
    so every item comes up about equally often on every seed; an item
    that is itself a Deck deals one of its own items."""

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        item = self.left.pop()
        return item.draw() if isinstance(item, Deck) else item


class Pools:
    """Atom pools, each dealt from a deck so that the mix of atoms, and
    with it the cost of a run, varies little between seeds."""

    def __init__(self, rng):
        self.rng = rng

        def D(*items):
            return Deck(rng, items)

        # Bell series with a denominator of degree <= 1
        self.deg1 = D(A("phi"), A("id"), A("dedekind"), A("liouville"),
                      A("one"), D(A("jordan", 2), A("jordan", 3)),
                      D(A("psi_k", 2), A("psi_k", 3)),
                      D(A("power", 2), A("power", 3))).draw
        # Bell series with a denominator of degree 2
        self.deg2 = D(A("sigma", 1), A("sigma", 2), A("sigma", 3),
                      A("core", 2), A("tau", 2), A("sigma_star", 1),
                      A("sigma_star", 2)).draw
        # atoms that override the generic rule at a few primes
        ex = D(D(*(A("gcdc", c) for c in (6, 12, 30, 60, 360))),
               D(*(A("lcmc", c) for c in (6, 12, 30))),
               D(*(A("periodic4", a, b)
                   for a in range(2, 10) for b in range(2, 10))),
               D(*(A("depleted", q, k) for q in (2, 3, 5) for k in (1, 2, 3))),
               D(*(A("ramanujan", c) for c in (6, 12, 30))))
        self.exceptional = ex.draw
        # atoms with no exceptional prime and a cheap value, for sequences
        self.plain = D(A("sigma", 1), A("phi"), A("tau", 2), A("core", 2),
                       A("jordan", 2), A("dedekind"), A("liouville"),
                       A("mu")).draw
        kinds = D(self.deg1, self.deg2, self.exceptional)
        self.any = lambda: kinds.draw()()


# ---------------------------------------------------------------------------


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    terms: int = 0                      # a(n) values the op produces
    keys: tuple = ()                    # atoms and subexpressions it uses
    digits: list = field(default_factory=list)   # filled by check
    group: object = None                # numeric points without a reference


def _mismatch(what, p, got, want):
    for e, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return "%s at p=%d differs at x^%d: got %s, want %s" % (
                what, p, e, g, w)
    return None


def bell_at(b, p: int, K: int) -> list[int]:
    """Bell series of a BellRational at a concrete prime, to order K."""
    num = [c.evaluate(p) for c in b.num.coeffs]
    den = [c.evaluate(p) for c in b.den.coeffs]
    return refs.ser_div(num, den, K)


def local_series(local: dict, K: int) -> list[int]:
    num = [0] * (K + 1)
    for c, j in local["poly"]:
        if j <= K:
            num[j] += c
    den = [1] + [0] * K
    if "den_poly" in local:
        den = [0] * (K + 1)
        for c, j in local["den_poly"]:
            if j <= K:
                den[j] += c
    return refs.ser_div(num, den, K)


def check_zeta_json(doc: dict, node, ev: Evaluator, K: int) -> str | None:
    """A zeta form (as to_json() writes it) against definition values."""
    zeta = [(z["u"], z["l"], z["gamma"]) for z in doc["zeta"]]
    for p in check_primes(node):
        bad = _mismatch("zeta form", p, refs.zeta_series(zeta, p, K),
                        refs.definition_series(ev, p, K))
        if bad:
            return bad
    locs = {lf["prime"]: lf for lf in doc["local"]}
    for q in sorted(refs.exceptional_primes(node) | set(locs)):
        got = refs.zeta_series(zeta, q, K)
        if q in locs:
            got = refs.ser_mul(got, local_series(locs[q], K), K)
        bad = _mismatch("zeta form", q, got, refs.definition_series(ev, q, K))
        if bad:
            return bad
    return None


def check_factors_json(doc: dict, node, ev: Evaluator, U: int) -> str | None:
    for p in check_primes(node):
        bad = _mismatch("Euler factors", p,
                        refs.euler_series(doc["factors"], p, U),
                        refs.definition_series(ev, p, U))
        if bad:
            return bad
    return None


def catalog_entry(node):
    from dgf.catalog import CATALOG
    return CATALOG[node[1]]


# ---------------------------------------------------------------------------
# symbolic


class Symbolic:
    """parse_function -> .bell -> factor_bell(U=8) -> finite_zeta_form."""

    K = 10  # Bell coefficients checked per prime
    U = 8

    LIGHT_SETS = 14  # twice the deg2 atoms, so each shape meets each twice

    # depth 0-3 and 1-2 pointwise products, exceptional atoms too; each
    # shape gets LIGHT_SETS expressions from pools of its own, so that it
    # meets every atom about equally often on every seed
    SHAPES = (
        lambda P, k: P.any(),                                    # depth 0
        lambda P, k: P.exceptional(),
        lambda P, k: conv(P.deg1(), P.deg2()),                   # depth 1
        lambda P, k: ("uconv", P.deg1(), P.deg1()),
        lambda P, k: conv(("inv", P.deg1()), P.exceptional()),   # depth 2
        lambda P, k: ("uconv", ("shift", P.deg1(), 1 + k % 2), A("mu")),
        lambda P, k: conv(("inv", conv(P.deg1(), P.deg2())),     # depth 3
                          ("uconv", P.deg1(), A("mu"))),
        lambda P, k: mul(P.deg1(), P.deg2()),                    # 1 product
        lambda P, k: mul(mul(P.deg1(), P.deg1()), P.deg2()),     # 2 products
        lambda P, k: mul(P.exceptional(), P.deg1()),
        lambda P, k: mul(conv(P.deg1(), P.deg2()), MU2),
    )

    @staticmethod
    def heavy():
        """The two slow mechanisms: closure recomputation at depth 4 and a
        Pade refit of degree 16 (three products).  Their cost depends on
        the order of the factors, so the order is fixed."""
        c = [A("phi"), A("sigma", 1), A("tau", 2), A("core", 2)]
        s = [A("sigma", k) for k in (1, 2, 3, 4)]
        return [mul(conv(conv(conv(c[0], c[1]), c[2]), c[3]), MU2),
                mul(mul(mul(s[0], s[1]), s[2]), s[3])]

    def ops(self, rng):
        # the two heavy ops sit above the 90th percentile of 156, so the
        # latency tail is always a light op
        nodes = []
        for shape in self.SHAPES:
            P = Pools(rng)
            nodes += [shape(P, k) for k in range(self.LIGHT_SETS)]
        nodes += self.heavy()
        rng.shuffle(nodes)
        return [self.op(node) for node in nodes]

    def op(self, node) -> Op:
        from dgf import euler, parser
        src = text(node)

        # attribute lookups at call time, so traced runs see the wrappers
        def run():
            f = parser.parse_function(src)
            b = f.bell
            return b, euler.factor_bell(f, self.U), euler.finite_zeta_form(f)

        return Op(src, run, lambda out: self.check(node, out),
                  keys=tuple(refs.subexpressions(node)))

    def check(self, node, out) -> str | None:
        b, efl, zf = out
        ev = Evaluator(node)
        K = self.K
        if b is None:
            return "no rational Bell series (every atom has one)"
        for p in check_primes(node):
            want = refs.definition_series(ev, p, K)
            bad = _mismatch("Bell series", p, bell_at(b, p, K), want)
            if bad:
                return bad
            if node[0] == "atom":
                closed = catalog_entry(node).closed_bell(*node[2])
                if closed is not None:
                    bad = _mismatch("closed_bell", p, bell_at(closed, p, K),
                                    want)
                    if bad:
                        return bad
        doc = efl.to_json()
        bad = check_factors_json(doc, node, ev, self.U)
        if bad:
            return bad
        if not getattr(efl, "residual_ok", True):
            return "Euler peel left a residual"
        finite = not isinstance(zf, str)
        if finite:
            bad = check_zeta_json(zf.to_json(), node, ev, K)
            if bad:
                return bad
        if node[0] == "atom":
            expected = catalog_entry(node).expected_zeta(*node[2])
            if expected == "infinite" and finite:
                return "zeta form found where the catalog expects none"
            if isinstance(expected, list):
                if not finite:
                    return "no zeta form; catalog expects %s" % (expected,)
                got = sorted((z["u"], z["l"], z["gamma"])
                             for z in zf.to_json()["zeta"])
                if got != sorted(expected):
                    return "zeta factors %s, catalog expects %s" % (got,
                                                                   expected)
        # an exact product of binomials (1 - S p^l x^u)^(+-1) is a finite
        # zeta form; the converse fails (1 - x + x^2 = (1 + x^3)/(1 + x))
        if doc["truncated_at"] is None and not finite:
            return "Euler factorisation exact but no zeta form"
        return None


# ---------------------------------------------------------------------------
# sequence


class Sequence:
    """terms(f, N) with a fresh sieve, N from 10^5 to 10^6."""

    SAMPLES = 48
    # (class, N): calls near 10^5, sized so that the classes take about
    # as long per call, then the 10^6 call the roadmap names.  One set
    # takes about 6 s, so a run times each op several times.
    SLOTS = (("deep", 100_000), ("deep", 110_000), ("exceptional", 120_000),
             ("exceptional", 130_000), ("plain", 140_000), ("plain", 150_000),
             ("plain", 160_000))
    LARGE = 1_000_000

    def function(self, P: Pools, kind: str):
        if kind == "plain":
            return P.plain()
        if kind == "exceptional":
            return P.exceptional()
        # a composite whose values recompute the closures of its children
        return mul(conv(conv(P.deg1(), P.deg2()), P.deg1()), MU2)

    def ops(self, rng):
        P = Pools(rng)
        ops = [self.op(self.function(P, kind),
                       int(n * rng.uniform(0.97, 1.0)), rng)
               for kind, n in self.SLOTS]
        ops.append(self.op(A("sigma", 1), self.LARGE - rng.randrange(1000),
                           rng))
        rng.shuffle(ops)
        return ops

    def op(self, node, N: int, rng) -> Op:
        from dgf import parser, sequences
        src = text(node)
        picks = sorted({rng.randint(1, N) for _ in range(self.SAMPLES)}
                       | {1, N, 2**16, 3**10, 720720 % N or N})

        def run():
            return sequences.terms(parser.parse_function(src), N,
                                   sequences.FactorSieve())

        def check(vals):
            if len(vals) != N:
                return "got %d values, want %d" % (len(vals), N)
            ev = Evaluator(node)
            for n in picks:
                if vals[n - 1] != ev(n):
                    return "a(%d) = %d, want %d" % (n, vals[n - 1], ev(n))
            return None

        return Op("terms(%s, %d)" % (src, N), run, check, terms=N,
                  keys=tuple(refs.subexpressions(node)))


# ---------------------------------------------------------------------------
# numeric


@dataclass(frozen=True)
class Point:
    node: tuple
    abscissa: float
    zeta: tuple | None  # None: no closed reference


class Numeric:
    """One evaluation on a calibration grid around each abscissa."""

    OFFSETS = (0.01, 0.05, 0.5, 2.0)
    METHODS = (("zeta", None), ("euler", 10**4), ("euler", 10**5),
               ("sum", 10**3), ("sum", 10**4))

    # A fixed calibration grid: six catalog functions with zeta forms
    # (one with exceptional primes), two without, at fixed offsets from
    # each abscissa.  Which functions and points sit on the grid sets the
    # cost, the accuracy and which claimed bounds break, so every seed
    # gets the same grid, known violations included, in its own order.
    FINITE = (A("mu"), A("phi"), A("sigma", 1), A("tau", 4), A("psi_k", 2),
              A("gcdc", 12))
    # no finite zeta form: a(p) = p - 1 on squarefree n (abscissa 2) and
    # a(p^e) = -1 for every e (abscissa 1)
    INFINITE = ((mul(MU2, A("phi")), 2.0), (A("mu_star"), 1.0))

    def functions(self) -> list[Point]:
        out = []
        for node in self.FINITE:
            zeta = tuple(tuple(t) for t in
                         catalog_entry(node).expected_zeta(*node[2]))
            absc = max((l + 1) / u for u, l, _ in zeta)
            out.append(Point(node, absc, zeta))
        return out + [Point(node, absc, None) for node, absc in self.INFINITE]

    def grid(self):
        ops = []
        for pt in self.functions():
            for off in self.OFFSETS:
                s = pt.abscissa + off
                ref = (refs.reference_value(pt.node, pt.zeta, s)
                       if pt.zeta else None)
                for method, bound in self.METHODS:
                    if method == "zeta" and pt.zeta is None:
                        continue
                    ops.append(self.op(pt, s, method, bound, ref))
        return ops

    def ops(self, rng):
        ops = self.grid()
        rng.shuffle(ops)
        return ops

    def op(self, pt: Point, s: float, method: str, bound, ref) -> Op:
        from dgf import euler, numeric, parser
        src = text(pt.node)

        def run():
            f = parser.parse_function(src)
            if method == "zeta":
                return numeric.eval_zeta_form(euler.finite_zeta_form(f), s)
            if method == "euler":
                return numeric.eval_euler_product(f, s, P=bound)
            return numeric.eval_partial_sum(f, s, N=bound)

        label = "%s at s=%.4f by %s%s" % (
            src, s, method, "" if bound is None else
            " %s=%g" % ("P" if method == "euler" else "N", bound))
        op = Op(label, run, None, group=None if ref is not None else (src, s))

        def check(res):
            if not math.isfinite(res.value) or not res.error >= 0:
                return "non-finite value %r or error %r" % (res.value,
                                                            res.error)
            if ref is None:
                return None  # cross-checked with its group afterwards
            op.digits.append(refs.correct_digits(res.value, ref))
            actual = abs(res.value - ref)
            if actual > res.error:
                return "bound broken: claims %.3g, actual %.3g" % (res.error,
                                                                   actual)
            return None

        op.check = check
        return op


def cross_check(done: list[tuple[Op, object]]) -> dict[int, str]:
    """Points with no closed reference: each method against the tightest.

    Returns failure reasons keyed by position in `done`.
    """
    groups: dict[object, list[int]] = {}
    for i, (op, res) in enumerate(done):
        if op.group is not None and res is not None:
            groups.setdefault(op.group, []).append(i)
    bad = {}
    for members in groups.values():
        best = min(members, key=lambda i: done[i][1].error)
        second = min((i for i in members if i != best),
                     key=lambda i: done[i][1].error, default=None)
        for i in members:
            other = second if i == best else best
            if other is None:
                continue
            r, o = done[i][1], done[other][1]
            if abs(r.value - o.value) > r.error + o.error:
                bad[i] = ("disagrees with %s: |%.6g - %.6g| > %.3g + %.3g" % (
                    done[other][0].label.split(" by ")[1], r.value, o.value,
                    r.error, o.error))
    return bad


# ---------------------------------------------------------------------------
# command line


_EVAL_LINE = re.compile(r"^(\S+) \(error <= (\S+), ([a-z_+]+)\)$")


@dataclass
class CliResult:
    code: int
    out: str
    err: str


class Cli:
    """One `python -m dgf.cli` process per op over all seven subcommands."""

    BLOCKS = 2  # of nine ops, one per subcommand plus an error case

    def __init__(self, tmpdir: str, deadline: float):
        self.tmpdir = tmpdir
        self.deadline = deadline
        self.in_process = False  # traced runs call cli.main directly
        self.count = 0

    @staticmethod
    def corpus(P: Pools):
        """Interactive-size expressions like the symbolic corpus; returns a
        function that deals the next one."""
        d1, d2, ex = P.deg1, P.deg2, P.exceptional
        shapes = Deck(P.rng, [
            P.any, lambda: conv(d1(), d2()), lambda: mul(d1(), d2()),
            lambda: conv(("inv", d1()), ex()), lambda: mul(ex(), d1()),
            lambda: mul(conv(d1(), d2()), MU2),
        ])
        return lambda: shapes.draw()()

    def ops(self, rng):
        P = Pools(rng)
        expr = self.corpus(P)
        entries = Deck(rng, [P.deg1, P.deg2])
        ops = []
        for k in range(self.BLOCKS):
            ops += [
                self.catalog_list(),
                self.catalog_entry(entries.draw()()),
                self.bell(expr()),
                self.factorize(expr()),
                self.zetaform(expr()),
                self.terms(expr(), rng.randint(1000, 10_000), rng,
                           bfile=k % 2 == 0),
                self.eval(rng),
                self.verify(expr()),
                self.error_case(P.deg1(), rng),
            ]
        rng.shuffle(ops)
        return ops

    # -- running -----------------------------------------------------------

    def invoke(self, argv: list[str]) -> CliResult:
        if self.in_process:
            return self._in_process(argv)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-m", "dgf.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=self.deadline)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def _in_process(self, argv) -> CliResult:
        from dgf import cli, sequences
        # a fresh process starts with an empty sieve; so does this call
        if isinstance(getattr(sequences, "_SIEVE", None), sequences.FactorSieve):
            sequences._SIEVE = sequences.FactorSieve()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue())

    def _op(self, argv, check, keys=(), terms=0) -> Op:
        op = Op("dgf " + " ".join(argv), lambda: self.invoke(argv), None,
                terms=terms, keys=keys)

        def checked(res: CliResult):
            if "Traceback" in res.err:
                return "traceback: %s" % res.err.strip().splitlines()[-1]
            return check(res)

        op.check = checked
        return op

    @staticmethod
    def _ok(res: CliResult) -> str | None:
        if res.code != 0:
            return "exit %d: %s" % (res.code, res.err.strip()[:200])
        if not res.out.strip():
            return "empty output with exit 0"
        return None

    # -- subcommands ---------------------------------------------------------

    def catalog_list(self) -> Op:
        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            listed = {ln.split("(")[0].split()[0] for ln in
                      res.out.splitlines() if ln.strip()}
            missing = sorted(set(refs.ATOM_DEFS) - listed)
            return "catalog misses %s" % missing if missing else None
        return self._op(["catalog"], check)

    def catalog_entry(self, node) -> Op:
        ev = Evaluator(node)
        entry = catalog_entry(node)

        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            lines = {ln.split(":")[0].strip(): ln.split(":", 1)[1].strip()
                     for ln in res.out.splitlines() if ":" in ln}
            for p in check_primes(node):
                bad = _mismatch("bell series", p, refs.eval_printed(
                    lines.get("bell series", "?"), p, 8),
                    refs.definition_series(ev, p, 8))
                if bad:
                    return bad
            want = entry.expected_zeta(*node[2])
            got = refs.parse_zeta_text(lines.get("dirichlet series", ""))
            if isinstance(want, list) and got != sorted(want):
                return "dirichlet series %s, catalog expects %s" % (got, want)
            return None
        return self._op(["catalog", node[1], *map(str, node[2])], check,
                        keys=(text(node),))

    def bell(self, node) -> Op:
        ev = Evaluator(node)

        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            rational, series = res.out.splitlines()[:2]
            coeffs = series.split(":", 1)[1].split(",")
            for p in check_primes(node):
                want = refs.definition_series(ev, p, 8)
                got = [refs.eval_printed(c.strip(), p, 0)[0] for c in coeffs]
                bad = (_mismatch("series line", p, got, want)
                       or _mismatch("rational form", p,
                                    refs.eval_printed(rational, p, 8), want))
                if bad:
                    return bad
            return None
        return self._op(["bell", text(node)], check,
                        keys=tuple(refs.subexpressions(node)))

    def factorize(self, node) -> Op:
        ev = Evaluator(node)

        def check(res):
            return (self._ok(res) or
                    check_factors_json(json.loads(res.out), node, ev, 8))
        return self._op(["factorize", text(node), "--json"], check,
                        keys=tuple(refs.subexpressions(node)))

    def zetaform(self, node) -> Op:
        ev = Evaluator(node)

        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            doc = json.loads(res.out)
            if doc.get("infinite"):
                return None
            return check_zeta_json(doc, node, ev, 10)
        return self._op(["zetaform", text(node), "--json"], check,
                        keys=tuple(refs.subexpressions(node)))

    def terms(self, node, N: int, rng, bfile: bool) -> Op:
        ev = Evaluator(node)
        picks = sorted({rng.randint(1, N) for _ in range(32)} | {1, N})
        argv = ["terms", text(node), "-n", str(N)]
        if bfile:
            self.count += 1
            path = os.path.join(self.tmpdir, "b%d.txt" % self.count)
            with open(path, "w") as fh:
                fh.write("# definition-level values\n")
                fh.writelines("%d %d\n" % (n, ev(n)) for n in range(1, 201))
            argv += ["--bfile", path]

        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            vals = [int(v) for v in res.out.strip().split(",")]
            if len(vals) != N:
                return "got %d values, want %d" % (len(vals), N)
            for n in picks:
                if vals[n - 1] != ev(n):
                    return "a(%d) = %d, want %d" % (n, vals[n - 1], ev(n))
            return None
        return self._op(argv, check, keys=tuple(refs.subexpressions(node)),
                        terms=N)

    def eval(self, rng) -> Op:
        pt = rng.choice(Numeric().functions()[:len(Numeric.FINITE)])
        s = pt.abscissa + rng.choice(Numeric.OFFSETS)
        ref = refs.reference_value(pt.node, pt.zeta, s)
        op = None

        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            m = _EVAL_LINE.match(res.out.strip())
            if not m:
                return "unparsable eval output %r" % res.out.strip()
            value, err = float(m.group(1)), float(m.group(2))
            # the value is printed with 12 significant digits
            op.digits.append(min(12.0, refs.correct_digits(value, ref)))
            actual = abs(value - ref)
            # allow for rounding to the 12 printed digits
            if actual > err + 5e-12 * abs(value):
                return "bound broken: claims %.3g, actual %.3g" % (err, actual)
            return None
        op = self._op(["eval", text(pt.node), "--s", repr(s)], check,
                      keys=(text(pt.node),))
        return op

    def verify(self, node) -> Op:
        def check(res):
            bad = self._ok(res)
            if bad:
                return bad
            lines = res.out.splitlines()
            fails = [ln for ln in lines if not ln.startswith("ok")]
            if fails or len(lines) < 3:
                return "verify: %s" % (fails or lines)
            return None
        return self._op(["verify", text(node), "-n", "200"], check,
                        keys=tuple(refs.subexpressions(node)))

    def error_case(self, node, rng) -> Op:
        """Inputs whose documented outcome is a DgfError exit code."""
        case = rng.choice(["unknown", "diverge"])
        if case == "unknown":
            argv = ["zetaform", "%s <*> nosuch" % text(node)]
            code, prefix = 2, "error: unknown function"
        else:
            argv = ["eval", "phi", "--s", "%.2f" % rng.uniform(1.2, 1.9)]
            code, prefix = 3, "error: s = "

        def check(res):
            if res.code != code or not res.err.startswith(prefix):
                return "want exit %d with %r, got exit %d: %r" % (
                    code, prefix, res.code, res.err.strip()[:200])
            return None
        return self._op(argv, check, keys=(text(node),))


WORKLOADS = {"symbolic": Symbolic, "sequence": Sequence, "numeric": Numeric,
             "cli": Cli}
