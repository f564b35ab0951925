"""Spans around the package's public entry points, recorded from outside.

`Tracer.install()` swaps each entry point for a recording wrapper in
every ``dgf`` module that holds a reference to it (so names imported
with ``from .x import y`` are caught too) and `restore()` puts the
originals back.  Spans are kept in memory per operation as
(name, start, end, parent); `end_op()` folds them into per-layer totals
and self times and drops them.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" patches a class member
ENTRY_POINTS = [
    ("polys.series_mul", "dgf.polys", "series_mul"),
    ("polys.series_inv", "dgf.polys", "series_inv"),
    ("bell.rationalize", "dgf.bell", "rationalize"),
    ("bell.generic_poly", "dgf.bell", "MasterEquation.generic_poly"),
    ("bell.value", "dgf.bell", "MasterEquation.value"),
    ("bell.bell", "dgf.bell", "MultiplicativeFunction.bell"),
    ("catalog.make", "dgf.catalog", "CatalogEntry.make"),
    ("parser.parse", "dgf.parser", "parse"),
    ("parser.build", "dgf.parser", "build"),
    ("euler.factor_bell", "dgf.euler", "factor_bell"),
    ("euler.finite_zeta_form", "dgf.euler", "finite_zeta_form"),
    ("euler.zeta_form_to_coeffs", "dgf.euler", "zeta_form_to_coeffs"),
    ("sequences.ensure", "dgf.sequences", "FactorSieve.ensure"),
    ("sequences.terms", "dgf.sequences", "terms"),
    ("sequences.compare_bfile", "dgf.sequences", "compare_bfile"),
    ("numeric.eval_zeta_form", "dgf.numeric", "eval_zeta_form"),
    ("numeric.eval_euler_product", "dgf.numeric", "eval_euler_product"),
    ("numeric.eval_partial_sum", "dgf.numeric", "eval_partial_sum"),
    ("numeric.riemann_zeta", "dgf.numeric", "riemann_zeta"),
    ("numeric.wynn_epsilon", "dgf.numeric", "wynn_epsilon"),
    ("numeric.primes", "dgf.numeric", "_primes_up_to"),
    ("cli.main", "dgf.cli", "main"),
]
COUNT_ONLY = {"bell.generic_poly"}
# calls that do no work: FactorSieve.factor() asks ensure(n) for every n
SKIP = {"sequences.ensure":
        lambda args: len(args) > 1 and args[1] <= getattr(args[0], "limit", -1)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.ops = 0
        self.busy = 0.0
        self.incl = defaultdict(float)     # outermost-span time per name
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)  # per layer, plus "other"
        self.counts = defaultdict(float)
        self.sieve_limit = 0
        self._distinct: set = set()

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        skip = SKIP.get(name)

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, out if ok else None, ok)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn, observe):
        """Calls only, no span: for entry points hit ~10^5 times per op,
        whose time then lands in the caller's span (the same layer)."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            observe(args, None, True)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observer(self, name):
        counts = self.counts
        if name == "bell.rationalize":
            def obs(args, out, ok):
                counts["rationalize_fail"] += not ok
        elif name == "bell.generic_poly":
            distinct = self._distinct

            def obs(args, out, ok):
                distinct.add((id(args[0]), args[1]))
        elif name == "euler.factor_bell":
            def obs(args, out, ok):
                if ok:
                    counts["factors_emitted"] += len(list(out))
        elif name == "euler.finite_zeta_form":
            def obs(args, out, ok):
                counts["zeta_infinite"] += ok and isinstance(out, str)
        elif name == "sequences.ensure":
            def obs(args, out, ok):
                limit = getattr(args[0], "limit", 0)
                self.sieve_limit = max(self.sieve_limit, limit)
        elif name == "numeric.primes":
            def obs(args, out, ok):
                if ok:
                    counts["primes_used"] += len(out)
        else:
            obs = None
        return obs

    def install(self) -> None:
        for name, modname, attr in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(member) if owner is not None else None
            if orig is None:
                continue  # entry point absent from this version
            obs = self._observer(name)
            if isinstance(orig, property):
                new = property(self._wrap(name, orig.fget, obs), orig.fset,
                               orig.fdel, orig.__doc__)
                self._patch(owner, member, orig, new)
            elif name in COUNT_ONLY:
                self._patch(owner, member, orig, self._count(name, orig, obs))
            elif owner_name:
                self._patch(owner, member, orig, self._wrap(name, orig, obs))
            else:
                new = self._wrap(name, orig, obs)
                # every module that imported the function under its own name
                for m in list(sys.modules.values()):
                    if (getattr(m, "__name__", "").split(".")[0] == "dgf"
                            and vars(m).get(member) is orig):
                        self._patch(m, member, orig, new)

    def _patch(self, owner, member, orig, new) -> None:
        setattr(owner, member, new)
        self._patched.append((owner, member, orig))

    def restore(self) -> None:
        for owner, member, orig in reversed(self._patched):
            setattr(owner, member, orig)
        self._patched.clear()

    # -- per-operation folding ---------------------------------------------

    def _nested(self, name: str, parent: int) -> bool:
        """True when an ancestor span has the same name (recursion)."""
        spans = self.spans
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def end_op(self, op_seconds: float) -> None:
        """Fold the spans of one operation into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        covered = 0.0
        # spans are appended at entry, so a parent precedes its children
        for name, start, end, parent in spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
            self.calls[name] += 1
            if not self._nested(name, parent):
                self.incl[name] += dur
        for i, (name, start, end, _) in enumerate(spans):
            self.self_time[name.split(".")[0]] += (end - start) - child[i]
        self.self_time["other"] += max(0.0, op_seconds - covered)
        self.counts["distinct_generic"] += len(self._distinct)
        self._distinct.clear()
        spans.clear()
        self.ops += 1
        self.busy += op_seconds
