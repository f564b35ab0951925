"""Benchmark for dgf: seeded workloads, checked outputs, per-layer spans.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 24 --trace 0

Workloads: symbolic, sequence, numeric, cli (see BENCHMARK.json for why
each exists).  The seed makes a fixed set of operations; one client runs
the whole set in cycles, in a closed loop (the next operation starts when
the previous one ends), and each operation's time is the upper quartile
of its times over the cycles.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs
operations untraced and then the same ones traced, and prints the
per-layer metrics.  Human-readable lines come first, each
starting with '#'; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEADLINE_S = 30.0      # per operation; a hang counts as a failure
SETUP_REPEATS = 15
IMPORT_REPEATS = 5


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers let it pass."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# provenance and set-up


def import_seconds(module: str) -> float:
    """Wall time of `import module` in a fresh interpreter, boot excluded."""
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(time.perf_counter() - t)" % module)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.strip())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "dgf").glob("*.py")))


def provenance() -> dict:
    digest = hashlib.sha256()
    for p in sorted((SRC / "dgf").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit or "none (not a git checkout)",
            "src_sha256": digest.hexdigest()[:16], "src.lines": src_lines()}


# ---------------------------------------------------------------------------
# the closed loop


def execute(op) -> tuple[object, float, str | None]:
    result, reason = None, None
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        result = op.run()
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        reason = "deadline: over %.0f s" % DEADLINE_S
    except Exception as e:  # any exception the input does not document
        reason = "unexpected %s: %s" % (type(e).__name__, e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = time.perf_counter() - t0
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as e:  # output the checker could not read
            reason = "unreadable output: %s: %s" % (type(e).__name__, e)
    return result, dt, reason


def record(i: int, op, tracer=None) -> dict:
    result, dt, reason = execute(op)
    if tracer is not None:
        tracer.end_op(dt)
    # keep only what the numeric cross-check reads; a run of 10^6-term
    # lists would otherwise set the peak RSS
    return {"i": i, "op": op, "s": dt, "reason": reason,
            "result": result if op.group is not None else None}


def run_loop(ops, rng, seconds: float, setup=None) -> list[dict]:
    """Run the whole op set in cycles, each in a fresh seeded order, until
    `seconds` of wall time have passed.

    A cycle that is started is finished, so every op runs as often as the
    others; a cycle stalled by deadlines ends the run at 3x.  If `setup`
    is a list, fresh-interpreter import times are appended to it between
    ops, SETUP_REPEATS of them spread evenly over the run.
    """
    done = []
    start = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            elapsed = time.perf_counter() - start
            if elapsed >= 3 * seconds:
                return done
            if setup is not None and len(setup) < min(
                    SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
                setup.append(import_seconds("dgf"))
            done.append(record(i, ops[i]))
        if time.perf_counter() - start >= seconds:
            return done


def per_op(done: list[dict], finish=None) -> list[dict]:
    """Fold executions into one entry per op that ran: its times, and the
    first failure reason of any of its executions."""
    ops: dict[int, dict] = {}
    for d in done:
        o = ops.setdefault(d["i"], {"op": d["op"], "times": [],
                                    "reason": None, "result": d["result"]})
        o["times"].append(d["s"])
        o["reason"] = o["reason"] or d["reason"]
    out = [ops[i] for i in sorted(ops)]
    if finish is not None:
        finish(out)
    return out


def finish_checks(ops: list[dict]) -> None:
    """Cross-method checks for numeric points without a reference.

    Each op is deterministic, so its first result stands for all of its
    executions."""
    from workloads import cross_check
    pairs = [(o["op"], o["result"] if o["reason"] is None else None)
             for o in ops]
    for i, reason in cross_check(pairs).items():
        ops[i]["reason"] = reason


def is_bound_failure(reason: str) -> bool:
    return reason.startswith(("bound broken", "disagrees with"))


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float]) -> float:
    """The 90th percentile of per-op times.

    A run holds 8 to 152 distinct ops, too few for a percentile with ten
    ops beyond it to sit above the median on every workload."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def op_seconds(times: list[float]) -> float:
    """One op's time: the upper quartile of its executions.

    A shared host runs this process at two speeds, about 1.5x apart, and
    switches between them every few seconds.  An op's executions are
    spread over the run, one per cycle, and their upper quartile is the
    slower speed unless nearly all of them met the faster one, so it moves
    far less from run to run than their mean or median does."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def end_to_end(done: list[dict], ops: list[dict], setup: list[float],
               workload: str) -> tuple[dict, dict]:
    """Metrics as (value, unit, samples): the JSON ones, then the rest."""
    lat = [op_seconds(o["times"]) for o in ops]
    busy = sum(lat)
    n = len(ops)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    digits = []
    for o in ops:
        op, reason = o["op"], o["reason"]
        if reason is not None and not is_bound_failure(reason):
            digits.append(0.0)
        elif op.digits:
            digits.append(op.digits[0])
        elif op.group is None:
            digits.append(16.0)  # exact output, checked
    m = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (n / busy, "1/s", n),
        "op_p50_ms": (1000 * statistics.median(lat), "ms", n),
        "op_tail_ms": (1000 * tail(lat), "ms", n),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB", 1),
        "digits_p50": (statistics.median(digits), "digits", len(digits)),
    }
    extra = {"failed_ratio": (sum(o["reason"] is not None for o in ops) / n,
                              "ratio", n),
             "executions": (len(done), "count", n)}
    if workload == "sequence":
        extra["terms_per_s"] = (sum(o["op"].terms for o in ops) / busy,
                                "1/s", n)
    return m, extra


PER_LAYER_S = {
    "bell.bell_s": "bell.bell", "bell.rationalize_s": "bell.rationalize",
    "polys.series_mul_s": "polys.series_mul", "catalog.make_s": "catalog.make",
    "parser.parse_s": "parser.parse", "parser.build_s": "parser.build",
    "euler.factor_bell_s": "euler.factor_bell",
    "euler.zeta_form_s": "euler.finite_zeta_form",
    "euler.coeffs_s": "euler.zeta_form_to_coeffs",
    "sequences.sieve_s": "sequences.ensure",
    "sequences.terms_s": "sequences.terms",
    "sequences.bfile_s": "sequences.compare_bfile",
    "numeric.euler_product_s": "numeric.eval_euler_product",
    "numeric.partial_sum_s": "numeric.eval_partial_sum",
    "numeric.zeta_eval_s": "numeric.eval_zeta_form",
    "numeric.wynn_s": "numeric.wynn_epsilon",
    "cli.main_s": "cli.main",
}
PER_LAYER_CALLS = {
    "bell.rationalize_calls": "bell.rationalize",
    "bell.generic_poly_calls": "bell.generic_poly",
    "bell.value_calls": "bell.value",
    "polys.series_mul_calls": "polys.series_mul",
    "polys.series_inv_calls": "polys.series_inv",
    "catalog.make_calls": "catalog.make",
    "numeric.riemann_zeta_calls": "numeric.riemann_zeta",
}
SHARE_LAYERS = ("polys", "bell", "catalog", "parser", "euler", "sequences",
                "numeric", "cli", "import", "other")


def per_layer(tr, overhead: float, import_s: float, workload: str,
              lines: int) -> dict:
    n = max(tr.ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, span in PER_LAYER_S.items():
        m[name] = (tr.incl[span] / n, "s/op")
    for name, span in PER_LAYER_CALLS.items():
        m[name] = (tr.calls[span] / n, "calls/op")
    m["bell.rationalize_fail_ratio"] = (
        ratio(tr.counts["rationalize_fail"], tr.calls["bell.rationalize"]),
        "ratio")
    m["bell.generic_poly_useful_ratio"] = (
        ratio(tr.counts["distinct_generic"], tr.calls["bell.generic_poly"]),
        "ratio")
    m["euler.factors_emitted"] = (tr.counts["factors_emitted"] / n, "count/op")
    m["euler.zeta_infinite_ratio"] = (
        ratio(tr.counts["zeta_infinite"], tr.calls["euler.finite_zeta_form"]),
        "ratio")
    m["sequences.sieve_limit"] = (tr.sieve_limit, "count")
    m["numeric.primes_used"] = (tr.counts["primes_used"] / n, "count/op")
    m["cli.import_s"] = (import_s, "s")
    # self-time shares; a command-line op also pays the import
    self_time = dict(tr.self_time)
    self_time["import"] = import_s * tr.ops if workload == "cli" else 0.0
    total = sum(self_time.values()) or 1.0
    for layer in SHARE_LAYERS:
        m["%s.self_share" % layer] = (self_time.get(layer, 0.0) / total,
                                      "share")
    m["src.lines"] = (lines, "lines")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["symbolic", "sequence", "numeric", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)

    if not (SRC / "dgf" / "__init__.py").is_file():
        print("perfbench: no dgf sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)

    import workloads
    prov = provenance()
    tmpdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random("%s:%d" % (ns.workload, ns.seed))
        if ns.workload == "cli":
            wl = workloads.Cli(str(tmpdir), DEADLINE_S)
        else:
            wl = workloads.WORKLOADS[ns.workload]()
        import dgf  # noqa: F401  (import cost stays out of the first op)
        if ns.trace:
            report = traced_run(ns, wl, rng, prov)
        else:
            report = plain_run(ns, wl, rng, prov)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


def describe_failures(ops: list[dict]) -> None:
    failed = [o for o in ops if o["reason"] is not None]
    print("# failed ops: %d of %d" % (len(failed), len(ops)))
    for o in failed:
        print("#   FAIL %s -- %s" % (o["op"].label, o["reason"]))


def reuse_share(ops: list[dict]) -> float:
    seen: set = set()
    hits = 0
    for o in ops:
        keys = set(o["op"].keys)
        hits += bool(keys & seen)
        seen |= keys
    return hits / len(ops)


def header(ns, prov) -> None:
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (ns.workload, ns.seed, ns.seconds, ns.trace))
    print("# provenance: " + json.dumps(prov))


def result(ops: list[dict], metrics) -> dict:
    """`attempted` and `failed` count distinct ops, not executions, so they
    depend on the seed only and not on how fast the run went."""
    failed = [o for o in ops if o["reason"] is not None]
    return {"correct": all(is_bound_failure(o["reason"]) for o in failed),
            "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v[0], "unit": v[1]}
                        for k, v in metrics.items()}}


def plain_run(ns, wl, rng, prov) -> dict:
    header(ns, prov)
    import_seconds("dgf")  # may write bytecode caches; not counted
    setup: list[float] = []
    done = run_loop(wl.ops(rng), rng, ns.seconds, setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds("dgf"))
    ops = per_op(done, finish_checks if ns.workload == "numeric" else None)
    metrics, extra = end_to_end(done, ops, setup, ns.workload)
    print("# %-20s %14s  %-7s %s" % ("metric", "value", "unit", "ops"))
    for k, (v, unit, count) in list(metrics.items()) + list(extra.items()):
        print("# %-20s %14.6g  %-7s %d" % (k, v, unit, count))
    if ns.workload in ("symbolic", "cli"):
        print("# ops reusing an atom or subexpression seen earlier in the "
              "run: %.3f" % reuse_share(ops))
    describe_failures(ops)
    return result(ops, {k: v[:2] for k, v in metrics.items()})


def traced_run(ns, wl, rng, prov) -> dict:
    from tracing import Tracer
    header(ns, prov)
    import_seconds("dgf.cli")  # may write bytecode caches; not counted
    import_s = statistics.median(import_seconds("dgf.cli")
                                 for _ in range(IMPORT_REPEATS))
    if ns.workload == "cli":
        wl.in_process = True  # spans need cli.main in this process
    # the traced replay of these executions takes longer, so the untraced
    # part gets under half the time
    plain = run_loop(wl.ops(rng), rng, 0.4 * ns.seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [record(d["i"], d["op"], tracer) for d in plain]
    finally:
        tracer.restore()
    finish = finish_checks if ns.workload == "numeric" else None
    ops = per_op(plain, finish)
    for o, t in zip(ops, per_op(traced, finish)):
        o["reason"] = o["reason"] or t["reason"]
    overhead = tracer.busy / sum(d["s"] for d in plain) - 1.0
    metrics = per_layer(tracer, overhead, import_s, ns.workload,
                        prov["src.lines"])
    print("# layer self-time shares (%s, %d traced executions):"
          % (ns.workload, tracer.ops))
    for layer in SHARE_LAYERS:
        print("#   %-10s %6.1f%%" % (layer,
                                     100 * metrics[layer + ".self_share"][0]))
    print("# %-32s %14s  %s" % ("metric", "value", "unit"))
    for k, (v, unit) in metrics.items():
        print("# %-32s %14.6g  %s" % (k, v, unit))
    describe_failures(ops)
    return result(ops, metrics)


if __name__ == "__main__":
    sys.exit(main())
