"""Fresh-interpreter behaviour: what `import dgf.cli` loads, how the CLI
ends when its reader closes the output pipe early, and how it answers and
names an expression nested 10,000 levels deep."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import dgf

SRC = str(Path(dgf.__file__).resolve().parent.parent)


def _python(*args: str, **kw) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *args], env=env, **kw)


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis; modules that site loaded
    # before the import do not count
    code = ("import sys; before = set(sys.modules); import dgf.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
            " & (set(sys.modules) - before))))")
    proc = _python("-c", code, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.split() == []


def test_closed_pipe_exits_quietly():
    # about 600 kB of output against a 10-byte reader: the write fails
    with _python("-m", "dgf.cli", "terms", "phi", "-n", "100000",
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert head == b"1,1,2,2,4,"
    assert code == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_deep_expression_answers_as_phi():
    # phi followed by 10,000 pointwise products with one: at the default
    # recursion limit, in a fresh interpreter
    def terms(text):
        proc = _python("-m", "dgf.cli", "terms", text, "-n", "100",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
        out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err

    rc, out, err = terms("phi" + " * one" * 10000)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == terms("phi")


_CHAIN = """
import time

from dgf.bell import (dirichlet_convolve, dirichlet_inverse, pointwise_power,
                      pointwise_product, shift_by_power, unitary_convolve)
from dgf.catalog import make
from dgf.euler import finite_zeta_form
from dgf.sequences import terms

phi, one, mu = make("phi"), make("one"), make("mu")
unit = dirichlet_convolve(mu, one)


def chain(cycles):
    # 11 nodes a cycle, each kind of combinator, one, mu and the unit
    # shared by all
    h = phi
    for _ in range(cycles):
        h = dirichlet_inverse(pointwise_product(h, one))
        h = dirichlet_inverse(pointwise_product(h, one))
        h = dirichlet_convolve(dirichlet_convolve(h, mu), one)
        h = shift_by_power(pointwise_product(h, one), 1)
        h = pointwise_power(unitary_convolve(shift_by_power(h, -1), unit), 1)
    return h


def cpu(same, cycles):
    f = chain(cycles)
    t = time.process_time()
    assert same(f)
    return time.process_time() - t


for same in (lambda f: f.bell == phi.bell,
             lambda f: terms(f, 100) == terms(phi, 100),
             lambda f: str(finite_zeta_form(f)) == str(finite_zeta_form(phi))):
    # 2,530 and 10,010 nodes: linear work takes about 3 times as long on
    # the longer chain, re-walking every subtree about 16 times
    assert cpu(same, 910) < 8 * cpu(same, 230) + 0.25
"""


def test_deep_combinator_chain_is_phi():
    # the walks prune at the nodes that already hold what is asked, so the
    # three grow linearly with the chain
    proc = _python("-c", _CHAIN, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")


def test_deep_chain_names_in_linear_memory():
    # each node keeps only its own pieces of text, so the names of phi
    # followed by 10,000 pointwise products with one take O(d) characters,
    # not O(d^2).  The peak is the child's VmHWM: its ru_maxrss also
    # counts the memory of this process, whose address space it had
    # until exec
    code = ("from dgf.parser import parse_function; "
            "n = parse_function('phi' + ' * one' * 10000).name; "
            "assert n == '(' * 10000 + 'phi' + ' * one)' * 10000, n[:40]; "
            "print(open('/proc/self/status').read())")
    proc = _python("-c", code, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    peak, = (line.split()[1] for line in out.splitlines()
             if line.startswith("VmHWM:"))
    assert int(peak) < 100 * 1024  # kB
