"""Fresh-interpreter behaviour: what `import dgf.cli` loads, how the CLI
ends when its reader closes the output pipe early, and how it ends on an
expression nested too deeply to evaluate."""
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


def test_deep_expression_exits_with_one_line():
    # a left-nested chain of 2,000 operators recurses past the limit
    proc = _python("-m", "dgf.cli", "terms", "mu" + " <*> one" * 2000,
                   "-n", "20", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                   text=True)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == ""
    assert err == "error: expression nests too deeply to evaluate\n"
