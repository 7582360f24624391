"""A `qbd solve` loads only the engine it runs.

Each subcommand runs in a fresh interpreter (here pytest has already
imported every module), which reports the qbd modules that are loaded
after `import qbd.cli` and after the run. The names that once came from
module-level imports still resolve, each loading its module on first read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbd
from qbd import affine, oracle, solver2cnf, special, twocnf
from helpers import RUNNING_EXAMPLE_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules that serve one engine, the oracle or a subcommand other than solve
LAZY = ("qbd.affine", "qbd.solver2cnf", "qbd.twocnf", "qbd.oracle", "qbd.algebra", "qbd.reductions")

PROBE = f"""
import contextlib, io, json, sys
from qbd import cli
lazy = {LAZY!r}
imported = [m for m in lazy if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(sys.argv[1:])
print(json.dumps({{"imported": imported, "code": code, "out": out.getvalue().splitlines(),
                  "ran": [m for m in lazy if m in sys.modules]}}))
"""

POSNEG_TEXT = "c class posneg\np cnf 3 2\ne 1 2 3 0\n1 2 3 0\n-3 0\n"

# every class leaves all three variables outside it, so dispatch falls back to brute force
BRUTE_TEXT = "p cnf 3 2\ne 1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n"

AFF_TEXT = "c class aff\np cnf 5 3\ne 1 0\na 2 0\ne 3 4 5 0\nx 1 3 0\nx 2 5 0\nc backdoor-begin\n4 5 0\n"


def probe(*argv):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in (("2cnf", RUNNING_EXAMPLE_TEXT), ("aff", AFF_TEXT), ("posneg", POSNEG_TEXT),
                       ("brute", BRUTE_TEXT)):
        out[name] = tmp_path / f"{name}.qdimacs"
        out[name].write_text(text)
    return out


@pytest.mark.parametrize("kind, loads", [
    ("2cnf", ["qbd.solver2cnf"]),
    ("aff", ["qbd.affine"]),
    ("posneg", []),
    ("brute", ["qbd.oracle"]),
])
def test_solve_loads_only_its_engine(files, kind, loads):
    run = probe("solve", str(files[kind]))
    assert run["imported"] == []
    assert run["code"] in (10, 20)
    assert f"c algorithm {kind}" in run["out"]
    assert run["ran"] == loads


def test_emit_strategy_loads_the_oracle(files, tmp_path):
    run = probe("solve", str(files["posneg"]), "--emit-strategy", str(tmp_path / "tree.txt"))
    assert run["ran"] == ["qbd.oracle"]
    assert (tmp_path / "tree.txt").exists()


def test_kernelize_loads_affine(files):
    run = probe("kernelize", str(files["aff"]))
    assert run["code"] == 0
    assert run["ran"] == ["qbd.affine"]


def test_lazy_names_are_the_originals():
    assert special.solve_2cnf is solver2cnf.solve
    assert special.solve_aff is affine.solve_aff
    assert special.eval_bruteforce is oracle.eval_bruteforce
    assert solver2cnf.look_ahead is twocnf.look_ahead
    assert solver2cnf.eval_q2cnf is twocnf.eval_q2cnf
    assert qbd.eval_bruteforce is oracle.eval_bruteforce
    assert qbd.extract_strategy is oracle.extract_strategy
    assert qbd.verify_strategy is oracle.verify_strategy
    assert oracle.BRUTE_CAP == 24


def test_star_import_binds_all():
    scope = {}
    exec("from qbd import *", scope)
    assert [name for name in qbd.__all__ if name not in scope] == []


@pytest.mark.parametrize("module", [qbd, special, solver2cnf])
def test_an_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match=f"^module '{module.__name__}' has no attribute 'nope'$"):
        getattr(module, "nope")
