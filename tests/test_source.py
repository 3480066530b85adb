import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lucascong

SRC = Path(lucascong.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the library may
    # rely on one; failures must raise the library's own errors.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at line(s) {lines}"


def test_bench_spans_install(tmp_path):
    # bench/spans.py wraps cli and library functions by name; a rename must
    # fail here, not in a traced benchmark run.
    script = ("import pathlib, sys, spans\n"
              "spans.install(pathlib.Path(sys.argv[1]))\n"
              "from lucascong import cli\n"
              "sys.exit(cli.run(['verify', '--A', '1', '--B', '-1', '--n', '7']))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(BENCH)]))
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["holds"] is True


def test_cli_import_stays_cold():
    # every CLI call starts a fresh interpreter, so `import lucascong.cli`
    # must not load what only `scan --jobs` > 1 or the tests use; -S keeps
    # site-packages hooks from loading them first
    heavy = ["concurrent.futures", "multiprocessing", "dataclasses",
             "fractions", "decimal"]
    script = ("import json, sys\nimport lucascong.cli\n"
              f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []
