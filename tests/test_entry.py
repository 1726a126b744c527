"""The process entry point, hhx.cli.run: exit statuses in fresh `python -m
hhx` processes, and the heap freeze on the way out.

run() freezes the heap (gc.freeze) before the process exits, so the full
collections of interpreter shutdown pass over it. The freeze belongs to the
process boundary: main(), which tests and perfbench call many times in one
process, leaves the collector as it found it.
"""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhx.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")


def fresh(*argv):
    """(exit status, stdout, stderr) of a fresh `python -m hhx argv`."""
    proc = subprocess.run(
        [sys.executable, "-m", "hhx", *argv],
        capture_output=True, text=True, env=ENV, timeout=120, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_usage_error_exits_2_in_a_fresh_process(capsys, monkeypatch):
    # argparse's usage text varies between Python versions, so the fresh
    # process's is compared with what main() prints in this one
    argv = ["cohomology", "--builtin", "torus"]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(argv)
    usage = capsys.readouterr().err
    assert usage.startswith("usage: hhx cohomology [-h] (--space PATH | --builtin NAME)")
    assert usage.endswith(
        "\nhhx cohomology: error: the following arguments are required: "
        "--algebra, --module\n"
    )
    assert fresh(*argv) == (2, "", usage)


def test_malformed_space_file_exits_2_in_a_fresh_process(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"name": "cut"', encoding="utf-8")
    assert fresh("validate", "--space", str(path)) == (
        2, "", f"error: {path}: invalid JSON "
        "(Expecting ',' delimiter: line 1 column 15 (char 14))\n",
    )


def test_run_past_the_budget_exits_3_in_a_fresh_process():
    assert fresh(
        "cohomology", "--builtin", "torus", "--algebra", str(GOLDEN / "dual-q.json"),
        "--module", str(GOLDEN / "regular-torus.json"), "-N", "2", "--budget", "100",
    ) == (
        3, "", "error: hom-space in degree 2 has dimension 512, "
        "exceeding the budget of 100 columns\n",
    )


# runs each module as `python -m` does, in one host process, and lists the
# exit status and the freeze count after each run
RUN_MODULES = """
import gc, json, runpy, sys
results = []
for module, argv in RUNS:
    before = gc.get_freeze_count()
    sys.argv = [module, *argv]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    results.append([status, before, gc.get_freeze_count()])
    gc.unfreeze()
print(json.dumps(results))
"""


def test_runpy_hosts_see_the_heap_frozen_after_every_exit():
    runs = [
        ("hhx", ["validate", "--builtin", "torus"]),
        ("hhx", [
            "cohomology", "--builtin", "sphere2",
            "--algebra", str(GOLDEN / "dual-q.json"),
            "--module", str(GOLDEN / "override-sphere2.json"),
            "-N", "2", "--override-slots",
        ]),
        ("hhx", ["cohomology", "--builtin", "torus"]),
        ("hhx.cli", ["validate", "--builtin", "circle"]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"RUNS = {runs!r}\n" + RUN_MODULES],
        capture_output=True, text=True, env=ENV, timeout=120, check=True,
    )
    results = json.loads(proc.stdout.splitlines()[-1])
    assert [status for status, _, _ in results] == [0, 1, 2, 0]
    assert all(before == 0 < after for _, before, after in results)


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["validate", "--builtin", "torus"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["cohomology", "--builtin", "torus"])
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_installed_script_calls_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hhx"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    # as the generated script calls it; atexit handlers still run, after
    # the report is written, and see the heap frozen
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"from {module} import {name}\n"
        f"sys.exit({name}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "validate", "--builtin", "torus"],
        capture_output=True, text=True, env=ENV, timeout=120, check=True,
    )
    assert proc.stdout == (
        "space: torus\nsimplicial identities: pass\nfrozen True\n"
    )


def test_only_the_entry_point_freezes_the_heap():
    freezes = []
    for path in sorted((ROOT / "src" / "hhx").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "freeze":
                owners = [
                    f.name for f in ast.walk(tree)
                    if isinstance(f, ast.FunctionDef) and node in ast.walk(f)
                ]
                freezes.append((path.name, owners))
    assert freezes == [("cli.py", ["run"])]
