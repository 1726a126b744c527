"""Golden CLI reports: exit status and stdout bytes, compared byte for byte.

The inputs live in tests/golden/: dual numbers over Q (dual-q.json), the
regular module that `hhx actions --emit-template` writes for each builtin
(regular-<space>.json), slot-keyed sphere2 and pinched-torus modules with
one slot twisted by x -> -x, whose cosimplicial identities fail
(override-<space>.json), and a one-vertex space with
degenerate triangle faces and cells up to dimension 6 for the paranoid scan
(scan-like.json). Case <name> keeps its stdout in <name>.out and its exit
status in status.json; the --help text of hhx and of each command is kept
in help[-<command>].out, printed at COLUMNS=80. One case of each command
path also runs as a fresh `python -m hhx` process, where a name the CLI
binds only on first use is not already loaded by another test.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import DUAL_DOC, SCAN_LIKE_DOC, dual_numbers, multiplication_module
from hhx.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

# builtin -> top degree of its cohomology case
BUILTINS = {
    "circle": 4,
    "sphere2": 3,
    "sphere3": 4,
    "sphere4": 4,
    "torus": 2,
    "pinched-torus": 2,
}

# builtin -> its slots under --override-slots; the last one is twisted
OVERRIDES = {
    "sphere2": ("sigma.0", "sigma.1", "sigma.2"),
    "pinched-torus": ("a.0", "a.1", "c.0", "c.1", "tau.1", "sigma.1"),
}


def _cases():
    cases = {}
    for name, top in BUILTINS.items():
        for fmt in ("text", "json"):
            cases[f"validate-{name}-{fmt}"] = [
                "validate", "--builtin", name, "--format", fmt,
            ]
            cases[f"actions-{name}-{fmt}"] = [
                "actions", "--builtin", name, "--format", fmt,
            ]
            cases[f"cohomology-{name}-{fmt}"] = [
                "cohomology", "--builtin", name,
                "--algebra", "dual-q.json", "--module", f"regular-{name}.json",
                "-N", str(top), "--format", fmt,
            ]
    cases["actions-torus-paranoid-json"] = [
        "actions", "--builtin", "torus", "--paranoid", "4", "--format", "json",
    ]
    for fmt in ("text", "json"):
        cases[f"actions-scan-like-paranoid-{fmt}"] = [
            "actions", "--space", "scan-like.json", "--paranoid", "7", "--format", fmt,
        ]
        for name in OVERRIDES:
            cases[f"cohomology-{name}-override-{fmt}"] = [
                "cohomology", "--builtin", name,
                "--algebra", "dual-q.json", "--module", f"override-{name}.json",
                "-N", "2", "--override-slots", "--format", fmt,
            ]
    return cases


CASES = _cases()

# help text -> the command line that prints it; argparse wraps it to the
# terminal width, so it is recorded and compared at COLUMNS=80
HELP_CASES = {
    "help": ["--help"],
    "help-validate": ["validate", "--help"],
    "help-actions": ["actions", "--help"],
    "help-cohomology": ["cohomology", "--help"],
}

# one case per command path that imports a different set of modules
FRESH_CASES = (
    "validate-torus-text",
    "actions-scan-like-paranoid-json",
    "cohomology-pinched-torus-text",
)


def run_case(argv, fresh=False):
    """(exit status, stdout bytes) of `hhx argv`, input names under GOLDEN;
    in this process, or with fresh=True in a new `python -m hhx` process."""
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    if fresh:
        proc = subprocess.run(
            [sys.executable, "-m", "hhx", *argv], capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=False,
        )
        return proc.returncode, proc.stdout
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue().encode("utf-8")


def run_help(argv):
    """stdout bytes of `hhx argv --help`, which exits with status 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    return out.getvalue().encode("utf-8")


def check_golden(name, fresh=False):
    expected = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    status, out = run_case(CASES[name], fresh)
    assert status == expected[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    check_golden(name)


@pytest.mark.parametrize("name", FRESH_CASES)
def test_fresh_process_output_matches_golden(name):
    check_golden(name, fresh=True)


# Python 3.13's argparse prints a metavar once per option ("-N,
# --max-degree MAX_DEGREE"); the texts were recorded with Python 3.11
@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse help format")
@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_help(HELP_CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


def test_fresh_process_template_matches_golden(tmp_path):
    template = tmp_path / "regular-torus.json"
    status, _ = run_case([
        "actions", "--builtin", "torus",
        "--algebra", "dual-q.json", "--emit-template", str(template),
    ], fresh=True)
    assert status == 0
    assert template.read_bytes() == (GOLDEN / "regular-torus.json").read_bytes()


def record():
    GOLDEN.mkdir(exist_ok=True)

    def write(name, doc):
        text = json.dumps(doc, indent=2) + "\n"
        (GOLDEN / name).write_text(text, encoding="utf-8")

    write("dual-q.json", DUAL_DOC)
    write("scan-like.json", SCAN_LIKE_DOC)
    for name in BUILTINS:
        with contextlib.redirect_stdout(io.StringIO()):
            main([
                "actions", "--builtin", name,
                "--algebra", str(GOLDEN / "dual-q.json"),
                "--emit-template", str(GOLDEN / f"regular-{name}.json"),
            ])
    alg = dual_numbers()
    twist = [[1, 0], [0, -1]]
    for name, slots in OVERRIDES.items():
        module = multiplication_module(
            alg, {key: None for key in slots[:-1]} | {slots[-1]: twist}
        )
        write(f"override-{name}.json", {
            "dim": module.dim,
            "actions": {
                key: [
                    [[alg.field.to_json(mat.get(r, c)) for c in range(module.dim)]
                     for r in range(module.dim)]
                    for mat in mats
                ]
                for key, mats in module.actions.items()
            },
        })
    statuses = {}
    for name, argv in sorted(CASES.items()):
        statuses[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
    write("status.json", statuses)
    os.environ["COLUMNS"] = "80"
    for name, argv in HELP_CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run_help(argv))


if __name__ == "__main__":
    record()
