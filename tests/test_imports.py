"""The lazy `hhx` namespace and the CLI's per-command imports.

`import hhx` loads no submodule, and each CLI command imports only what it
runs. Other tests import every module into the test process, so the checks
of what a command loads run in fresh processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhx
import hhx.cli as cli
from helpers import DUAL_DOC, SCAN_LIKE_DOC

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
# the exact hhx modules each command loads; none loads hhx.extras
VALIDATE = {"hhx", "hhx.cli", "hhx.errors", "hhx.simplicial"}
ACTIONS = VALIDATE | {"hhx.actions"}
TEMPLATE = ACTIONS | {"hhx.coeffalg", "hhx.exactlinalg"}
COHOMOLOGY = TEMPLATE | {"hhx.cochain"}
# what `from fractions import Fraction` loads; integer input needs none of it
NUMERIC = {"fractions", "decimal", "numbers"}

# hhx.__all__ as published; the lazy namespace must keep it, in this order
EXPORTS = [
    "ActionPartition",
    "ActionSlot",
    "Algebra",
    "BudgetError",
    "CochainSetup",
    "DEFAULT_BUDGET",
    "Field",
    "FormatError",
    "Generator",
    "InternalError",
    "Matrix",
    "MultiModule",
    "PrimeField",
    "QQ",
    "Simplex",
    "SimplicialSpace",
    "ValidationError",
    "builtin_space",
    "classical_hochschild_dims",
    "endomorphism_module",
    "enumerate_slots",
    "field_from_json",
    "field_from_text",
    "multiplication_module",
    "paranoid_closure",
    "parse_algebra",
    "parse_module",
    "parse_space",
    "sweep_closure",
    "validate_algebra",
    "validate_module",
    "validate_space",
]


# runs `python -m hhx ARGS` as -m does, then lists the hhx modules loaded
RUN_AND_LIST = """
import json, runpy, sys
sys.argv[0] = "hhx"
try:
    runpy.run_module("hhx", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
print(json.dumps([status, sorted(
    m for m in sys.modules if m.startswith("hhx") or m in NUMERIC
)]))
"""


def hhx_modules_loaded(*argv):
    """The hhx modules, and those of NUMERIC, that a fresh `python -m hhx
    argv` process imports."""
    proc = subprocess.run(
        [sys.executable, "-c", f"NUMERIC = {sorted(NUMERIC)}\n" + RUN_AND_LIST, *argv],
        capture_output=True, text=True, env=ENV, timeout=120, check=True,
    )
    status, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0, proc.stderr
    return set(loaded)


def hhx_only(loaded):
    return {m for m in loaded if m.startswith("hhx")}


def test_validate_loads_neither_the_closures_nor_the_algebra_side():
    loaded = hhx_modules_loaded("validate", "--builtin", "torus")
    assert hhx_only(loaded) == VALIDATE


def test_actions_without_a_template_loads_no_algebra_side(tmp_path):
    space = tmp_path / "scan-like.json"
    space.write_text(json.dumps(SCAN_LIKE_DOC), encoding="utf-8")
    loaded = hhx_modules_loaded("actions", "--space", str(space), "--paranoid", "7")
    assert hhx_only(loaded) == ACTIONS


def test_template_and_cohomology_load_the_algebra_side(tmp_path):
    algebra = tmp_path / "dual.json"
    algebra.write_text(json.dumps(DUAL_DOC), encoding="utf-8")
    module = tmp_path / "module.json"
    loaded = hhx_modules_loaded(
        "actions", "--builtin", "circle",
        "--algebra", str(algebra), "--emit-template", str(module),
    )
    # the template needs the algebras and modules, not the cochain engine
    assert hhx_only(loaded) == TEMPLATE
    loaded = hhx_modules_loaded(
        "cohomology", "--builtin", "circle",
        "--algebra", str(algebra), "--module", str(module),
    )
    assert hhx_only(loaded) == COHOMOLOGY


@pytest.mark.parametrize("field", [[], ["--field", "F5"]], ids=["Q", "F5"])
def test_integer_cohomology_loads_no_fraction_module(tmp_path, field):
    # every scalar of the documents is an int, so no "p/q" literal is read
    algebra = tmp_path / "dual.json"
    algebra.write_text(json.dumps(DUAL_DOC), encoding="utf-8")
    module = tmp_path / "module.json"
    assert cli.main([
        "actions", "--builtin", "torus",
        "--algebra", str(algebra), "--emit-template", str(module),
    ]) == 0
    loaded = hhx_modules_loaded(
        "cohomology", "--builtin", "torus",
        "--algebra", str(algebra), "--module", str(module), "-N", "1", *field,
    )
    assert hhx_only(loaded) == COHOMOLOGY
    assert not loaded & NUMERIC


def test_fractional_literal_loads_fractions_and_parses_exactly():
    script = (
        "import sys\n"
        "from hhx.exactlinalg import QQ, PrimeField\n"
        "before = 'fractions' in sys.modules\n"
        "whole = QQ.parse('-12'), QQ.parse(7), PrimeField(5).parse('-12')\n"
        "between = 'fractions' in sys.modules\n"
        "half = QQ.parse('1/2')\n"
        "from fractions import Fraction\n"
        "print(before, between, whole == (-12, 7, 3), type(half) is Fraction, "
        "half == Fraction(1, 2), PrimeField(5).parse('1/2'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=ENV, timeout=120, check=True,
    )
    assert proc.stdout.split() == ["False", "False", "True", "True", "True", "3"]


def test_public_names_are_unchanged_listed_and_resolve_lazily():
    # in a fresh process: `import hhx` loads no submodule, dir() lists every
    # public name before any is used, a submodule is an attribute as when
    # hhx imported them all, and each name resolves through from-import
    script = (
        "import json, sys\n"
        "import hhx\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hhx.'))\n"
        "listed = dir(hhx)\n"
        "submodule = hhx.simplicial.__name__\n"
        f"from hhx import {', '.join(EXPORTS)}\n"
        "budget = hhx.DEFAULT_BUDGET is hhx.cochain.DEFAULT_BUDGET "
        "is hhx.errors.DEFAULT_BUDGET\n"
        "print(json.dumps({'all': hhx.__all__, 'loaded': loaded, "
        "'listed': listed, 'submodule': submodule, 'budget': budget}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=ENV, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["all"] == EXPORTS
    assert result["loaded"] == []
    assert set(EXPORTS) <= set(result["listed"])
    assert result["submodule"] == "hhx.simplicial"
    assert result["budget"] is True


def test_unknown_names_raise_attribute_error():
    for module in (hhx, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")


def test_cohomology_calls_the_loaders_bound_on_hhx_cli(tmp_path, monkeypatch, capsys):
    # perfbench's tracer replaces hhx.cli.load_algebra and load_module by
    # name before any command runs; the command must call the replacements
    calls = []
    for name in ("load_algebra", "load_module"):
        def recorded(*args, _name=name, _load=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _load(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    algebra = tmp_path / "dual.json"
    algebra.write_text(json.dumps(DUAL_DOC), encoding="utf-8")
    module = tmp_path / "module.json"
    assert cli.main([
        "actions", "--builtin", "circle",
        "--algebra", str(algebra), "--emit-template", str(module),
    ]) == 0
    assert calls == ["load_algebra"]
    assert cli.main([
        "cohomology", "--builtin", "circle",
        "--algebra", str(algebra), "--module", str(module), "-N", "2",
    ]) == 0
    assert calls == ["load_algebra", "load_algebra", "load_module"]
    assert "HH^0=2" in capsys.readouterr().out
