import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    DUAL_DOC,
    GROUND_DOC,
    PINCHED_TORUS_REGULAR_HH,
    SCAN_LIKE_DOC,
    SLOTLESS_DOC,
    SPHERE_CIRCLE_WEDGE_DOC,
    TWO_EDGE_CIRCLE,
    dual_numbers,
    multiplication_module,
    product_space,
)
from hhx import actions, classical_hochschild_dims
from hhx.actions import sweep_closure
from hhx.cli import main
from hhx.coeffalg import load_module, parse_algebra
from hhx.exactlinalg import Matrix, field_from_text
from hhx.simplicial import builtin_space, parse_space


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def regular_module_doc(keys):
    alg = dual_numbers()
    module = multiplication_module(alg, {k: None for k in keys})
    return {
        "dim": module.dim,
        "actions": {
            k: [
                [[alg.field.to_json(mat.get(r, c)) for c in range(module.dim)]
                 for r in range(module.dim)]
                for mat in module.actions[k]
            ]
            for k in keys
        },
    }


BROKEN_SPACE = {
    "name": "broken-identities",
    "basepoint": "p",
    "simplices": [
        {"name": "p", "dim": 0},
        {"name": "q", "dim": 0},
        {"name": "loop", "dim": 1, "faces": [["p", []], ["p", []]]},
        {"name": "arc", "dim": 1, "faces": [["q", []], ["p", []]]},
        {"name": "T", "dim": 2, "faces": [["arc", []], ["loop", []], ["loop", []]]},
    ],
}


def test_validate_builtin_passes(capsys):
    status, out, _ = run_cli(capsys, "validate", "--builtin", "torus")
    assert status == 0
    assert "pass" in out


def test_validate_bad_document_is_parse_error(tmp_path, capsys):
    bad = {
        "name": "bad",
        "basepoint": "p",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "T", "dim": 2, "faces": [["p", []], ["p", []], ["p", []]]},
        ],
    }
    path = write_json(tmp_path / "bad.json", bad)
    status, _, err = run_cli(capsys, "validate", "--space", path)
    assert status == 2
    assert "dimension" in err


def test_validate_identity_violation_is_status_one(tmp_path, capsys):
    path = write_json(tmp_path / "twisted.json", BROKEN_SPACE)
    status, out, _ = run_cli(capsys, "validate", "--space", path)
    assert status == 1
    assert "T" in out and "d0" in out


def test_validate_missing_file(capsys):
    status, _, err = run_cli(capsys, "validate", "--space", "/nonexistent.json")
    assert status == 2


def test_validate_invalid_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    status, _, err = run_cli(capsys, "validate", "--space", str(path))
    assert status == 2
    assert "JSON" in err


def test_actions_torus(capsys):
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "torus", "--format", "json"
    )
    assert status == 0
    report = json.loads(out)
    assert report["class_count"] == 1
    assert report["coefficient_kind"] == "uni-module"
    assert len(report["slots"]) == 6


def test_actions_pinched_torus(capsys):
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "pinched-torus", "--format", "json"
    )
    report = json.loads(out)
    assert report["class_count"] == 2
    assert report["coefficient_kind"] == "bi-module"
    assert report["classes"] == [
        {"id": "a.0", "members": ["a.0", "c.1", "tau.1"]},
        {"id": "a.1", "members": ["a.1", "c.0", "sigma.1"]},
    ]


def test_actions_sphere3(capsys):
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "sphere3", "--format", "json"
    )
    assert json.loads(out)["class_count"] == 1


def test_actions_text_has_direction_labels(capsys):
    status, out, _ = run_cli(capsys, "actions", "--builtin", "circle")
    assert status == 0
    assert "e.0 (forward)" in out
    assert "e.1 (backward)" in out
    assert "bi-module" in out


def test_actions_paranoid_agreement(capsys):
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "torus", "--paranoid", "4",
        "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["paranoid"] == {"cap": 4, "class_count": 1, "agrees": True}


def test_actions_emit_template_roundtrip(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    template = tmp_path / "module.json"
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "pinched-torus",
        "--algebra", alg_path, "--emit-template", str(template),
    )
    assert status == 0
    doc = json.loads(template.read_text(encoding="utf-8"))
    assert doc["dim"] == 2
    assert sorted(doc["actions"]) == ["a.0", "a.1"]
    # the emitted module must be directly usable
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "pinched-torus",
        "--algebra", alg_path, "--module", str(template),
        "-N", "2", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["identities"] == "pass"


def test_sphere_circle_wedge_gives_the_pinched_torus_hh_on_more_classes(tmp_path, capsys):
    space_path = write_json(tmp_path / "wedge.json", SPHERE_CIRCLE_WEDGE_DOC)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    template = str(tmp_path / "module.json")
    status, out, _ = run_cli(
        capsys, "actions", "--space", space_path, "--algebra", alg_path,
        "--emit-template", template, "--paranoid", "5", "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["coefficient_kind"] == "3-multi-module"
    assert report["paranoid"] == {"cap": 5, "class_count": 3, "agrees": True}
    status, out, _ = run_cli(capsys, "actions", "--builtin", "pinched-torus",
                             "--format", "json")
    assert json.loads(out)["coefficient_kind"] == "bi-module"
    # every class acts alike in the regular module, so the homotopy type
    # fixes HH: the model of S^2 v S^1 gives the pinched torus's answer
    status, out, _ = run_cli(
        capsys, "cohomology", "--space", space_path, "--algebra", alg_path,
        "--module", template, "-N", "3", "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["t"] == [0, 1, 3, 6, 10]
    assert report["hh_dims"] == PINCHED_TORUS_REGULAR_HH
    # the answer predicted for the pinched torus at -N 4, out of its reach
    status, out, _ = run_cli(
        capsys, "cohomology", "--space", space_path, "--algebra", alg_path,
        "--module", template, "-N", "4", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["hh_dims"] == [2, 1, 2, 3, 4]
    # the same over F_2 and F_5, against the pinched torus at the same field
    pinched_template = str(tmp_path / "pinched.json")
    status, _, _ = run_cli(capsys, "actions", "--builtin", "pinched-torus",
                           "--algebra", alg_path, "--emit-template", pinched_template)
    assert status == 0
    for field, hh in (("F2", [2, 2, 4, 6]), ("F5", [2, 1, 2, 3])):
        answers = []
        for space, module in ((("--space", space_path), template),
                              (("--builtin", "pinched-torus"), pinched_template)):
            status, out, _ = run_cli(
                capsys, "cohomology", *space, "--algebra", alg_path, "--module", module,
                "-N", "3", "--field", field, "--budget", "3000000", "--format", "json",
            )
            assert status == 0
            answers.append(json.loads(out)["hh_dims"])
        assert answers == [hh, hh], field


# the builtin torus's names for the generators of circle x circle
TORUS_NAMES = {
    "(pt,pt)": "pt",
    "(s0.pt,e)": "a",
    "(e,e)": "b",
    "(e,s0.pt)": "c",
    "(s0.e,s1.e)": "sigma",
    "(s1.e,s0.e)": "tau",
}


def face_table(space):
    return {
        g.name: (g.dim, [(f.base.name, f.word) for f in g.faces])
        for g in space.generators
    }


def test_circle_times_circle_is_the_builtin_torus(tmp_path, capsys):
    circle = builtin_space("circle")
    doc = product_space(circle, circle)
    simplices = []
    for entry in doc["simplices"]:
        entry = dict(entry, name=TORUS_NAMES[entry["name"]])
        if "faces" in entry:
            entry["faces"] = [[TORUS_NAMES[name], word] for name, word in entry["faces"]]
        simplices.append(entry)
    renamed = {"name": "torus", "basepoint": TORUS_NAMES[doc["basepoint"]],
               "simplices": simplices}
    assert face_table(parse_space(renamed)) == face_table(builtin_space("torus"))
    space_path = write_json(tmp_path / "product.json", renamed)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    template = str(tmp_path / "module.json")
    reports = []
    for space in (("--space", space_path), ("--builtin", "torus")):
        status, actions_out, _ = run_cli(
            capsys, "actions", *space, "--algebra", alg_path,
            "--emit-template", template, "--format", "json",
        )
        assert status == 0
        status, cohomology_out, _ = run_cli(
            capsys, "cohomology", *space, "--algebra", alg_path,
            "--module", template, "-N", "2", "--format", "json",
        )
        assert status == 0
        reports.append((json.loads(actions_out), json.loads(cohomology_out)))
    (product_actions, product_hh), (torus_actions, torus_hh) = reports
    # the same partition and kind, so the same class-keyed template
    assert product_actions == torus_actions
    assert product_actions["coefficient_kind"] == "uni-module"
    assert product_hh["identities"] == "pass"
    assert product_hh["hh_dims"] == [2, 2, 4]
    assert product_hh == torus_hh


def test_actions_emit_template_requires_algebra(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "actions", "--builtin", "circle",
        "--emit-template", str(tmp_path / "m.json"),
    )
    assert status == 2
    assert "--algebra" in err


def test_actions_template_argument_errors_come_before_the_scans(tmp_path, capsys):
    # the scan-like space's paranoid scan to dimension 15 takes seconds
    space_path = write_json(tmp_path / "scan.json", SCAN_LIKE_DOC)
    alg_path = write_json(tmp_path / "alg.json", DUAL_DOC)
    scan = ("actions", "--space", space_path, "--paranoid", "15")
    template = str(tmp_path / "m.json")
    for target, extra, message in (
        (template, (), "--emit-template requires --algebra"),
        (template, ("--algebra", alg_path, "--field", "F4x"), "bad field 'F4x'"),
        ("/nonexistent/dir/m.json", ("--algebra", alg_path),
         "--emit-template: no directory /nonexistent/dir\n"),
        (str(tmp_path / "scan.json" / "m.json"), ("--algebra", alg_path),
         f"--emit-template: no directory {space_path}\n"),
        (str(tmp_path), ("--algebra", alg_path),
         f"--emit-template: {tmp_path} is a directory\n"),
    ):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *scan, "--emit-template", target, *extra)
        assert time.perf_counter() - start < 1.0
        assert status == 2
        assert out == ""
        assert message in err
    # nothing written, in the directory target either
    assert sorted(path.name for path in tmp_path.iterdir()) == ["alg.json", "scan.json"]


@pytest.mark.parametrize("flag, value", [("--algebra", "missing.json"), ("--field", "F4x")])
def test_actions_algebra_and_field_need_emit_template(flag, value, capsys, monkeypatch):
    # refused before any closure runs, whatever the value
    monkeypatch.setattr(actions, "sweep_closure", None)
    monkeypatch.setattr(actions, "paranoid_closure", None)
    status, out, err = run_cli(
        capsys, "actions", "--builtin", "circle", "--paranoid", "3", flag, value
    )
    assert status == 2
    assert out == ""
    assert "--algebra and --field require --emit-template" in err


def test_cohomology_circle_regular(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path,
        "-N", "4", "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["space"] == "circle"
    assert report["t"] == [0, 1, 2, 3, 4, 5]
    assert report["identities"] == "pass"
    assert report["hh_dims"] == [2, 1, 1, 1, 1]


def test_cohomology_sphere2_ground_field(tmp_path, capsys):
    alg_path = write_json(tmp_path / "ground.json", GROUND_DOC)
    mod_doc = {
        "dim": 2,
        "actions": {"sigma.0": [[[1, 0], [0, 1]]]},
    }
    mod_path = write_json(tmp_path / "m2.json", mod_doc)
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "sphere2",
        "--algebra", alg_path, "--module", mod_path,
        "-N", "4", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["hh_dims"] == [2, 0, 0, 0, 0]


@pytest.mark.parametrize("document", ["algebra", "module"])
@pytest.mark.parametrize("literal", ["1e10000000", "\u0661/\u0662"])
def test_cohomology_bad_scalar_literal_exits_2_at_once(tmp_path, capsys, document, literal):
    algebra = json.loads(json.dumps(DUAL_DOC))
    module = regular_module_doc(["e.0", "e.1"])
    if document == "algebra":
        algebra["mul"][1][0][1] = literal
    else:
        module["actions"]["e.1"][1][1][0] = literal
    alg_path = write_json(tmp_path / "dual.json", algebra)
    mod_path = write_json(tmp_path / "module.json", module)
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
    )
    assert time.perf_counter() - start < 1
    assert status == 2
    assert out == ""
    assert f"bad scalar literal {literal!r}" in err


def test_cohomology_overlong_scalar_literal_is_not_echoed_whole(tmp_path, capsys):
    # a 100,000-digit string passes the literal syntax, and Fraction refuses it
    algebra = json.loads(json.dumps(DUAL_DOC))
    algebra["mul"][1][0][1] = "7" * 100_000
    alg_path = write_json(tmp_path / "dual.json", algebra)
    mod_path = write_json(tmp_path / "module.json", regular_module_doc(["e.0", "e.1"]))
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
    )
    assert status == 2
    assert out == ""
    assert "bad scalar literal '7777" in err
    assert "(100002 characters)" in err
    assert len(err) < 200


def test_overlong_json_integer_is_a_format_error_naming_the_file(tmp_path, capsys):
    # json reads integers through int(), which refuses more than 4,300 digits
    alg_path = tmp_path / "dual.json"
    alg_path.write_text(
        json.dumps(DUAL_DOC).replace('"mul": [[[1, 0]', '"mul": [[[1' + "0" * 5000 + ", 0]"),
        encoding="utf-8",
    )
    mod_path = write_json(tmp_path / "module.json", regular_module_doc(["e.0", "e.1"]))
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", str(alg_path), "--module", mod_path, "-N", "2",
    )
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: {alg_path}: invalid JSON (Exceeds the limit")


@pytest.mark.parametrize("option", ["--space", "--algebra", "--module"])
def test_deeply_nested_json_is_a_format_error_naming_the_file(tmp_path, capsys, option):
    # json decodes nesting by recursion, so 200,000 brackets exhaust the stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    if option == "--space":
        argv = ["validate", "--space", str(deep)]
    else:
        paths = {
            "--algebra": write_json(tmp_path / "dual.json", DUAL_DOC),
            "--module": write_json(tmp_path / "module.json", regular_module_doc(["e.0", "e.1"])),
            option: str(deep),
        }
        argv = ["cohomology", "--builtin", "circle", "--algebra", paths["--algebra"],
                "--module", paths["--module"], "-N", "2"]
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (2, "")
    assert err == f"error: {deep}: invalid JSON (nested too deeply)\n"


def test_long_space_names_and_words_are_echoed_abridged(tmp_path, capsys):
    name = "x" * 100_000
    for bad, tail in (
        ({"name": name, "dim": 1, "faces": [["pt", []]]},
         "... (100002 characters) needs exactly 2 faces"),
        ({"name": "t", "dim": 2, "faces": [["pt", [0] * 50_000]] * 3},
         "... (150000 characters) is not in normal form over 'pt'"),
    ):
        doc = {"name": "s", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}, bad]}
        path = write_json(tmp_path / "space.json", doc)
        status, out, err = run_cli(capsys, "validate", "--space", path)
        assert (status, out) == (2, "")
        assert err.endswith(tail + "\n")
        assert len(err.encode()) < 600


def test_long_basis_name_is_echoed_abridged(tmp_path, capsys):
    # basis element 0 does not act as the unit
    algebra = json.loads(json.dumps(DUAL_DOC))
    algebra["basis"] = ["x" * 100_000, "y"]
    algebra["mul"][0][0] = [0, 1]
    alg_path = write_json(tmp_path / "dual.json", algebra)
    mod_path = write_json(tmp_path / "module.json", regular_module_doc(["e.0", "e.1"]))
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
    )
    assert (status, out) == (1, "")
    assert err.endswith("... (100002 characters)) must act as the unit\n")
    assert len(err.encode()) < 600


def test_long_module_action_keys_are_echoed_abridged(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    regular = regular_module_doc(["e.0", "e.1"])
    # a well-formed action under a key no class has, then a malformed one
    for action, expected, tail in (
        (regular["actions"]["e.0"], 1, "unexpected action classes ['kkkk"),
        ({}, 2, "] must be a list of matrices"),
    ):
        doc = {"dim": regular["dim"], "actions": {**regular["actions"], "k" * 100_000: action}}
        mod_path = write_json(tmp_path / "module.json", doc)
        status, out, err = run_cli(
            capsys, "cohomology", "--builtin", "circle",
            "--algebra", alg_path, "--module", mod_path, "-N", "2",
        )
        assert (status, out) == (expected, "")
        assert tail in err
        assert "... (100002 characters)" in err
        assert len(err.encode()) < 600


def test_long_violation_and_class_lists_name_the_first_ten(tmp_path, capsys):
    # x runs from pt to v, so d0 d2 t = v and d1 d0 t = pt on each t = (x, x, x)
    simplices = [{"name": "pt", "dim": 0}, {"name": "v", "dim": 0},
                 {"name": "x", "dim": 1, "faces": [["v", []], ["pt", []]]}]
    simplices += [{"name": f"t{k}", "dim": 2, "faces": [["x", []]] * 3} for k in range(5000)]
    path = write_json(tmp_path / "space.json",
                      {"name": "broken", "basepoint": "pt", "simplices": simplices})
    status, out, err = run_cli(capsys, "actions", "--space", path)
    assert (status, out) == (1, "")
    listing = ", ".join(f"(t{k}, d0, d2)" for k in range(10))
    assert err.endswith(f"simplicial identities violated: {listing}, ... and 4990 more\n")
    assert len(err.encode()) < 2048
    # thirty loops at pt make sixty one-slot classes; the module has none of
    # them and 5,000 classes besides
    loop = [["pt", []], ["pt", []]]
    wedge = {"name": "wedge", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}]
             + [{"name": f"e{k:02}", "dim": 1, "faces": loop} for k in range(30)]}
    space_path = write_json(tmp_path / "wedge.json", wedge)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    regular = regular_module_doc(["e.0"])
    extra = {f"k{k:04}": regular["actions"]["e.0"] for k in range(5000)}
    mod_path = write_json(tmp_path / "module.json", {"dim": regular["dim"], "actions": extra})
    status, out, err = run_cli(
        capsys, "cohomology", "--space", space_path,
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
    )
    assert (status, out) == (1, "")
    assert "missing action classes ['e00.0', 'e00.1', 'e01.0', " in err
    assert "'e04.1', ... and 50 more]; unexpected action classes ['k0000', " in err
    assert err.endswith("'k0009', ... and 4990 more]\n")
    assert len(err.encode()) < 2048


def test_cohomology_budget_exceeded(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(tmp_path / "mod.json", regular_module_doc(["a.0"]))
    status, _, err = run_cli(
        capsys, "cohomology", "--builtin", "torus",
        "--algebra", alg_path, "--module", mod_path, "-N", "5",
    )
    assert status == 3
    assert "degree 4" in err


def test_cohomology_custom_budget(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    status, _, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path,
        "-N", "4", "--budget", "50",
    )
    assert status == 3
    assert "degree 5" in err and "64" in err


def test_cohomology_wrong_module_keys(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "two.json", regular_module_doc(["e.0", "e.1"])
    )
    status, _, err = run_cli(
        capsys, "cohomology", "--builtin", "torus",
        "--algebra", alg_path, "--module", mod_path,
    )
    assert status == 1
    assert "action classes" in err


def test_cohomology_override_slots_reports_failure(tmp_path, capsys):
    alg = dual_numbers()
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    twist = [[1, 0], [0, -1]]
    module = multiplication_module(
        alg, {"sigma.0": None, "sigma.1": None, "sigma.2": twist}
    )
    doc = {
        "dim": 2,
        "actions": {
            k: [
                [[alg.field.to_json(mat.get(r, c)) for c in range(2)]
                 for r in range(2)]
                for mat in mats
            ]
            for k, mats in module.actions.items()
        },
    }
    mod_path = write_json(tmp_path / "override.json", doc)
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "sphere2",
        "--algebra", alg_path, "--module", mod_path,
        "-N", "2", "--override-slots", "--format", "json",
    )
    assert status == 1
    report = json.loads(out)
    assert {"relation": "a", "n": 0, "i": 0, "j": 2} in report["identities"]
    assert "hh_dims" not in report


def test_cohomology_field_override(tmp_path, capsys):
    alg_doc = dict(DUAL_DOC)
    alg_path = write_json(tmp_path / "dual.json", alg_doc)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path,
        "-N", "3", "--field", "F5", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["hh_dims"] == [2, 1, 1, 1]


# Q[x]/(x^2 - x - 1), basis 1, x: x x = 1 + x, a product with two nonzero
# coordinates, so the module check adds matrices (MultiModule.act)
GOLDEN_RATIO_DOC = {
    "field": "Q",
    "basis": ["1", "x"],
    "mul": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
}


@pytest.mark.parametrize("field,dims", [("Q", [2, 0, 0, 0]), ("F11", [2, 0, 0, 0]),
                                        ("F5", [2, 1, 1, 1])])
def test_cohomology_of_a_non_monomial_algebra_matches_classical_oracle(
    field, dims, tmp_path, capsys, monkeypatch
):
    # the discriminant 5 of x^2 - x - 1 vanishes over F5 only, where the
    # algebra is F5[x]/(x - 3)^2, the dual numbers again
    alg_path = write_json(tmp_path / "golden-ratio.json", GOLDEN_RATIO_DOC)
    mod_path = str(tmp_path / "regular.json")
    status, _, _ = run_cli(
        capsys, "actions", "--builtin", "circle", "--algebra", alg_path,
        "--field", field, "--emit-template", mod_path,
    )
    assert status == 0
    sums = []
    add = Matrix.__add__
    monkeypatch.setattr(Matrix, "__add__", lambda a, b: sums.append(1) or add(a, b))
    status, out, _ = run_cli(
        capsys, "cohomology", "--builtin", "circle", "--algebra", alg_path,
        "--module", mod_path, "-N", "3", "--field", field, "--format", "json",
    )
    assert status == 0
    assert sums  # the CLI reaches Matrix.__add__
    assert json.loads(out)["hh_dims"] == dims
    algebra = parse_algebra(GOLDEN_RATIO_DOC, field=field_from_text(field))
    module = load_module(mod_path, algebra, sweep_closure(builtin_space("circle")))
    assert classical_hochschild_dims(algebra, module, "e.0", "e.1", 3) == dims


@pytest.mark.parametrize("value", ["F\u0663", "F\u00b2", "F05", "F0", "F+5", "F 5"])
def test_field_override_takes_ascii_digits_without_leading_zero(value, tmp_path, capsys):
    # an Arabic-Indic three, a superscript two, a leading zero, a sign and a
    # space are each refused as a bad field, not read as a number
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    for command in (
        ("cohomology", "--module", mod_path),
        ("actions", "--emit-template", str(tmp_path / "m.json")),
    ):
        status, out, err = run_cli(
            capsys, command[0], "--builtin", "circle", "--algebra", alg_path,
            *command[1:], "--field", value,
        )
        assert status == 2
        assert out == ""
        assert f"bad field {value!r} (expected Q or F<p>)" in err
    assert not (tmp_path / "m.json").exists()


def test_json_reports_are_deterministic(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    outputs = set()
    for _ in range(3):
        status, out, _ = run_cli(
            capsys, "cohomology", "--builtin", "circle",
            "--algebra", alg_path, "--module", mod_path,
            "-N", "3", "--format", "json",
        )
        assert status == 0
        outputs.add(out)
    outputs.update(
        run_cli(capsys, "actions", "--builtin", "torus", "--format", "json")[1]
        for _ in range(2)
    )
    assert len(outputs) == 2  # one per distinct command


def test_unknown_builtin_is_parse_error(capsys):
    status, _, err = run_cli(capsys, "actions", "--builtin", "moebius")
    assert status == 2
    assert "unknown builtin" in err
    status, out, err = run_cli(capsys, "validate", "--builtin", "sphere01")
    assert status == 2
    assert out == ""
    assert "unknown builtin space 'sphere01'" in err


def test_long_builtin_and_field_names_are_echoed_abridged(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    status, out, err = run_cli(capsys, "validate", "--builtin", "x" * 5000)
    assert (status, out) == (2, "")
    assert err.startswith("error: unknown builtin space 'xxxx")
    assert err.endswith("... (5002 characters)\n")
    assert len(err) < 200
    # a name that is no field, and a modulus past the int conversion limit
    for field, tail in (("F" + "x" * 5000, "... (5003 characters) (expected Q or F<p>)"),
                        ("F1" + "0" * 5000, "... (5001 characters)")):
        status, out, err = run_cli(
            capsys, "cohomology", "--builtin", "circle", "--algebra", alg_path,
            "--module", mod_path, "--field", field,
        )
        assert (status, out) == (2, "")
        assert err.endswith(tail + "\n")
        assert len(err) < 200


def test_paranoid_cap_too_small_is_parse_error(capsys):
    status, _, err = run_cli(
        capsys, "actions", "--builtin", "sphere4", "--paranoid", "3"
    )
    assert status == 2
    assert "dim_cap" in err


def test_paranoid_cap_above_scan_limit_is_usage_error(capsys):
    # circle to dimension 100000: C(n + 1, 2) visits on each of the n
    # non-basepoint n-simplices, for n = 2..100000
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, "actions", "--builtin", "circle", "--paranoid", "100000"
    )
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == ""
    assert "would make 12500416670416674999 face-pair visits" in err


def test_paranoid_limit_counts_face_pairs_not_simplices(capsys):
    # the scan to dimension 1000 lists 501,498 simplices, within a bound of
    # 1,000,000 simplices, but makes C(n + 1, 2) face-pair visits on each
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, "actions", "--builtin", "circle", "--paranoid", "1000"
    )
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == ""
    assert "would make 125417041749 face-pair visits" in err


@pytest.mark.parametrize("cap", ["1000000000", "1" + "0" * 1199])
def test_paranoid_scan_of_the_point_space_stops_at_once(tmp_path, capsys, monkeypatch, cap):
    # the point has no simplex to visit, so the face-pair visit limit does
    # not bound the scan; no level past dimension 1 may be built, and one
    # that is fails here instead of running for hours
    space = write_json(tmp_path / "point.json", {
        "name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}],
    })
    level_rows = actions.level_rows

    def two_levels_at_most(space, top, blocks=None):
        for n, level in enumerate(level_rows(space, top, blocks)):
            assert n <= 1, f"level {n} of the point space built"
            yield level

    monkeypatch.setattr(actions, "level_rows", two_levels_at_most)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "actions", "--space", space, "--paranoid", cap)
    assert time.perf_counter() - start < 0.5
    assert (status, err) == (0, "")
    assert out.endswith(
        f"paranoid scan to dimension {cap}: 0 classes, agrees with the generator scan\n"
    )
    status, out, _ = run_cli(
        capsys, "actions", "--space", space, "--paranoid", cap, "--format", "json"
    )
    assert status == 0
    assert json.loads(out)["paranoid"] == {"cap": int(cap), "class_count": 0, "agrees": True}


def test_sphere_above_limit_is_usage_error(capsys):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "validate", "--builtin", "sphere257")
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert out == ""
    assert "between 1 and 256, got 257" in err
    status, out, _ = run_cli(capsys, "validate", "--builtin", "sphere256")
    assert status == 0
    assert "simplicial identities: pass" in out


def test_sphere_name_past_the_int_conversion_limit_is_usage_error(capsys):
    # the interpreter converts no text of more than 4,300 digits to an int,
    # so the name's length is compared with the limit's first
    status, out, err = run_cli(capsys, "validate", "--builtin", "sphere" + "9" * 5000)
    assert status == 2
    assert out == ""
    assert err.startswith("error: sphere dimension must be between 1 and 256, got 9999")
    assert err.endswith("... (5000 characters)\n")
    assert len(err) < 200


def parse_error(capsys, *argv):
    """(exit status, stderr) of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


INT_OPTIONS = [
    (("cohomology", "--builtin", "circle", "--algebra", "a", "--module", "m", "-N"),
     "-N/--max-degree"),
    (("cohomology", "--builtin", "circle", "--algebra", "a", "--module", "m", "--budget"),
     "--budget"),
    (("actions", "--builtin", "circle", "--paranoid"), "--paranoid"),
]


@pytest.mark.parametrize("argv,flag", INT_OPTIONS, ids=[flag for _, flag in INT_OPTIONS])
def test_refused_int_option_is_echoed_abridged(capsys, argv, flag):
    # argparse's type=int repeats the refused text whole; a short one keeps
    # argparse's wording
    status, err = parse_error(capsys, *argv, "x")
    assert status == 2
    assert err.endswith(f"error: argument {flag}: invalid int value: 'x'\n")
    # past 4,300 digits int() refuses the text too
    status, err = parse_error(capsys, *argv, "9" * 5000)
    assert status == 2
    assert f"error: argument {flag}: invalid int value: '9999" in err
    assert err.endswith("... (5002 characters)\n")
    assert len(err) < 600


@pytest.mark.parametrize("argv,flag", INT_OPTIONS, ids=[flag for _, flag in INT_OPTIONS])
@pytest.mark.parametrize("text", ["\u0663", "\uff13", " 1_0 ", "1_0", " 3", "3\n", "+3", ""])
def test_int_option_takes_only_ascii_digits(capsys, argv, flag, text):
    # int() takes each of these but the empty text; the options take
    # -?[0-9]+ alone, as scalars, --field and sphere names do
    status, err = parse_error(capsys, *argv, text)
    assert status == 2
    assert err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")


def test_int_options_read_ascii_digits(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "actions", "--builtin", "sphere2", "--paranoid", "03", "--format", "json"
    )
    assert status == 0
    assert json.loads(out)["paranoid"]["cap"] == 3
    alg = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod = write_json(tmp_path / "module.json", regular_module_doc(["e.0", "e.1"]))
    argv = ("cohomology", "--builtin", "circle", "--algebra", alg, "--module", mod)
    status, out, _ = run_cli(capsys, *argv, "-N", "02", "--budget", "0100", "--format", "json")
    assert status == 0
    assert len(json.loads(out)["hh_dims"]) == 3
    # a negative value parses, and the command refuses it
    status, _, err = run_cli(capsys, *argv, "-N", "-1")
    assert (status, err) == (2, "error: --max-degree must be at least 1\n")
    status, _, err = run_cli(capsys, *argv, "--budget", "3")
    assert status == 3
    assert err.endswith("exceeding the budget of 3 columns\n")


def test_huge_module_on_a_slotless_space_is_refused_at_once(tmp_path, capsys):
    # with no slot the module lists no action, so validating it forms no
    # m x m matrix, and the column budget refuses degree 0
    space = write_json(tmp_path / "slotless.json", SLOTLESS_DOC)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(tmp_path / "module.json", {"dim": 3_000_000, "actions": {}})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        status, out, err = run_cli(
            capsys, "cohomology", "--space", space,
            "--algebra", alg_path, "--module", mod_path,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 16 * 2**20
    assert status == 3
    assert out == ""
    assert "hom-space in degree 0 has dimension 6000000" in err


def test_identity_check_above_visit_limit_is_budget_error(tmp_path, capsys):
    # over k with its emitted template the hom dims stay at 1 in every
    # degree, so the column budget never trips; the check's size does
    alg_path = write_json(tmp_path / "ground.json", GROUND_DOC)
    template = str(tmp_path / "module.json")
    status, _, _ = run_cli(
        capsys, "actions", "--builtin", "circle",
        "--algebra", alg_path, "--emit-template", template,
    )
    assert status == 0
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", template, "-N", "80",
    )
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert "would visit 5604740 simplices" in err


def test_face_limit_refuses_a_huge_degree_before_any_loop_over_it(tmp_path, capsys):
    # over k the hom dims stay at 1 in every degree, so no column budget
    # trips early; the coface count depends on N alone and is checked first
    alg_path = write_json(tmp_path / "ground.json", GROUND_DOC)
    template = str(tmp_path / "module.json")
    status, _, _ = run_cli(
        capsys, "actions", "--builtin", "circle",
        "--algebra", alg_path, "--emit-template", template,
    )
    assert status == 0
    start = time.perf_counter()
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", template, "-N", "10000000",
    )
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert "would expand 50000025000002 cofaces" in err


def test_face_limit_message_abridges_a_degree_past_the_int_conversion_limit(
    tmp_path, capsys
):
    # the interpreter converts no int of more than 4,300 digits to text, and
    # (N + 1)(N + 4) / 2 has 4,400 digits for a 2,200-digit N
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(tmp_path / "mod.json", regular_module_doc(["e.0", "e.1"]))
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path, "-N", "9" * 2200,
    )
    assert status == 3
    assert out == ""
    assert err.startswith("error: the differentials would expand 5000000")
    assert "... (4400 characters) cofaces, exceeding the limit of 100000" in err
    assert len(err) < 200


def test_column_budget_message_abridges_dimensions_past_the_int_conversion_limit(
    tmp_path, capsys
):
    # a 4,201-digit budget is first exceeded by sphere4's hom space in
    # degree 26, m d^C(26, 4) = 2^14951, of 4,501 digits
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(tmp_path / "mod.json", regular_module_doc(["sigma.0"]))
    status, out, err = run_cli(
        capsys, "cohomology", "--builtin", "sphere4", "--algebra", alg_path,
        "--module", mod_path, "-N", "30", "--budget", "1" + "0" * 4200,
    )
    assert status == 3
    assert out == ""
    assert err.startswith("error: hom-space in degree 26 has dimension 5005704")
    assert "... (4501 characters), exceeding the budget of 1000000" in err
    assert "... (4201 characters) columns" in err
    assert len(err) < 250


def test_paranoid_limit_message_abridges_a_cap_past_the_int_conversion_limit(capsys):
    # C(n + 1, 2) visits on each of the circle's n-simplices sum to 4,800
    # digits for a 1,200-digit cap
    status, out, err = run_cli(
        capsys, "actions", "--builtin", "circle", "--paranoid", "9" * 1200
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: paranoid scan to dimension 9999")
    assert "... (1200 characters) would make 1249999" in err
    assert "... (4800 characters) face-pair visits, more than the limit" in err
    assert len(err) < 250


def test_face_limit_refuses_a_deep_point_space_at_once(tmp_path, capsys):
    # over k every hom space of the point space is 1-dimensional and it has
    # no simplex to visit, so only the count of coface expansions,
    # (N + 1)(N + 4) / 2, bounds the run
    space = write_json(tmp_path / "point.json", {
        "name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}],
    })
    alg_path = write_json(tmp_path / "ground.json", GROUND_DOC)
    mod_path = write_json(tmp_path / "module.json", {"dim": 1, "actions": {}})
    argv = ("cohomology", "--space", space, "--algebra", alg_path, "--module", mod_path)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, *argv, "-N", "3000")
    assert time.perf_counter() - start < 1.0
    assert status == 3
    assert out == ""
    assert "would expand 4507502 cofaces" in err
    status, out, _ = run_cli(capsys, *argv, "-N", "250", "--format", "json")
    assert status == 0
    assert json.loads(out)["hh_dims"] == [1] + [0] * 250


def test_two_edge_circle_matches_builtin_circle(tmp_path, capsys):
    # homotopy invariance: the builtin circle gives the same HH
    # (test_cohomology_circle_regular)
    space_path = write_json(tmp_path / "two-edge.json", TWO_EDGE_CIRCLE)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    template = str(tmp_path / "module.json")
    status, _, _ = run_cli(
        capsys, "actions", "--space", space_path,
        "--algebra", alg_path, "--emit-template", template,
    )
    assert status == 0
    status, out, _ = run_cli(
        capsys, "cohomology", "--space", space_path,
        "--algebra", alg_path, "--module", template,
        "-N", "4", "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["identities"] == "pass"
    assert report["hh_dims"] == [2, 1, 1, 1, 1]


def test_custom_space_full_workflow(tmp_path, capsys):
    wedge = {
        "name": "wedge-of-circles",
        "basepoint": "pt",
        "simplices": [
            {"name": "pt", "dim": 0},
            {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            {"name": "f", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        ],
    }
    space_path = write_json(tmp_path / "wedge.json", wedge)
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    status, out, _ = run_cli(
        capsys, "actions", "--space", space_path, "--format", "json",
        "--algebra", alg_path, "--emit-template", str(tmp_path / "mod.json"),
    )
    assert status == 0
    report = json.loads(out)
    assert report["class_count"] == 4
    assert report["coefficient_kind"] == "4-multi-module"
    status, out, _ = run_cli(
        capsys, "cohomology", "--space", space_path,
        "--algebra", alg_path, "--module", str(tmp_path / "mod.json"),
        "-N", "2", "--format", "json",
    )
    assert status == 0
    report = json.loads(out)
    assert report["space"] == "wedge-of-circles"
    assert report["t"] == [0, 2, 4, 6]
    assert report["identities"] == "pass"
    assert len(report["hh_dims"]) == 3


def test_max_degree_below_one_is_usage_error(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    status, _, err = run_cli(
        capsys, "cohomology", "--builtin", "circle",
        "--algebra", alg_path, "--module", mod_path, "-N", "0",
    )
    assert status == 2
    assert "max-degree" in err


def test_budget_below_one_is_usage_error(tmp_path, capsys):
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["e.0", "e.1"])
    )
    for budget in ("0", "-5"):
        status, out, err = run_cli(
            capsys, "cohomology", "--builtin", "circle",
            "--algebra", alg_path, "--module", mod_path, "--budget", budget,
        )
        assert status == 2
        assert out == ""
        assert f"--budget must be at least 1, got {budget}" in err


def reports_under_hash_seeds_and_optimize(*hhx_argv):
    """Distinct stdouts of `python -m hhx` under PYTHONHASHSEED=0, =1 and -O."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for flags, seed in (([], "0"), ([], "1"), (["-O"], "0")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hhx", *hhx_argv],
            capture_output=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    return outputs


def test_cohomology_bytes_independent_of_hash_seed_and_optimize(tmp_path):
    # rank iterates sets of row ids; the report must not depend on hash
    # randomisation, and no check may be an assert that -O strips
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["a.0"])
    )
    outputs = reports_under_hash_seeds_and_optimize(
        "cohomology", "--builtin", "torus",
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
        "--format", "json",
    )
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["hh_dims"] == [2, 2, 4]


def test_paranoid_actions_bytes_independent_of_hash_seed_and_optimize(tmp_path):
    # the paranoid scan unions slots hashed by generator identity; its
    # report must not depend on hash randomisation or on -O
    space_path = write_json(tmp_path / "scan-like.json", SCAN_LIKE_DOC)
    outputs = reports_under_hash_seeds_and_optimize(
        "actions", "--space", space_path, "--paranoid", "7", "--format", "json",
    )
    assert len(outputs) == 1
    report = json.loads(outputs.pop())
    assert report["paranoid"] == {"cap": 7, "class_count": 6, "agrees": True}
