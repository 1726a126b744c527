import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import DUAL_DOC, GROUND_DOC, dual_numbers, multiplication_module
from hhx.cli import main


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


def test_actions_emit_template_requires_algebra(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "actions", "--builtin", "circle",
        "--emit-template", str(tmp_path / "m.json"),
    )
    assert status == 2
    assert "--algebra" in err


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


def test_paranoid_cap_too_small_is_parse_error(capsys):
    status, _, err = run_cli(
        capsys, "actions", "--builtin", "sphere4", "--paranoid", "3"
    )
    assert status == 2
    assert "dim_cap" in err


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


def test_cohomology_bytes_independent_of_hash_seed_and_optimize(tmp_path):
    # rank iterates sets of row ids; the report must not depend on hash
    # randomisation, and no check may be an assert that -O strips
    alg_path = write_json(tmp_path / "dual.json", DUAL_DOC)
    mod_path = write_json(
        tmp_path / "regular.json", regular_module_doc(["a.0"])
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [
        "-m", "hhx", "cohomology", "--builtin", "torus",
        "--algebra", alg_path, "--module", mod_path, "-N", "2",
        "--format", "json",
    ]
    outputs = set()
    for flags, seed in (([], "0"), ([], "1"), (["-O"], "0")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, *flags, *argv],
            capture_output=True, env=env, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["hh_dims"] == [2, 2, 4]
