"""Seeded inputs, job lists and answer checks for the hhx benchmark.

Each workload is a fixed sequence of `hhx` CLI jobs. `build(name, seed,
workdir)` writes every input document the jobs read into `workdir` and
returns the jobs, each with the answer its report must contain. The CLI only
ever sees the generated files; the same seed always writes the same bytes.

Why these four (sizes measured at the seed commit, 2 cores, Python 3.11):

- torus-q: the ROADMAP baseline; Bareiss rank of delta_2 (65536 x 512) is
  about 80% of the time, so it is led by `exactlinalg` rank over Q.
- sparse-f5: four dual-number jobs over F_5 whose time is mostly coface
  assembly scanning d^{t_{n+1}} mostly-zero target rows; rank takes the F_p
  path, so a Bareiss-only change should leave it unchanged.
- circle-deep: eleven degrees on the circle with a seeded square-zero
  bimodule; the identity check's sparse products lead, checked against the
  independent classical bar-complex oracle.
- actions-scan: a seeded one-vertex space, validated and then scanned
  degenerate-inclusive to dimension 8; no linear algebra, only the
  `simplicial` normal forms and the `actions` union-find.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from hhx import (
    PrimeField,
    builtin_space,
    classical_hochschild_dims,
    endomorphism_module,
    multiplication_module,
    parse_algebra,
    parse_module,
    parse_space,
    sweep_closure,
    validate_space,
)

NAMES = ("torus-q", "sparse-f5", "circle-deep", "actions-scan")

DUAL_DOC = {
    "field": "Q",
    "basis": ["1", "x"],
    "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
}

# actions-scan shape: fixed so that every seed does the same amount of work;
# the seed only chooses which edge or degenerate basepoint fills each face.
SCAN_EDGES = 30
SCAN_TRIANGLES = 60
SCAN_DEGENERATE_FACES = 45  # of the 3 * SCAN_TRIANGLES triangle faces
SCAN_CELL_DIMS = (3, 4, 5, 6)
SCAN_CAP = 8

CIRCLE_DEGREE = 10
P = 5


@dataclass(frozen=True)
class Job:
    """One `hhx` invocation and the report fields it must produce."""

    command: str
    space: tuple[str, str]  # ("--builtin", name) or ("--space", path)
    expect: dict
    algebra: str | None = None
    module: str | None = None
    field: str | None = None
    options: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        out = [self.command, *self.space]
        for flag, value in (
            ("--algebra", self.algebra),
            ("--module", self.module),
            ("--field", self.field),
        ):
            if value is not None:
                out += [flag, value]
        return out + list(self.options) + ["--format", "json"]

    def loads(self) -> dict:
        """What the set-up probe loads for this job: no cochain work."""
        spec = {"space": list(self.space)}
        if self.algebra is not None:
            spec.update(algebra=self.algebra, module=self.module, field=self.field)
        return spec


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job] = field(default_factory=list)


def check_report(report, expect: dict, path: str = "") -> list[str]:
    """Mismatches between a parsed report and the expected fields (subset)."""
    if not isinstance(report, dict):
        return [f"{path or 'report'}: expected an object, got {report!r}"]
    problems = []
    for key, want in expect.items():
        where = f"{path}.{key}" if path else key
        if key not in report:
            problems.append(f"{where}: missing")
        elif isinstance(want, dict):
            problems.extend(check_report(report[key], want, where))
        elif report[key] != want:
            problems.append(f"{where}: got {report[key]!r}, expected {want!r}")
    return problems


def check_job(job: Job, exit_code: int, stdout: str) -> list[str]:
    """Why a finished job counts as failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON ({exc})"]
    return check_report(report, job.expect)


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _module_doc(module, field) -> dict:
    m = module.dim
    return {
        "dim": m,
        "actions": {
            key: [
                [[field.to_json(mat.get(r, c)) for c in range(m)] for r in range(m)]
                for mat in mats
            ]
            for key, mats in sorted(module.actions.items())
        },
    }


def _coefficients(workdir: Path, space_name: str, kind: str, algebra) -> str:
    """Write the regular or `end` module document for a builtin space."""
    partition = sweep_closure(builtin_space(space_name))
    if kind == "regular":
        module = multiplication_module(
            algebra, {cid: None for cid in partition.class_ids}
        )
    else:
        rho = multiplication_module(algebra, {"v": None}).actions["v"]
        module = endomorphism_module(algebra, rho, partition)
    doc = _module_doc(module, algebra.field)
    parse_module(doc, algebra, partition)  # reject a document the CLI would
    return _write_json(workdir / f"{space_name}-{kind}.json", doc)


def scan_space_doc(rng: random.Random) -> dict:
    """A one-vertex space: edges, triangles on edges and s0 pt, high cells."""
    simplices = [{"name": "pt", "dim": 0}]
    edges = [f"e{k:02d}" for k in range(SCAN_EDGES)]
    for name in edges:
        simplices.append({"name": name, "dim": 1, "faces": [["pt", []], ["pt", []]]})
    n_faces = 3 * SCAN_TRIANGLES
    degenerate = set(rng.sample(range(n_faces), SCAN_DEGENERATE_FACES))
    faces = [
        ["pt", [0]] if k in degenerate else [rng.choice(edges), []]
        for k in range(n_faces)
    ]
    for k in range(SCAN_TRIANGLES):
        simplices.append(
            {"name": f"t{k:02d}", "dim": 2, "faces": faces[3 * k: 3 * k + 3]}
        )
    for dim in SCAN_CELL_DIMS:
        basepoint = ["pt", list(range(dim - 2, -1, -1))]
        simplices.append(
            {"name": f"c{dim}", "dim": dim, "faces": [basepoint] * (dim + 1)}
        )
    return {"name": "scan", "basepoint": "pt", "simplices": simplices}


def circle_bimodule_doc(rng: random.Random) -> dict:
    """Commuting nonzero square-zero 2x2 actions of x over F_5.

    x acts on the left as X = v w^T with w.v = 0 and every coordinate
    nonzero (so every seed gives the same sparsity), and on the right as a
    nonzero multiple of X.
    """
    a, b, c = (rng.randrange(1, P) for _ in range(3))
    d = -a * c * pow(b, -1, P) % P  # w.v = c*a + d*b = 0
    left = [[a * c % P, a * d % P], [b * c % P, b * d % P]]
    k = rng.randrange(1, P)
    right = [[k * v % P for v in row] for row in left]
    ident = [[1, 0], [0, 1]]
    return {"dim": 2, "actions": {"e.0": [ident, left], "e.1": [ident, right]}}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload into workdir and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, seed)
    if name in ("torus-q", "sparse-f5", "circle-deep"):
        dual_path = _write_json(workdir / "dual.json", DUAL_DOC)
    if name == "torus-q":
        algebra = parse_algebra(DUAL_DOC)
        wl.jobs.append(Job(
            "cohomology", ("--builtin", "torus"), {"hh_dims": [2, 2, 4]},
            dual_path, _coefficients(workdir, "torus", "regular", algebra),
            options=("-N", "2"),
        ))
    elif name == "sparse-f5":
        algebra = parse_algebra(DUAL_DOC, field=PrimeField(P))
        for space_name, kind, degree, dims in (
            ("torus", "regular", 2, [2, 2, 4]),
            ("torus", "end", 2, [4, 4, 8]),
            ("sphere4", "regular", 5, [2, 0, 0, 0, 1, 1]),
            ("pinched-torus", "end", 2, [2, 0, 1]),
        ):
            wl.jobs.append(Job(
                "cohomology", ("--builtin", space_name), {"hh_dims": dims},
                dual_path, _coefficients(workdir, space_name, kind, algebra),
                field=f"F{P}", options=("-N", str(degree)),
            ))
    elif name == "circle-deep":
        algebra = parse_algebra(DUAL_DOC, field=PrimeField(P))
        doc = circle_bimodule_doc(rng)
        partition = sweep_closure(builtin_space("circle"))
        module = parse_module(doc, algebra, partition)
        oracle = classical_hochschild_dims(
            algebra, module, "e.0", "e.1", CIRCLE_DEGREE
        )
        wl.jobs.append(Job(
            "cohomology", ("--builtin", "circle"), {"hh_dims": oracle},
            dual_path, _write_json(workdir / "circle-bimodule.json", doc),
            field=f"F{P}", options=("-N", str(CIRCLE_DEGREE)),
        ))
    elif name == "actions-scan":
        doc = scan_space_doc(rng)
        violations = validate_space(parse_space(doc, validate=False))
        if violations:
            raise ValueError(f"generated space breaks the simplicial identities: {violations}")
        space = ("--space", _write_json(workdir / "scan-space.json", doc))
        wl.jobs.append(Job("validate", space, {"status": "pass"}))
        wl.jobs.append(Job(
            "actions", space, {"paranoid": {"cap": SCAN_CAP, "agrees": True}},
            options=("--paranoid", str(SCAN_CAP)),
        ))
    else:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    return wl

