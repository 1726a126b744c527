"""Commutative structure-constant algebras and class-keyed multi-modules.

An algebra is given by a basis and a multiplication table of coordinate
vectors; basis element 0 must be the unit. A multi-module carries, for each
action-class id of a space, one action of the algebra (a matrix per basis
element); all axioms the cochain construction relies on (unitality,
multiplicativity, commutativity of the table, pairwise commutation of
distinct class actions) are checked eagerly at parse time with witnesses.
"""

from __future__ import annotations

from .actions import ActionPartition
from .errors import FormatError, ValidationError, _abridged, _clipped, _listed, read_json
from .exactlinalg import Field, Matrix, field_from_json


class Algebra:
    """Finite-dimensional commutative unital algebra by structure constants."""

    def __init__(self, field: Field, basis, mul):
        self.field = field
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.mul = tuple(tuple(tuple(v) for v in row) for row in mul)

    @property
    def unit(self) -> tuple:
        """Coordinates of 1 (always the first basis vector)."""
        return _unit_vector(self.dim, 0)

    def multiply(self, u, v):
        """Product of two coordinate vectors (reduced mod p over F_p)."""
        out = [0] * self.dim
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        ab = a * b
                        for t, c in enumerate(self.mul[i][j]):
                            if c:
                                out[t] += ab * c
        p = self.field.p
        return tuple(x % p for x in out) if p else tuple(out)

    def multiplication_matrix(self, coords) -> Matrix:
        """The matrix of multiplication by the element with these coords:
        column j is its product with basis element j."""
        entries = {}
        for j in range(self.dim):
            for r, v in enumerate(self.multiply(coords, _unit_vector(self.dim, j))):
                entries[(r, j)] = v
        return Matrix(self.field, self.dim, self.dim, entries)

    def __repr__(self):
        return f"Algebra({self.field.name}, basis={list(self.basis)})"


def validate_algebra(alg: Algebra) -> None:
    d = alg.dim
    if d < 1:
        raise ValidationError("algebra dimension must be at least 1")
    if not all(alg.mul[0][j] == alg.mul[j][0] == _unit_vector(d, j) for j in range(d)):
        raise ValidationError(
            f"basis element 0 ({_abridged(alg.basis[0])}) must act as the unit"
        )
    for i in range(d):
        for j in range(i + 1, d):
            if alg.mul[i][j] != alg.mul[j][i]:
                a, b = _clipped(alg.basis[i]), _clipped(alg.basis[j])
                raise ValidationError(
                    f"multiplication not commutative: "
                    f"{a}*{b} != {b}*{a}"
                )
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lhs = alg.multiply(alg.mul[i][j], _unit_vector(d, l))
                rhs = alg.multiply(_unit_vector(d, i), alg.mul[j][l])
                if lhs != rhs:
                    raise ValidationError(
                        f"multiplication not associative on the triple "
                        f"({', '.join(_clipped(alg.basis[t]) for t in (i, j, l))})"
                    )


def _unit_vector(d: int, t: int) -> tuple:
    return tuple(int(s == t) for s in range(d))


def parse_algebra(doc, *, field: Field | None = None) -> Algebra:
    """Build and validate an algebra from its JSON document form."""
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    if field is None:
        if "field" not in doc:
            raise FormatError('algebra document needs a "field"')
        field = field_from_json(doc["field"])
    basis = doc.get("basis")
    if (
        not isinstance(basis, list)
        or not basis
        or not all(isinstance(b, str) for b in basis)
    ):
        raise FormatError('algebra document needs a non-empty "basis" of names')
    if len(set(basis)) != len(basis):
        raise FormatError("algebra basis names must be distinct")
    d = len(basis)
    table = doc.get("mul")
    if not isinstance(table, list) or len(table) != d:
        raise FormatError(f'algebra "mul" must be a {d}x{d} table')
    mul = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != d:
            raise FormatError(f'algebra "mul" row {i} must have {d} entries')
        out_row = []
        for j, vec in enumerate(row):
            if not isinstance(vec, list) or len(vec) != d:
                raise FormatError(
                    f"mul[{i}][{j}] must be a coordinate vector of length {d}"
                )
            out_row.append(tuple(field.parse(v) for v in vec))
        mul.append(tuple(out_row))
    alg = Algebra(field, basis, mul)
    validate_algebra(alg)
    return alg


def load_algebra(path: str, *, field: Field | None = None) -> Algebra:
    return parse_algebra(read_json(path), field=field)


class MultiModule:
    """A space with one commuting unital algebra action per action class.

    actions maps a class id to d matrices (m x m); matrix t is the action of
    basis element t.
    """

    def __init__(self, dim: int, actions: dict):
        self.dim = dim
        self.actions = {key: tuple(mats) for key, mats in actions.items()}

    def act(self, class_id: str, coords) -> Matrix:
        """action of the element with the given coordinates, as a matrix."""
        try:
            mats = self.actions[class_id]
        except KeyError:
            raise ValidationError(f"unknown action class {class_id!r}") from None
        out = None
        for t, a in enumerate(coords):
            if a == 0:
                continue
            term = mats[t].scale(a)
            out = term if out is None else out + term
        if out is None:
            field = mats[0].field if mats else None
            return Matrix(field, self.dim, self.dim)
        return out

    def __repr__(self):
        return f"MultiModule(dim={self.dim}, classes={sorted(self.actions)})"


def validate_module(module: MultiModule, algebra: Algebra, expected_keys) -> None:
    """Check key coverage, unitality, multiplicativity and cross commutation."""
    expected = sorted(expected_keys)
    got = sorted(module.actions)
    if got != expected:
        missing = [k for k in expected if k not in module.actions]
        extra = [k for k in got if k not in expected]
        parts = []
        if missing:
            parts.append(f"missing action classes [{_listed(missing, _abridged)}]")
        if extra:
            parts.append(f"unexpected action classes [{_listed(extra, _abridged)}]")
        raise ValidationError("; ".join(parts))
    d = algebra.dim
    m = module.dim
    for key in expected:
        mats = module.actions[key]
        name = _abridged(key)
        if len(mats) != d:
            raise ValidationError(
                f"class {name} must supply {d} matrices, got {len(mats)}"
            )
        for t, mat in enumerate(mats):
            if mat.rows != m or mat.cols != m:
                raise ValidationError(
                    f"class {name}, basis element {_clipped(algebra.basis[t])}: "
                    f"matrix is {mat.rows}x{mat.cols}, expected {m}x{m}"
                )
        # the identity is m entries 1 on the diagonal; no m x m one is built
        unit = mats[0].entries if mats else {}
        if mats and (
            len(unit) != m or any(r != c or v != 1 for (r, c), v in unit.items())
        ):
            raise ValidationError(f"class {name}: action of the unit is not the identity")
        for i in range(d):
            for j in range(d):
                lhs = mats[i] @ mats[j]
                rhs = module.act(key, algebra.mul[i][j])
                if lhs != rhs:
                    raise ValidationError(
                        f"class {name}: action not multiplicative on "
                        f"({_clipped(algebra.basis[i])}, {_clipped(algebra.basis[j])})"
                    )
    for a_idx, key_a in enumerate(expected):
        for key_b in expected[a_idx + 1:]:
            mats_a = module.actions[key_a]
            mats_b = module.actions[key_b]
            for i in range(d):
                for j in range(d):
                    if mats_a[i] @ mats_b[j] != mats_b[j] @ mats_a[i]:
                        raise ValidationError(
                            f"actions of classes {_abridged(key_a)} and {_abridged(key_b)} "
                            f"do not commute on ({_clipped(algebra.basis[i])}, "
                            f"{_clipped(algebra.basis[j])})"
                        )


def parse_module(doc, algebra: Algebra, partition: ActionPartition) -> MultiModule:
    """Build and validate a multi-module from its JSON document form.

    Actions are keyed by the partition's class ids.
    """
    if not isinstance(doc, dict):
        raise FormatError("module document must be a JSON object")
    m = doc.get("dim")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise FormatError('module document needs a natural "dim"')
    raw_actions = doc.get("actions")
    if not isinstance(raw_actions, dict):
        raise FormatError('module document needs an "actions" object')
    F = algebra.field
    actions = {}
    for key, mats in raw_actions.items():
        if not isinstance(mats, list):
            raise FormatError(f"actions[{_abridged(key)}] must be a list of matrices")
        parsed = []
        for t, rows in enumerate(mats):
            if not isinstance(rows, list) or len(rows) != m or any(
                not isinstance(row, list) or len(row) != m for row in rows
            ):
                raise FormatError(
                    f"actions[{_abridged(key)}][{t}] must be an {m}x{m} matrix"
                )
            parsed.append(
                Matrix.from_rows(
                    F, [[F.parse(v) for v in row] for row in rows], rows=m, cols=m
                )
            )
        actions[key] = tuple(parsed)
    module = MultiModule(m, actions)
    validate_module(module, algebra, list(partition.class_ids))
    return module


def load_module(path: str, algebra, partition) -> MultiModule:
    return parse_module(read_json(path), algebra, partition)


def multiplication_module(algebra: Algebra, twists: dict) -> MultiModule:
    """M = A with each key acting by multiplication, optionally twisted.

    twists maps key -> None (plain multiplication) or a d x d matrix of
    coordinate columns describing an algebra endomorphism phi; the key then
    acts through multiplication by phi(a). The result is validated by the
    caller like any other module.
    """
    d = algebra.dim
    actions = {}
    for key, twist in twists.items():
        mats = []
        for t in range(d):
            coords = (
                _unit_vector(d, t)
                if twist is None
                else tuple(twist[s][t] for s in range(d))
            )
            mats.append(algebra.multiplication_matrix(coords))
        actions[key] = tuple(mats)
    return MultiModule(d, actions)
