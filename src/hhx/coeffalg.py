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
from .errors import FormatError, ValidationError, read_json
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
        return tuple(
            self.field.one if t == 0 else self.field.zero for t in range(self.dim)
        )

    def multiply(self, u, v):
        """Product of two coordinate vectors."""
        F = self.field
        out = [F.zero] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = F.mul(a, b)
                for t, c in enumerate(self.mul[i][j]):
                    if c != 0:
                        out[t] = F.add(out[t], F.mul(ab, c))
        return tuple(out)

    def multiplication_matrix(self, coords) -> Matrix:
        """The matrix of multiplication by the element with these coords:
        column j is its product with basis element j."""
        entries = {}
        F = self.field
        for j in range(self.dim):
            for r, v in enumerate(self.multiply(coords, _unit_vector(F, self.dim, j))):
                if v != 0:
                    entries[(r, j)] = v
        return Matrix(F, self.dim, self.dim, entries)

    def __repr__(self):
        return f"Algebra({self.field.name}, basis={list(self.basis)})"


def validate_algebra(alg: Algebra) -> None:
    d = alg.dim
    F = alg.field
    if d < 1:
        raise ValidationError("algebra dimension must be at least 1")
    unit_row_ok = all(
        alg.mul[0][j] == tuple(F.one if t == j else F.zero for t in range(d))
        for j in range(d)
    )
    unit_col_ok = all(
        alg.mul[j][0] == tuple(F.one if t == j else F.zero for t in range(d))
        for j in range(d)
    )
    if not (unit_row_ok and unit_col_ok):
        raise ValidationError(
            f"basis element 0 ({alg.basis[0]!r}) must act as the unit"
        )
    for i in range(d):
        for j in range(i + 1, d):
            if alg.mul[i][j] != alg.mul[j][i]:
                raise ValidationError(
                    f"multiplication not commutative: "
                    f"{alg.basis[i]}*{alg.basis[j]} != {alg.basis[j]}*{alg.basis[i]}"
                )
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lhs = alg.multiply(alg.mul[i][j], _unit_vector(F, d, l))
                rhs = alg.multiply(_unit_vector(F, d, i), alg.mul[j][l])
                if lhs != rhs:
                    raise ValidationError(
                        f"multiplication not associative on the triple "
                        f"({alg.basis[i]}, {alg.basis[j]}, {alg.basis[l]})"
                    )


def _unit_vector(F: Field, d: int, t: int) -> tuple:
    return tuple(F.one if s == t else F.zero for s in range(d))


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
            parts.append(f"missing action classes {missing}")
        if extra:
            parts.append(f"unexpected action classes {extra}")
        raise ValidationError("; ".join(parts))
    d = algebra.dim
    m = module.dim
    F = algebra.field
    ident = Matrix.identity(F, m)
    for key in expected:
        mats = module.actions[key]
        if len(mats) != d:
            raise ValidationError(
                f"class {key!r} must supply {d} matrices, got {len(mats)}"
            )
        for t, mat in enumerate(mats):
            if mat.rows != m or mat.cols != m:
                raise ValidationError(
                    f"class {key!r}, basis element {algebra.basis[t]}: "
                    f"matrix is {mat.rows}x{mat.cols}, expected {m}x{m}"
                )
        if mats and mats[0] != ident:
            raise ValidationError(f"class {key!r}: action of the unit is not the identity")
        for i in range(d):
            for j in range(d):
                lhs = mats[i] @ mats[j]
                rhs = module.act(key, algebra.mul[i][j])
                if lhs != rhs:
                    raise ValidationError(
                        f"class {key!r}: action not multiplicative on "
                        f"({algebra.basis[i]}, {algebra.basis[j]})"
                    )
    for a_idx, key_a in enumerate(expected):
        for key_b in expected[a_idx + 1:]:
            mats_a = module.actions[key_a]
            mats_b = module.actions[key_b]
            for i in range(d):
                for j in range(d):
                    if mats_a[i] @ mats_b[j] != mats_b[j] @ mats_a[i]:
                        raise ValidationError(
                            f"actions of classes {key_a!r} and {key_b!r} do not "
                            f"commute on ({algebra.basis[i]}, {algebra.basis[j]})"
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
            raise FormatError(f"actions[{key!r}] must be a list of matrices")
        parsed = []
        for t, rows in enumerate(mats):
            if not isinstance(rows, list) or len(rows) != m or any(
                not isinstance(row, list) or len(row) != m for row in rows
            ):
                raise FormatError(
                    f"actions[{key!r}][{t}] must be an {m}x{m} matrix"
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
    F = algebra.field
    actions = {}
    for key, twist in twists.items():
        mats = []
        for t in range(d):
            coords = (
                _unit_vector(F, d, t)
                if twist is None
                else tuple(twist[s][t] for s in range(d))
            )
            mats.append(algebra.multiplication_matrix(coords))
        actions[key] = tuple(mats)
    return MultiModule(d, actions)


def endomorphism_module(
    algebra: Algebra, action_mats, partition: ActionPartition
) -> MultiModule:
    """Endomorphisms of a module as coefficients.

    action_mats gives a single valid algebra action on a space of dimension
    m (one m x m matrix per basis element). On the endomorphism space of
    dimension m^2, the partition's first class acts by post-composition and
    its second by pre-composition; with a single class only post-composition
    is used. The two commute by associativity.
    """
    mats = tuple(action_mats)
    m = mats[0].rows if mats else 0
    base = MultiModule(m, {"value": mats})
    validate_module(base, algebra, ["value"])
    if partition.class_count not in (1, 2):
        raise ValidationError(
            "endomorphism coefficients need 1 or 2 action classes, "
            f"got {partition.class_count}"
        )
    F = algebra.field
    d = algebra.dim
    post = []
    pre = []
    for t in range(d):
        rho = mats[t]
        post_entries = {}
        pre_entries = {}
        for (a, b), v in rho.entries.items():
            for q in range(m):
                # (rho f)_{aq} = sum_b rho_{ab} f_{bq}
                post_entries[(a * m + q, b * m + q)] = v
                # (f rho)_{qb} = sum_a f_{qa} rho_{ab}
                pre_entries[(q * m + b, q * m + a)] = v
        post.append(Matrix(F, m * m, m * m, post_entries))
        pre.append(Matrix(F, m * m, m * m, pre_entries))
    ids = partition.class_ids
    if partition.class_count == 1:
        actions = {ids[0]: tuple(post)}
    else:
        actions = {ids[0]: tuple(post), ids[1]: tuple(pre)}
    module = MultiModule(m * m, actions)
    validate_module(module, algebra, list(actions))
    return module
