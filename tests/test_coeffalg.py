import random
from fractions import Fraction

import pytest

from helpers import (
    DUAL_DOC,
    coefficient_module,
    cubic_truncation,
    dual_numbers,
    ground_field,
    identity_matrix,
    negating_twist,
    space_and_partition,
)
from hhx import (
    MultiModule,
    endomorphism_module,
    multiplication_module,
    parse_algebra,
    parse_module,
    validate_module,
)
from hhx.errors import FormatError, ValidationError
from hhx.exactlinalg import Matrix, QQ


def test_dual_numbers_parse():
    alg = dual_numbers()
    assert alg.dim == 2
    assert alg.unit == (1, 0)
    assert alg.multiply((0, 1), (0, 1)) == (0, 0)  # x * x = 0
    assert alg.multiply((1, 2), (1, 3)) == (1, 5)  # (1+2x)(1+3x)


def test_ground_field_parse():
    alg = ground_field()
    assert alg.dim == 1
    assert alg.multiply((3,), (Fraction(1, 2),)) == (Fraction(3, 2),)


def test_cubic_truncation_parse():
    alg = cubic_truncation()
    assert alg.multiply((0, 1, 0), (0, 1, 0)) == (0, 0, 1)  # x * x = x^2
    assert alg.multiply((0, 1, 0), (0, 0, 1)) == (0, 0, 0)  # x * x^2 = 0


def test_noncommutative_table_rejected():
    # unit behaves, but u*v = u while v*u = v
    doc = {
        "field": "Q",
        "basis": ["1", "u", "v"],
        "mul": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 1], [0, 0, 0]],
        ],
    }
    with pytest.raises(ValidationError, match="commutative"):
        parse_algebra(doc)


def test_nonassociative_table_rejected():
    # commutative but (uu)u = 0 while u(uu) = u with this table
    doc = {
        "field": "Q",
        "basis": ["1", "u", "v"],
        "mul": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
        ],
    }
    with pytest.raises(ValidationError, match="associative"):
        parse_algebra(doc)


def test_bad_unit_rejected():
    doc = {
        "field": "Q",
        "basis": ["1", "x"],
        "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
    with pytest.raises(ValidationError, match="unit"):
        parse_algebra(doc)


def test_field_override():
    from hhx.exactlinalg import PrimeField

    alg = parse_algebra(DUAL_DOC, field=PrimeField(5))
    assert alg.field == PrimeField(5)
    assert alg.multiply((0, 4), (0, 4)) == (0, 0)


def regular_doc(alg, keys):
    module = multiplication_module(alg, {key: None for key in keys})
    return {
        "dim": module.dim,
        "actions": {
            key: [
                [[alg.field.to_json(mat.get(r, c)) for c in range(module.dim)]
                 for r in range(module.dim)]
                for mat in module.actions[key]
            ]
            for key in keys
        },
    }


def test_parse_module_regular_circle():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    doc = regular_doc(alg, partition.class_ids)
    module = parse_module(doc, alg, partition)
    assert module.dim == 2
    ident = identity_matrix(QQ, 2)
    assert module.act("e.0", (1, 0)) == ident
    nilp = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    assert module.act("e.0", (0, 1)) == nilp


def test_twisted_module_valid_and_negated():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    module = coefficient_module(alg, partition, "twisted")
    nilp = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    assert module.act("e.0", (0, 1)) == nilp
    assert module.act("e.1", (0, 1)) == nilp.scale(-1)


def test_module_key_mismatch_errors():
    space, partition = space_and_partition("torus")
    alg = dual_numbers()
    doc = regular_doc(alg, ["a.0", "phantom"])
    with pytest.raises(ValidationError, match="unexpected action classes"):
        parse_module(doc, alg, partition)
    doc2 = regular_doc(alg, [])
    with pytest.raises(ValidationError, match="missing action classes"):
        parse_module(doc2, alg, partition)


@pytest.mark.parametrize(
    "unit",
    [[[1, 0], [0, 0]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 2]]],
    ids=["entry-missing", "entry-off-diagonal", "off-diagonal-only", "entry-not-1"],
)
def test_module_must_be_unital(unit):
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    doc = regular_doc(alg, partition.class_ids)
    doc["actions"]["e.0"][0] = unit
    with pytest.raises(ValidationError, match="action of the unit is not the identity"):
        parse_module(doc, alg, partition)


def test_unit_action_is_compared_after_reduction_mod_p():
    # over F_5 the entry 6 is 1, so this unit action is the identity
    space, partition = space_and_partition("circle")
    alg = dual_numbers({"Fp": 5})
    doc = regular_doc(alg, partition.class_ids)
    doc["actions"]["e.0"][0] = [[6, 0], [0, -4]]
    module = parse_module(doc, alg, partition)
    assert module.actions["e.0"][0] == identity_matrix(alg.field, 2)


def test_module_must_be_multiplicative():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    doc = regular_doc(alg, partition.class_ids)
    doc["actions"]["e.0"][1] = [[0, 0], [1, 1]]  # not square-zero
    with pytest.raises(ValidationError, match="multiplicative"):
        parse_module(doc, alg, partition)


def test_module_actions_must_commute():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    xl = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    xr = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    doc = {"dim": 3, "actions": {"e.0": [ident, xl], "e.1": [ident, xr]}}
    with pytest.raises(ValidationError, match="commute"):
        parse_module(doc, alg, partition)


def test_module_format_errors():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    with pytest.raises(FormatError):
        parse_module({"actions": {}}, alg, partition)
    with pytest.raises(FormatError):
        parse_module({"dim": 2, "actions": {"e.0": [[[1]]], "e.1": []}}, alg, partition)


def test_act_unit_is_identity_and_linear():
    space, partition = space_and_partition("pinched-torus")
    alg = cubic_truncation()
    module = coefficient_module(alg, partition, "regular")
    ident = identity_matrix(QQ, 3)
    for cid in partition.class_ids:
        assert module.act(cid, alg.unit) == ident
    a = (2, Fraction(1, 2), 0)
    combo = module.act("a.0", a)
    expected = module.act("a.0", (2, 0, 0)) + module.act(
        "a.0", (0, Fraction(1, 2), 0)
    )
    assert combo == expected
    with pytest.raises(ValidationError, match="unknown action class"):
        module.act("nope", alg.unit)


def test_act_multiplicativity_random():
    rng = random.Random(5)
    space, partition = space_and_partition("circle")
    alg = cubic_truncation()
    module = coefficient_module(alg, partition, "twisted")
    for _ in range(20):
        a = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        b = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        for cid in partition.class_ids:
            assert module.act(cid, a) @ module.act(cid, b) == module.act(
                cid, alg.multiply(a, b)
            )


def test_cross_class_commutation_random():
    rng = random.Random(9)
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    module = coefficient_module(alg, partition, "end")
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(2))
        b = tuple(rng.randint(-3, 3) for _ in range(2))
        left = module.act("e.0", a)
        right = module.act("e.1", b)
        assert left @ right == right @ left


def test_endomorphism_bimodule_dual_numbers():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    module = coefficient_module(alg, partition, "end")
    assert module.dim == 4
    ident = identity_matrix(QQ, 4)
    assert module.actions["e.0"][0] == ident
    assert module.actions["e.1"][0] == ident
    # validated by construction; validate once more explicitly
    validate_module(module, alg, partition.class_ids)


def test_endomorphism_trivial_case():
    space, partition = space_and_partition("circle")
    alg = ground_field()
    rho = (identity_matrix(QQ, 1),)
    module = endomorphism_module(alg, rho, partition)
    assert module.dim == 1
    for cid in partition.class_ids:
        assert module.actions[cid][0] == identity_matrix(QQ, 1)


def test_endomorphism_single_class_partition():
    space, partition = space_and_partition("sphere2")
    alg = dual_numbers()
    rho = multiplication_module(alg, {"v": None}).actions["v"]
    module = endomorphism_module(alg, rho, partition)
    assert set(module.actions) == {"sigma.0"}
    validate_module(module, alg, partition.class_ids)


def test_endomorphism_rejects_invalid_input_action():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    bad = (identity_matrix(QQ, 2), Matrix.from_rows(QQ, [[0, 0], [1, 1]]))
    with pytest.raises(ValidationError):
        endomorphism_module(alg, bad, partition)


def test_zero_module_is_valid():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    module = MultiModule(0, {cid: (Matrix(QQ, 0, 0), Matrix(QQ, 0, 0)) for cid in partition.class_ids})
    validate_module(module, alg, partition.class_ids)


def test_negating_twist_is_automorphism():
    for alg in (dual_numbers(), cubic_truncation()):
        twist = negating_twist(alg)
        phi = [tuple(twist[s][t] for s in range(alg.dim)) for t in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = alg.multiply(phi[i], phi[j])
                rhs_coords = alg.mul[i][j]
                rhs = tuple(
                    sum(rhs_coords[t] * phi[t][s] for t in range(alg.dim))
                    for s in range(alg.dim)
                )
                assert lhs == rhs
