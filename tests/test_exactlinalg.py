import random
from fractions import Fraction

import pytest

from hhx.errors import FormatError
from hhx.exactlinalg import (
    Matrix,
    PrimeField,
    QQ,
    field_from_json,
    field_from_text,
)


def naive_rank(matrix):
    """Dense textbook Gaussian elimination, used as an independent oracle."""
    field = matrix.field
    rows = [list(r) for r in matrix.to_rows()]
    rk = 0
    col = 0
    while rk < len(rows) and col < matrix.cols:
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = field.inv(rows[rk][col])
        rows[rk] = [field.mul(inv, v) for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [
                    field.sub(v, field.mul(f, p)) for v, p in zip(rows[r], rows[rk])
                ]
        rk += 1
        col += 1
    return rk


def test_field_parsing():
    assert field_from_json("Q") == QQ
    assert field_from_json({"Fp": 7}) == PrimeField(7)
    assert field_from_text("F5") == PrimeField(5)
    with pytest.raises(FormatError):
        field_from_json({"Fp": 6})
    with pytest.raises(FormatError):
        field_from_json("R")
    with pytest.raises(FormatError):
        field_from_text("GF4")


def test_rational_scalars_stay_exact():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("6/3") == 2 and isinstance(QQ.parse("6/3"), int)
    assert QQ.to_json(Fraction(1, 2)) == "1/2"
    assert QQ.to_json(Fraction(4, 2)) == 2
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(2) == Fraction(1, 2)
    with pytest.raises(FormatError):
        QQ.parse(0.5)


def test_prime_field_scalars():
    F5 = PrimeField(5)
    assert F5.parse(-1) == 4
    assert F5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert F5.inv(3) == 2
    with pytest.raises(FormatError):
        F5.parse("1/5")


def test_product_identity_and_zero():
    ident = Matrix.identity(QQ, 3)
    assert ident @ ident == ident
    a = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    z = Matrix(QQ, 3, 4)
    assert a @ z == Matrix(QQ, 2, 4)


def test_product_hand_example():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows(QQ, [[2, 1], [4, 3]])


def test_product_shape_mismatch():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, 3, 2)
    with pytest.raises(ValueError):
        a @ b


def test_stored_entries_are_nonzero():
    a = Matrix(QQ, 2, 2, {(0, 0): 1, (0, 1): 0})
    assert (0, 1) not in a.entries
    b = Matrix.from_rows(QQ, [[1, -1], [0, 0]])
    c = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
    assert not (b + c).is_zero()
    assert ((b + c).get(0, 1)) == 0
    assert (0, 1) not in (b + c).entries


def test_rank_examples():
    assert Matrix(QQ, 4, 5).rank() == 0
    assert Matrix.identity(QQ, 5).rank() == 5
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Matrix(QQ, 4, 5).kernel_dim() == 5
    assert Matrix.identity(QQ, 5).kernel_dim() == 0
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).kernel_dim() == 1


def test_rank_with_fractions():
    m = Matrix.from_rows(
        QQ,
        [
            [Fraction(1, 2), Fraction(1, 3), 1],
            [Fraction(3, 2), 1, 3],
            [1, Fraction(2, 3), 2],
        ],
    )
    # rows are multiples of the first
    assert m.rank() == 1
    assert m.kernel_dim() == 2


def _random_matrix(field, rng, rows, cols, density=0.6):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                if isinstance(field, PrimeField):
                    entries[(r, c)] = rng.randrange(field.p)
                else:
                    entries[(r, c)] = Fraction(
                        rng.randint(-4, 4), rng.randint(1, 4)
                    )
    return Matrix(field, rows, cols, entries)


def test_rank_plus_kernel_is_cols():
    rng = random.Random(7)
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            m = _random_matrix(field, rng, rng.randint(0, 7), rng.randint(0, 7))
            assert m.rank() + m.kernel_dim() == m.cols


def test_rank_invariant_under_permutation():
    rng = random.Random(11)
    for field in (QQ, PrimeField(7)):
        for _ in range(25):
            m = _random_matrix(field, rng, 6, 5)
            rperm = list(range(6))
            cperm = list(range(5))
            rng.shuffle(rperm)
            rng.shuffle(cperm)
            shuffled = Matrix(
                field,
                6,
                5,
                {(rperm[r], cperm[c]): v for (r, c), v in m.entries.items()},
            )
            assert shuffled.rank() == m.rank()


def test_rank_matches_naive_oracle():
    rng = random.Random(3)
    for field in (PrimeField(2), PrimeField(5), QQ):
        for _ in range(60):
            m = _random_matrix(
                field, rng, rng.randint(1, 8), rng.randint(1, 8), density=0.5
            )
            assert m.rank() == naive_rank(m)


def test_rank_matches_transpose():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(QQ, rng, rng.randint(1, 8), rng.randint(1, 8))
        assert m.rank() == m.transpose().rank()


def _low_rank(field, rng, rows, cols, k, density):
    """A rows x k by k x cols product: rank at most k."""
    left = _random_matrix(field, rng, rows, k, density)
    return left @ _random_matrix(field, rng, k, cols, density)


def _permuted(m, rng):
    rperm = list(range(m.rows))
    cperm = list(range(m.cols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    return Matrix(
        m.field, m.rows, m.cols,
        {(rperm[r], cperm[c]): v for (r, c), v in m.entries.items()},
    )


@pytest.mark.parametrize(
    "field, count",
    [(QQ, 4), (PrimeField(2), 8), (PrimeField(3), 8), (PrimeField(5), 8)],
    ids=["Q", "F2", "F3", "F5"],
)
def test_rank_matches_naive_oracle_at_20_to_40(field, count):
    # over Q the entries are fractions p/q with |p| <= 4, q <= 4
    rng = random.Random(29)
    seen = set()
    for i in range(count):
        rows, cols = rng.randint(20, 40), rng.randint(20, 40)
        if i % 2:
            m = _random_matrix(field, rng, rows, cols, density=rng.choice((0.1, 0.3)))
        else:
            k = rng.randint(3, min(rows, cols) - 1)
            m = _low_rank(field, rng, rows, cols, k, density=0.6)
        rk = m.rank()
        assert rk == naive_rank(m)
        seen.add(rk == min(rows, cols))
    assert seen == {True, False}  # both full and deficient ranks were checked


def test_rank_of_block_diagonal_matrices():
    rng = random.Random(17)
    for field in (QQ, PrimeField(2), PrimeField(5)):
        entries = {}
        r0 = c0 = expected = 0
        for _ in range(15):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            block = _random_matrix(field, rng, rows, cols, density=0.6)
            expected += naive_rank(block)
            for (r, c), v in block.entries.items():
                entries[(r0 + r, c0 + c)] = v
            r0 += rows
            c0 += cols
        m = _permuted(Matrix(field, r0, c0, entries), rng)
        assert m.rank() == expected == naive_rank(m)


def test_rank_of_tall_and_wide_shapes():
    rng = random.Random(23)
    for field in (QQ, PrimeField(3)):
        for rows, cols in ((40, 6), (33, 1), (25, 24), (40, 12)):
            tall = _low_rank(field, rng, rows, cols, min(cols, 5), density=0.5)
            wide = tall.transpose()
            assert tall.rank() == wide.rank() == naive_rank(tall) == naive_rank(wide)


def test_add_scale_neg():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert a - a == Matrix(QQ, 2, 2)
    assert a.scale(2) == a + a
    assert (-a) + a == Matrix(QQ, 2, 2)
    F5 = PrimeField(5)
    b = Matrix.from_rows(F5, [[2, 3], [4, 1]])
    assert b.scale(3) == Matrix.from_rows(F5, [[1, 4], [2, 3]])


def test_matmul_over_prime_field():
    F5 = PrimeField(5)
    a = Matrix.from_rows(F5, [[2, 3], [4, 1]])
    b = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    # 2*1+3*3 = 11 = 1, 2*2+3*4 = 16 = 1, 4*1+1*3 = 7 = 2, 4*2+1*4 = 12 = 2
    assert a @ b == Matrix.from_rows(F5, [[1, 1], [2, 2]])


def test_field_mismatch_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(PrimeField(5), 2)
    with pytest.raises(ValueError):
        a @ b
