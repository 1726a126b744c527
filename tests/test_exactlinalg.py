import random
import time
from fractions import Fraction

import pytest

from helpers import identity_matrix, reduced
from hhx.errors import FormatError
from hhx.exactlinalg import (
    Field,
    Matrix,
    PrimeField,
    QQ,
    _eliminate,
    field_from_json,
    field_from_text,
)


def naive_rank(matrix):
    """Dense textbook Gaussian elimination, used as an independent oracle.

    It reads only the matrix's field characteristic p and entries, and
    computes with plain numbers: Fractions over Q, ints mod p over F_p.
    """
    p = matrix.field.p
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v if p else Fraction(v)
    rk = 0
    col = 0
    while rk < len(rows) and col < matrix.cols:
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = pow(rows[rk][col], -1, p) if p else 1 / rows[rk][col]
        rows[rk] = [reduced(inv * v, p) for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [reduced(v - f * w, p) for v, w in zip(rows[r], rows[rk])]
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


def test_field_text_is_q_or_f_with_ascii_digits_and_no_leading_zero():
    assert field_from_text("F2") == PrimeField(2)
    assert field_from_text("F101") == PrimeField(101)
    # str.isdigit and int() accept the first two; the rest are other
    # spellings of a number, and only one spelling per field is read
    for text in ("F\u0663", "F\u00b2", "F05", "F00", "F0", "F+5", "F 5", "F5 ",
                 "F5\n", "F", "f5", "q", ""):
        with pytest.raises(FormatError, match="bad field"):
            field_from_text(text)


def test_characteristic_zero_is_never_reached_through_prime_field():
    for bad in (lambda: PrimeField(0), lambda: PrimeField(1),
                lambda: field_from_text("F0"), lambda: field_from_json({"Fp": 0})):
        with pytest.raises(FormatError):
            bad()


def test_prime_field_modulus_stops_below_two_to_the_31():
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # the largest prime allowed
    # 2**31 + 11 and 2**61 - 1 are prime; trial division of the latter, were
    # it reached, would run for minutes. --field F<p> and an algebra
    # document's {"Fp": p} reach PrimeField through these two parsers.
    for p in (2**31 + 11, 2**61 - 1):
        start = time.perf_counter()
        for parse in (lambda: field_from_text(f"F{p}"),
                      lambda: field_from_json({"Fp": p})):
            with pytest.raises(FormatError, match=f"modulus too large: {p}"):
                parse()
        assert time.perf_counter() - start < 1.0
    # a modulus past 40 digits is echoed abridged, and one past the int
    # conversion limit of 4,300 digits is never converted
    for parse in (lambda: field_from_text("F1" + "0" * 5000),
                  lambda: field_from_json({"Fp": 10**3000})):
        with pytest.raises(FormatError, match=r"too large: 1000.*characters\)$") as info:
            parse()
        assert len(str(info.value)) < 120
    # a field spec that is no field, or whose modulus is no int, likewise
    for doc, message in (("Q" * 5000, "bad field spec 'QQQQ"),
                         ({"Fp": "7" * 5000}, "must be prime, got '7777")):
        with pytest.raises(FormatError, match=message) as info:
            field_from_json(doc)
        assert len(str(info.value)) < 120


def test_fields_compare_and_hash_by_characteristic():
    assert QQ != PrimeField(2)
    assert Field(0) == QQ and hash(Field(0)) == hash(QQ)
    assert Field(5) == PrimeField(5) == field_from_text("F5")
    assert hash(Field(5)) == hash(PrimeField(5)) == hash(field_from_json({"Fp": 5}))
    assert PrimeField(5) != PrimeField(7)


def test_rational_scalars_stay_exact():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("6/3") == 2 and isinstance(QQ.parse("6/3"), int)
    assert QQ.to_json(Fraction(1, 2)) == "1/2"
    assert QQ.to_json(Fraction(4, 2)) == 2
    with pytest.raises(FormatError):
        QQ.parse(0.5)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "literal",
    ["1e10000000", "1e3", "1.5", "+1", " 1", "1 ", "1_000", "1/-2", "1\n",
     "\u0661/\u0662", "\u00b2", "", "-", "1/", "/2"],
)
def test_scalar_strings_are_ascii_integers_or_fractions(field, literal):
    # an exponent would cost Fraction time without bound, and "١/٢" (Arabic-
    # Indic digits) would read as 1/2
    start = time.perf_counter()
    with pytest.raises(FormatError, match="bad scalar literal"):
        field.parse(literal)
    assert time.perf_counter() - start < 0.1
    assert field.parse("-12/8") == (Fraction(-3, 2) if field is QQ else 1)


def test_prime_field_scalars():
    F5 = PrimeField(5)
    assert F5.parse(-1) == 4
    assert F5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(FormatError):
        F5.parse("1/5")


def test_product_identity_and_zero():
    ident = identity_matrix(QQ, 3)
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
    # construction reduces mod p, so an entry that is 0 mod p is dropped
    assert Matrix(PrimeField(5), 1, 2, {(0, 0): 7, (0, 1): 10}).entries == {(0, 0): 2}
    b = Matrix.from_rows(QQ, [[1, -1], [0, 0]])
    c = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
    assert (b + c).entries
    assert ((b + c).get(0, 1)) == 0
    assert (0, 1) not in (b + c).entries


def test_rank_examples():
    assert Matrix(QQ, 4, 5).rank() == 0
    assert identity_matrix(QQ, 5).rank() == 5
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1
    assert Matrix(QQ, 0, 3).rank() == Matrix(QQ, 3, 0).rank() == 0


def test_kernel_examples():
    # the kernel dimension is cols - rank, as the cochain engine reads it
    for m, kernel in (
        (Matrix(QQ, 4, 5), 5),
        (identity_matrix(QQ, 5), 0),
        (Matrix.from_rows(QQ, [[1, 2], [2, 4]]), 1),
    ):
        assert m.cols - m.rank() == kernel


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


def test_rank_at_most_the_shorter_side():
    rng = random.Random(7)
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            m = _random_matrix(field, rng, rng.randint(0, 7), rng.randint(0, 7))
            assert m.rank() == naive_rank(m) <= min(m.rows, m.cols)


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
        flipped = {(c, r): v for (r, c), v in m.entries.items()}
        assert m.rank() == Matrix(QQ, m.cols, m.rows, flipped).rank()


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
            flipped = {(c, r): v for (r, c), v in tall.entries.items()}
            wide = Matrix(field, cols, rows, flipped)
            assert tall.rank() == wide.rank() == naive_rank(tall) == naive_rank(wide)


def _summed_columns(field, rng, rows, cols):
    """Columns {c: {r: v}} summed from random terms as the cochain engine adds
    them: an entry that cancels is deleted, so some columns end up empty."""
    columns = {c: {} for c in range(cols)}
    for _ in range(rng.randint(0, rows * cols)):
        c, r = rng.randrange(cols), rng.randrange(rows)
        if field.p:
            v = rng.randrange(1, field.p)
        else:
            v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        terms = (v, reduced(-v, field.p)) if rng.random() < 0.4 else (v,)
        column = columns[c]
        for term in terms:
            new = reduced(column.get(r, 0) + term, field.p)
            if new:
                column[r] = new
            else:
                column.pop(r, None)
    return columns


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_elimination_core_from_columns_and_rows(field):
    rng = random.Random(31)
    empty_seen = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        columns = _summed_columns(field, rng, rows, cols)
        empty_seen += sum(not column for column in columns.values())
        entries = {(r, c): v for c, column in columns.items() for r, v in column.items()}
        m = Matrix(field, rows, cols, entries)
        by_row = {r: {} for r in range(rows)}
        for (r, c), v in entries.items():
            by_row[r][c] = v
        pivots = _eliminate(columns, field.p)
        assert columns == {}  # consumed
        rank = naive_rank(m)
        assert len(pivots) == len(_eliminate(by_row, field.p)) == m.rank() == rank
        # the input vectors restricted to their pivot coordinates keep the
        # rank: what clearing a cochain differential relies on
        on_pivots = {(r, c): v for (r, c), v in entries.items() if r in pivots}
        assert naive_rank(Matrix(field, rows, cols, on_pivots)) == rank
    assert empty_seen


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "F2", "F5"]
)
def test_elimination_peels_vectors_with_a_private_coordinate(field):
    """Tall sparse columns shaped like a top differential: many more rows
    than columns, 1-3 nonzeros per column, and some columns sums of others.
    Vectors holding a coordinate no other vector holds pivot on one; the
    pivots, echelon and rank are those of the whole elimination."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    if field.p:
        scalar = st.integers(1, field.p - 1)
    else:
        numerator = st.sampled_from((-3, -2, -1, 1, 2, 3))
        scalar = st.builds(Fraction, numerator, st.integers(1, 4))
    seen = {"peeled": 0, "indexed": 0}

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        base = data.draw(st.integers(1, 10))
        rows = data.draw(st.integers(4 * base, 12 * base))
        coords = st.sets(st.integers(0, rows - 1), min_size=1, max_size=3)
        columns = [{r: data.draw(scalar) for r in data.draw(coords)} for _ in range(base)]
        for _ in range(data.draw(st.integers(0, 4))):
            total = {}
            summands = st.sets(st.integers(0, len(columns) - 1), min_size=1, max_size=3)
            for k in data.draw(summands):
                t = data.draw(scalar)
                for r, v in columns[k].items():
                    new = reduced(total.get(r, 0) + t * v, field.p)
                    if new:
                        total[r] = new
                    else:
                        total.pop(r, None)
            columns.append(total)
        entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
        m = Matrix(field, rows, len(columns), entries)
        holders = {}
        for column in columns:
            for r in column:
                holders[r] = holders.get(r, 0) + 1
        private = [{r for r in column if holders[r] == 1} for column in columns]
        seen["peeled"] += sum(map(bool, private))
        seen["indexed"] += sum(bool(c) and not own for c, own in zip(columns, private))

        vectors = {c: dict(column) for c, column in enumerate(columns)}
        echelon = []
        pivots = _eliminate(vectors, field.p, echelon)
        assert vectors == {}  # consumed
        rank = naive_rank(m)
        assert len(pivots) == rank
        on_pivots = {(r, c): v for (r, c), v in entries.items() if r in pivots}
        assert naive_rank(Matrix(field, rows, len(columns), on_pivots)) == rank
        # triangular: each vector is zero at the pivots appended before it
        earlier = set()
        for col, piv, rest in echelon:
            assert piv != 0 and col not in rest
            assert not earlier & rest.keys()
            earlier.add(col)
        assert earlier == pivots
        for own in private:
            assert not own or own & pivots

    check()
    assert seen["peeled"] and seen["indexed"]


def test_add_scale_neg():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert a.scale(2) == a + a
    assert a + a.scale(-1) == Matrix(QQ, 2, 2)
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
    a = identity_matrix(QQ, 2)
    b = identity_matrix(PrimeField(5), 2)
    with pytest.raises(ValueError):
        a @ b
