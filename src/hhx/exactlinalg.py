"""Exact fields (the rationals, prime fields) and sparse matrices with rank.

A field is its characteristic p: 0 for the rationals, a prime for F_p.
Scalars are plain Python numbers: over the rationals an element is an int
whenever it is integral and a fractions.Fraction otherwise (the two mix
exactly and compare/hash equal; the module is loaded only when a "p/q"
literal is read); over F_p an element is an int in [0, p).
Arithmetic on them is Python's own, and the one reduction rule is "% p if
p": a Matrix reduces its entries mod p and drops the zeros as it is
constructed, so its sums and products add and multiply plain numbers. No
floating point is used anywhere.

Rank over either field is the number of pivots that one sparse elimination
driver, _eliminate, returns for a dict of sparse vectors: the shorter side of
a Matrix, or the columns of a differential as the cochain engine assembles
them. Vectors that hold a coordinate no other vector holds pivot first, on
that private coordinate, with no work; the rest go through an index of the
vectors holding each coordinate. Only the combination step depends on the
field: mod p over F_p, fraction-free integer combination with gcd reduction
over Q.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from math import gcd, lcm

from .errors import FormatError, _abridged


class LinAlgError(ValueError):
    """Shape mismatch or malformed scalar/field input."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """An exact ground field, given by its characteristic p: Q if p is 0,
    else F_p (construct that through PrimeField, which checks p)."""

    def __init__(self, p: int):
        self.p = p
        self.name = f"F{p}" if p else "Q"

    def parse(self, value):
        """Read a scalar from JSON: an int or a "p/q" string, reduced mod p.

        A string is ASCII digits, with an optional leading minus and an
        optional "/" and denominator: no exponent, decimal point, sign "+",
        space, underscore or non-ASCII digit, since Fraction would take an
        exponent such as "1e10000000" at a cost that grows without bound.
        An int or a string of digits is read by int(); only a string with a
        "/" loads the fractions module, so integer input never does.
        """
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise FormatError(f"not an exact scalar: {_abridged(value)}")
        if isinstance(value, str) and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            raise FormatError(f"bad scalar literal {_abridged(value)}")
        try:
            if isinstance(value, int) or "/" not in value:
                f = int(value)
            else:
                from fractions import Fraction

                f = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad scalar literal {_abridged(value)}") from exc
        p = self.p
        if not p:
            return int(f) if f.denominator == 1 else f
        if f.denominator % p == 0:
            raise FormatError(f"{_abridged(value)} has no meaning in F_{p}")
        return f.numerator * pow(f.denominator, -1, p) % p

    def to_json(self, value):
        """A scalar as JSON: an int, or a "p/q" string if it is not integral."""
        return int(value) if value.denominator == 1 else str(value)

    def __repr__(self):
        return f"{type(self).__name__}({self.p})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(self.p)


class PrimeField(Field):
    """The prime field F_p; elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        # size first: trial division of a prime near 2**61 takes minutes
        if isinstance(p, int) and p >= 2**31:
            raise FormatError(f"prime-field modulus too large: {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise FormatError(f"prime-field modulus must be prime, got {p!r}")
        super().__init__(p)


QQ = Field(0)


def field_from_json(obj) -> Field:
    """Parse a field spec: "Q" or {"Fp": p}."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(obj["Fp"])
    raise FormatError(f'bad field spec {obj!r} (expected "Q" or {{"Fp": p}})')


def field_from_text(text: str) -> Field:
    """Parse a field given on the command line: "Q" or "F<p>".

    One spelling per field, as for the builtin spheres: p in ASCII digits
    with no leading zero.
    """
    if text == "Q":
        return QQ
    if re.fullmatch(r"F[1-9][0-9]*", text):
        return PrimeField(int(text[1:]))
    raise FormatError(f"bad field {text!r} (expected Q or F<p>)")


class Matrix:
    """Sparse matrix over an exact field.

    entries maps (row, col) to a nonzero scalar; absent means zero. The
    constructor is the one place an entry is reduced: it takes each given
    value mod p over F_p and drops the zeros, so the operations below add
    and multiply plain numbers and leave the reduction to it. Matrices are
    immutable after construction, so they are safe to share across threads;
    rank is computed afresh on every call.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_row_index")

    def __init__(self, field: Field, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimension")
        self.field = field
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            p = field.p
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LinAlgError(f"entry ({r},{c}) outside {rows}x{cols}")
                if p:
                    v %= p
                if v:
                    clean[(r, c)] = v
        self.entries = clean
        self._row_index = None

    @classmethod
    def from_rows(cls, field, rows_data, rows=None, cols=None):
        """Build from a dense list of rows of scalars."""
        if rows is None:
            rows = len(rows_data)
        if cols is None:
            cols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for r, row in enumerate(rows_data):
            if len(row) != cols:
                raise LinAlgError("ragged rows")
            for c, v in enumerate(row):
                entries[(r, c)] = v
        return cls(field, rows, cols, entries)

    def get(self, r, c):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise LinAlgError(f"index ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries.get((r, c), 0)

    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}, nnz={len(self.entries)})"

    def _same_shape(self, other):
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other):
        self._same_shape(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return Matrix(self.field, self.rows, self.cols, out)

    def scale(self, scalar):
        return Matrix(
            self.field, self.rows, self.cols,
            {k: scalar * v for k, v in self.entries.items()},
        )

    def _by_row(self):
        # cached row -> [(col, val)] grouping, used by __matmul__
        if self._row_index is None:
            idx = {}
            for (r, c), v in self.entries.items():
                idx.setdefault(r, []).append((c, v))
            self._row_index = idx
        return self._row_index

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise LinAlgError("field mismatch")
        if self.cols != other.rows:
            raise LinAlgError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rows_of_b = other._by_row()
        acc = {}
        for (r, k), av in self.entries.items():
            for c, bv in rows_of_b.get(k, ()):
                acc[r, c] = acc.get((r, c), 0) + av * bv
        return Matrix(self.field, self.rows, other.cols, acc)

    def rank(self) -> int:
        """Rank over the field, by one exact sparse elimination (_eliminate).

        The shorter side of the matrix becomes the vectors (rank(M) =
        rank(M^T)).
        """
        tall = self.rows > self.cols
        vectors = {}
        for (r, c), v in self.entries.items():
            vectors.setdefault(c if tall else r, {})[r if tall else c] = v
        return len(_eliminate(vectors, self.field.p))


def _clear_denominators(row: dict) -> dict:
    """row scaled to ints by the lcm of its denominators; row itself if all ints."""
    mult = 1
    for v in row.values():
        if type(v) is not int:
            mult = lcm(mult, v.denominator)
    if mult == 1 and all(type(v) is int for v in row.values()):
        return row
    return {c: int(v * mult) for c, v in row.items()}


def _eliminate(rows: dict, p: int, echelon: list | None = None) -> set:
    """Pivots of the sparse vectors {key: {coord: value}} over F_p (Q if p = 0).

    Empty vectors are allowed; rows is consumed. First each coordinate is
    counted once over all vectors, and every vector holding a coordinate no
    other vector holds is peeled off: it pivots as it stands on its first
    such private coordinate, with no row operation and no index entry. The
    rest go through the index (over Q each is replaced by an integer
    multiple as it is read, so none is held twice): each popped vector
    pivots on its coordinate held by the fewest remaining vectors, and only
    those are eliminated: over F_p r becomes r - (a/piv) prow mod p; over Q
    r becomes (piv/g) r - (a/g) prow, g = gcd(piv, a), then is divided by
    the gcd of its entries, exactly, so no Fraction arises. A private
    coordinate stays private in every subset, so the peeled vectors are
    independent and the rest, and every combination of it, is zero at their
    pivots. Hence the popped vectors, peeled ones first, span the input and
    are zero at all earlier pivots; given a list as echelon, each is
    appended to it as (pivot coordinate, pivot value, the other entries),
    in the order popped.
    """
    counts = Counter(chain.from_iterable(rows.values()))
    pivots = set()
    for r, row in list(rows.items()):
        if 1 in map(counts.__getitem__, row):
            del rows[r]
            col = next(c for c in row if counts[c] == 1)
            pivots.add(col)
            piv = row.pop(col)
            if echelon is not None:
                echelon.append((col, piv, row))
    del counts
    where = {}
    for r in list(rows):
        row = rows[r]
        if not row:
            del rows[r]
            continue
        if not p:
            rows[r] = row = _clear_denominators(row)
        for c in row:
            where.setdefault(c, set()).add(r)
    while rows:
        pr, prow = rows.popitem()
        for c in prow:
            where[c].discard(pr)
        col = min(prow, key=lambda c: len(where[c]))
        piv = prow.pop(col)
        pivots.add(col)
        if echelon is not None:
            echelon.append((col, piv, prow))
        if p:
            pinv = pow(piv, -1, p)
        for r in where.pop(col):
            row = rows[r]
            a = row.pop(col)
            if p:
                t = a * pinv % p
            else:
                g = gcd(piv, a)
                s, t = piv // g, a // g
                if s != 1:
                    for c in row:
                        row[c] *= s
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -t * v % p if p else -t * v
                    where[c].add(r)
                    continue
                new = (old - t * v) % p if p else old - t * v
                if new:
                    row[c] = new
                else:
                    del row[c]
                    where[c].discard(r)
            if not row:
                del rows[r]
            elif not p:
                g = gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
    return pivots
