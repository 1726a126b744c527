"""Exact fields (rationals, prime fields) and sparse matrices with rank.

Scalars are plain Python numbers: over the rationals an element is an int
whenever it is integral and a fractions.Fraction otherwise (the two mix
exactly and compare/hash equal); over F_p an element is an int in [0, p).
No floating point is used anywhere.

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

import operator
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import FormatError


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
    """Common interface of the exact ground fields."""

    zero = 0
    one = 1
    p = 0  # the characteristic: 0 over Q, the modulus over F_p

    def parse(self, value):
        """Read a scalar from JSON: an int or a "p/q" string."""
        raise NotImplementedError

    def to_json(self, value):
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers."""

    name = "Q"

    # int/Fraction arithmetic is exact, so the operators are the field ops.
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        f = Fraction(1, 1) / a
        return int(f) if f.denominator == 1 else f

    def parse(self, value):
        if isinstance(value, bool) or isinstance(value, float):
            raise FormatError(f"not an exact rational: {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            try:
                f = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational literal {value!r}") from exc
            return int(f) if f.denominator == 1 else f
        raise FormatError(f"bad rational entry {value!r}")

    def to_json(self, value):
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            return f"{value.numerator}/{value.denominator}"
        return value

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The prime field F_p; elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FormatError(f"prime-field modulus must be prime, got {p!r}")
        if p >= 2**31:
            raise FormatError(f"prime-field modulus too large: {p}")
        self.p = p
        self.name = f"F{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, value):
        if isinstance(value, bool) or isinstance(value, float):
            raise FormatError(f"not an exact field element: {value!r}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            try:
                f = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad scalar literal {value!r}") from exc
            if f.denominator % self.p == 0:
                raise FormatError(f"{value!r} has no meaning in F_{self.p}")
            return f.numerator % self.p * self.inv(f.denominator % self.p) % self.p
        raise FormatError(f"bad scalar entry {value!r}")

    def to_json(self, value):
        return value

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def field_from_json(obj) -> Field:
    """Parse a field spec: "Q" or {"Fp": p}."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(obj["Fp"])
    raise FormatError(f'bad field spec {obj!r} (expected "Q" or {{"Fp": p}})')


def field_from_text(text: str) -> Field:
    """Parse a field given on the command line: "Q" or "F<p>"."""
    if text == "Q":
        return QQ
    if text.startswith("F") and text[1:].isdigit():
        return PrimeField(int(text[1:]))
    raise FormatError(f"bad field {text!r} (expected Q or F<p>)")


class Matrix:
    """Sparse matrix over an exact field.

    entries maps (row, col) to a nonzero scalar; absent means zero. Matrices
    are immutable after construction, so they are safe to share across
    threads; rank is cached on first use.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_rank", "_row_index")

    def __init__(self, field: Field, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix dimension")
        self.field = field
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise LinAlgError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v != 0:
                    clean[(r, c)] = v
        self.entries = clean
        self._rank = None
        self._row_index = None

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_rows(cls, field, rows_data, rows=None, cols=None):
        """Build from a dense list of rows (entries already field scalars)."""
        if rows is None:
            rows = len(rows_data)
        if cols is None:
            cols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for r, row in enumerate(rows_data):
            if len(row) != cols:
                raise LinAlgError("ragged rows")
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = v
        return cls(field, rows, cols, entries)

    def get(self, r, c):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise LinAlgError(f"index ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries.get((r, c), self.field.zero)

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
        add = self.field.add
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            out[k] = v if cur is None else add(cur, v)
        return Matrix(self.field, self.rows, self.cols, out)

    def scale(self, scalar):
        if scalar == 0:
            return Matrix(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix(
            self.field, self.rows, self.cols,
            {k: mul(scalar, v) for k, v in self.entries.items()},
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
        add = self.field.add
        mul = self.field.mul
        acc = {}
        for (r, k), av in self.entries.items():
            hits = rows_of_b.get(k)
            if hits is None:
                continue
            for c, bv in hits:
                key = (r, c)
                cur = acc.get(key)
                term = mul(av, bv)
                acc[key] = term if cur is None else add(cur, term)
        return Matrix(self.field, self.rows, other.cols, acc)

    def rank(self) -> int:
        """Rank over the field, by one exact sparse elimination (_eliminate).

        The shorter side of the matrix becomes the vectors (rank(M) =
        rank(M^T)). Cached after the first call.
        """
        if self._rank is None:
            tall = self.rows > self.cols
            vectors = {}
            for (r, c), v in self.entries.items():
                vectors.setdefault(c if tall else r, {})[r if tall else c] = v
            self._rank = len(_eliminate(vectors, self.field.p))
        return self._rank


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
