"""Exact fields (rationals, prime fields) and sparse matrices with rank/kernel.

Scalars are plain Python numbers: over the rationals an element is an int
whenever it is integral and a fractions.Fraction otherwise (the two mix
exactly and compare/hash equal); over F_p an element is an int in [0, p).
No floating point is used anywhere.

Rank over either field comes from one sparse elimination driver,
_eliminate, which keeps a column -> rows index so that each pivot touches
only the rows holding its column. Only the row combination depends on the
field: mod p over F_p, fraction-free integer combination with gcd
reduction over Q.
"""

from __future__ import annotations

import operator
from fractions import Fraction
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

    def parse(self, value):
        """Read a scalar from JSON: an int or a "p/q" string."""
        raise NotImplementedError

    def to_json(self, value):
        raise NotImplementedError

    def spec(self):
        """The field's JSON form ("Q" or {"Fp": p})."""
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

    @staticmethod
    def from_int(n: int):
        return n

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

    def spec(self):
        return "Q"

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

    def from_int(self, n: int):
        return n % self.p

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

    def spec(self):
        return {"Fp": self.p}

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

    def to_rows(self):
        zero = self.field.zero
        out = [[zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

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

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return Matrix(
            self.field, self.rows, self.cols,
            {k: neg(v) for k, v in self.entries.items()},
        )

    def scale(self, scalar):
        if scalar == 0:
            return Matrix(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix(
            self.field, self.rows, self.cols,
            {k: mul(scalar, v) for k, v in self.entries.items()},
        )

    def transpose(self):
        return Matrix(
            self.field, self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()},
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

        Over F_p rows combine mod p; over Q they are scaled to integers and
        combine fraction-free with gcd reductions. Cached after the first call.
        """
        if self._rank is None:
            self._rank = _eliminate(self)
        return self._rank

    def kernel_dim(self) -> int:
        return self.cols - self.rank()


def _clear_denominators(row: dict) -> dict:
    mult = 1
    for v in row.values():
        if isinstance(v, Fraction):
            mult = lcm(mult, v.denominator)
    if mult == 1:
        return {c: int(v) if isinstance(v, Fraction) else v for c, v in row.items()}
    return {c: int(v * mult) for c, v in row.items()}


def _eliminate(m: Matrix) -> int:
    """Rank by sparse elimination with a column -> rows index.

    The shorter side of m becomes the rows (rank(M) = rank(M^T)). Rows are
    popped in turn; each nonzero popped row is a pivot row, pivoting on its
    column held by the fewest remaining rows, and only those rows are
    eliminated. Over F_p a row r becomes r - (a/piv) prow mod p. Over Q the
    rows are scaled to integers first and r becomes (piv/g) r - (a/g) prow
    with g = gcd(piv, a), then r is divided by the gcd of its entries; both
    divisions are exact, so no Fraction arises.
    """
    p = m.field.p if isinstance(m.field, PrimeField) else 0
    rows = {}
    if m.rows > m.cols:
        for (c, r), v in m.entries.items():
            rows.setdefault(r, {})[c] = v
    else:
        for (r, c), v in m.entries.items():
            rows.setdefault(r, {})[c] = v
    where = {}
    for r, row in rows.items():
        if not p:
            rows[r] = row = _clear_denominators(row)
        for c in row:
            where.setdefault(c, set()).add(r)
    rk = 0
    while rows:
        pr, prow = rows.popitem()
        for c in prow:
            where[c].discard(pr)
        col = min(prow, key=lambda c: len(where[c]))
        piv = prow.pop(col)
        rk += 1
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
    return rk
