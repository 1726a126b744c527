"""The cosimplicial vector space of a (space, algebra, multi-module) triple.

Degree n is Hom(A^{t_n}, M) where t_n counts the non-basepoint n-simplices
(degenerate ones included). A hom basis element is a pair (assignment of an
algebra basis index to every such simplex, module basis index); its flat
column index is value(assignment) * m + module_index, where value reads the
assignment as a base-d number with the first simplex most significant.

A coface at index i sends a target assignment to: the composite of the
class actions of all (n+1)-simplices whose i-th face is the basepoint,
applied to the source evaluated at the per-simplex products grouped by the
i-th face (empty product = unit). A codegeneracy places each source factor
at the i-th degeneracy of its simplex and fills every other slot with the
unit. Both are a product of per-simplex factors (the grouped products; the
identity at each degeneracy image) tensored with module blocks (the nonzero
composite star actions; the identity), expanded by one routine (_expand)
whose work is the nnz of the result; the star actions and the grouped
products are extended one position at a time, forming each shared prefix
once. The differential δ_n = Σ (-1)^i d^i is expanded face by face into one
dict of sparse columns, which goes straight into the exact elimination for
its rank and is then dropped: cohomology dimensions need only the ranks, so
no coface or differential matrix is formed or kept for them. Clearing: δ_n
leaves out its columns at δ_{n-1}'s pivots P, as the popped vectors lie in
im δ_{n-1} and are triangular on P, so C^n = im δ_{n-1} ⊕ span{e_j : j ∉ P},
and δ_n, which kills im δ_{n-1} (given δδ = 0), has the rank of the rest.

The cosimplicial identities are checked on simplices, not on matrices:
d_i d_j = d_{j-1} d_i holds exactly when the module acts equally on the two
slots through which each basepoint face d_i d_j s is reached
(actions.slot_pairs), and the relations with codegeneracies hold by
construction (check_cosimplicial_identities). No matrix is built for it.
"""

from __future__ import annotations

import itertools
from math import comb

from .actions import ActionPartition, level_pairs, slot_at
from .coeffalg import Algebra, MultiModule, _unit_vector
from .errors import BudgetError, ColumnBudgetError, InternalError, ValidationError
from .exactlinalg import Matrix, _eliminate
from .simplicial import SimplicialSpace

DEFAULT_BUDGET = 200_000

# most simplex-pair visits check_cosimplicial_identities may make: at the
# limit about 1 s on circle, sphere2, sphere3 or torus over k (0.5-0.7
# microseconds a visit), 3.5 s on sphere12 (-N 16), where most pairs reach
# the basepoint; 2-vCPU host, Python 3.11
IDENTITY_LIMIT = 2_000_000


class CochainSetup:
    """Space + algebra + multi-module + degree cap.

    Coface, codegeneracy and differential matrices are built on every call
    and not kept; cohomology_dims forms none of them. Construction fails
    fast with BudgetError, before any simplex is listed, if a hom space
    within the cap exceeds the column budget or the identity check would
    make more than IDENTITY_LIMIT simplex-pair visits.
    """

    def __init__(
        self,
        space: SimplicialSpace,
        algebra: Algebra,
        module: MultiModule,
        partition: ActionPartition,
        max_degree: int,
        *,
        budget: int = DEFAULT_BUDGET,
    ):
        if max_degree < 1:
            raise ValidationError("max degree must be at least 1")
        self.space = space
        self.algebra = algebra
        self.module = module
        self.partition = partition
        self.max_degree = max_degree
        self.budget = budget
        d = algebra.dim
        m = module.dim
        generators = [g for g in space.generators if g is not space.basepoint]
        self.t = []
        self.hom_dims = []
        for n in range(max_degree + 2):
            # a generator of dim k has C(n, k) n-simplices
            t = sum(comb(n, g.dim) for g in generators)
            dim = m * d**t if m else 0
            if dim > budget:
                raise ColumnBudgetError(n, dim, budget)
            self.t.append(t)
            self.hom_dims.append(dim)
        # with d = 1 or m = 0 the hom dims never grow, so bound the check too
        visits = identity_visits(self.t, max_degree)
        if visits > IDENTITY_LIMIT:
            raise BudgetError(
                f"the cosimplicial identity check would visit {visits} "
                f"simplices, exceeding the limit of {IDENTITY_LIMIT}"
            )
        self._basis = {
            n: tuple(s for s in space.simplices(n) if not space.is_basepoint(s))
            for n in range(max_degree + 2)
        }

    def basis(self, n: int):
        """The non-basepoint n-simplices indexing the tensor factors."""
        self._check_degree(n)
        return self._basis[n]

    def _check_degree(self, n: int):
        if not 0 <= n <= self.max_degree + 1:
            raise ValueError(
                f"degree {n} outside 0..{self.max_degree + 1} for this setup"
            )

    def _action(self, key: str) -> list:
        """The action matrices of class key."""
        mats = self.module.actions.get(key)
        if mats is None:
            raise InternalError(f"no action supplied for {key!r}")
        return mats

    # -- matrices ---------------------------------------------------------

    def differential(self, n: int) -> Matrix:
        """Alternating sum of the cofaces out of degree n, as a Matrix."""
        self._check_degree(n)
        return self._matrix(n + 1, n, self._delta_columns(n))

    def coface(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range 0..{n + 1}")
        columns = {}
        if self.module.dim:
            self._expand(columns, 1, *self._coface_terms(n, i))
        return self._matrix(n + 1, n, columns)

    def codegeneracy(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range 0..{n}")
        space = self.space
        d = self.algebra.dim
        m = self.module.dim
        columns = {}
        if m == 0:
            return self._matrix(n, n + 1, columns)
        src = self._basis[n]
        up = self._basis[n + 1]
        up_pos = {s: p for p, s in enumerate(up)}
        seen = set()
        factors = []
        for q, s in enumerate(src):
            p = up_pos.get(space.degeneracy(s, i))
            if p is None or p in seen:
                raise InternalError("degeneracy image not found or not injective")
            seen.add(p)
            row_place = d ** (len(src) - 1 - q)
            col_place = d ** (len(up) - 1 - p)
            factors.append([(t * row_place, t * col_place, 1) for t in range(d)])
        identity = [(u, u, 1) for u in range(m)]
        self._expand(columns, 1, [(0, identity)], factors)
        return self._matrix(n, n + 1, columns)

    def _matrix(self, row_degree, col_degree, columns) -> Matrix:
        return Matrix(
            self.algebra.field,
            self.hom_dims[row_degree],
            self.hom_dims[col_degree],
            {(r, c): v for c, column in columns.items() for r, v in column.items()},
        )

    def _delta_columns(self, n: int, skip=frozenset()) -> dict:
        """The nonzero columns {col: {row: value}} of δ_n = Σ (-1)^i d^i not in skip."""
        columns = {}
        if self.module.dim:
            for i in range(n + 2):
                self._expand(columns, (-1) ** i, *self._coface_terms(n, i), skip)
        return columns

    def _coface_terms(self, n: int, i: int):
        """(blocks, factors) of d^i out of degree n for _expand; needs m > 0."""
        space = self.space
        alg = self.algebra
        F = alg.field
        d = alg.dim
        m = self.module.dim
        src = self._basis[n]
        tgt = self._basis[n + 1]
        src_pos = {s: q for q, s in enumerate(src)}
        star_places = []
        star_mats = []
        groups = [[] for _ in src]
        for p, s in enumerate(tgt):
            place = d ** (len(tgt) - 1 - p)
            f = space.face(s, i)
            if space.is_basepoint(f):
                star_places.append(place)
                star_mats.append(self._action(self.partition.class_of(slot_at(s, i))))
            else:
                groups[src_pos[f]].append(place)

        # the composite action for each choice of basis elements on the star
        # positions, kept where it is nonzero (None: no star position)
        acts = _by_position(
            None,
            zip(star_places, star_mats),
            lambda prev, act: act if prev is None else prev @ act,
            Matrix.nnz,
        )
        identity = [(u, u, F.one) for u in range(m)]
        blocks = [
            (row, identity if mat is None
             else [(r, c, v) for (r, c), v in sorted(mat.entries.items())])
            for row, mat in acts
        ]

        # per source simplex that some face hits: the nonzero coordinates of
        # the product of each choice of basis elements on its group; the
        # others keep the unit index 0
        units = [_unit_vector(F, d, t) for t in range(d)]
        factors = []
        for q, places in enumerate(groups):
            if not places:
                continue
            col_place = d ** (len(src) - 1 - q)
            products = _by_position(
                alg.unit, ((place, units) for place in places), alg.multiply, any
            )
            factors.append([
                (row, t * col_place, c)
                for row, coords in products
                for t, c in enumerate(coords)
                if c != 0
            ])
        return blocks, factors

    def _expand(self, columns, sign, blocks, factors, skip=frozenset()):
        """Add sign times the Kronecker product of factors and blocks into columns.

        A factor is a list of nonzero terms (row offset, column offset,
        coefficient) with offsets in assignment values; a block is (row offset,
        module entries (r, c, v)). Each choice of terms, built one factor at a
        time, sums its offsets to (row, col) and multiplies its coefficients to
        coeff, then adds sign * coeff * v to columns[col * m + c][(row + block
        offset) * m + r] unless col * m + c is in skip, deleting entries that
        cancel. The work is the product's nnz.
        """
        p = self.algebra.field.p
        m = self.module.dim
        # the block entries by module column c, as (row offset * m + r, v)
        by_col = {}
        for block_row, items in blocks:
            for r, c, v in items:
                by_col.setdefault(c, []).append((block_row * m + r, v))
        *head, last = factors or [[(0, 0, 1)]]
        prefixes = [(0, 0, sign)]
        for factor in head:
            prefixes = [
                (row + r, col + c, coeff * v % p if p else coeff * v)
                for row, col, coeff in prefixes
                for r, c, v in factor
            ]
        for (row, col, coeff), (r, c, v) in itertools.product(prefixes, last):
            row = (row + r) * m
            col = (col + c) * m
            coeff *= v
            for c, items in by_col.items():
                if col + c in skip:
                    continue
                column = columns.get(col + c)
                if column is None:
                    column = columns[col + c] = {}
                for r, v in items:
                    r += row
                    v = coeff * v + column.get(r, 0)
                    if p:
                        v %= p
                    if v:
                        column[r] = v
                    else:
                        del column[r]

    # -- checks and cohomology --------------------------------------------

    def check_cosimplicial_identities(self) -> list[dict]:
        """Every instance of d_i d_j = d_{j-1} d_i within the degree cap.

        Returns the failing instances (n, i, j), i < j, as {"relation": "a",
        "n", "i", "j"} sorted by (n, j, i); empty means the cosimplicial
        structure is consistent. No coface or codegeneracy matrix is built.

        Both composites carry the factor on a simplex s of degree n + 2 to
        the same face d_i d_j s = d_{j-1} d_i s. Away from the basepoint
        that face joins the argument either way; at the basepoint the first
        composite applies the action of the slot reached via j and the
        second that of the slot reached via i (actions.slot_pairs). So an
        instance holds exactly when the module acts equally on every such
        pair of slots. This is exact for a validated module (unital,
        multiplicative, with commuting actions) over a commutative algebra:
        multiplicativity splits every grouped product into one action per
        simplex, and the unit on every other simplex isolates one action.
        A space that breaks d_i d_j = d_{j-1} d_i raises InternalError.

        Degrees 2..N + 1 are scanned level by level from a face table
        (actions.level_pairs) with no entry for basepoint simplices, so
        each face is computed once and the point space computes none.

        The other relations hold by construction. s_i s_j x = s_j s_{i-1} x
        is an identity of degeneracy words alone. d_i s_j x is x when i is
        j or j + 1, and otherwise passes through s_j to the face-table entry
        and the slot (slot_at) of d_i x or d_{i-1} x, so it reads no input
        the two sides could disagree on; the test suite checks both on
        simplices.
        """
        class_of = self.partition.class_of
        same = {}
        failing = set()
        for n, i, j, via_j, via_i in level_pairs(self.space, self.max_degree + 1):
            key = (class_of(via_j), class_of(via_i))
            if key not in same:
                same[key] = self._action(key[0]) == self._action(key[1])
            if not same[key]:
                failing.add((n - 2, j, i))
        return [
            {"relation": "a", "n": n, "i": i, "j": j} for n, j, i in sorted(failing)
        ]

    def cohomology_dims(self) -> list[int]:
        """[HH^0 .. HH^N]; each δ_n's columns, cleared of δ_{n-1}'s pivots (exact
        as δδ = 0, which report checks first), go into the elimination, then away."""
        ranks = []
        pivots = frozenset()
        for n in range(self.max_degree + 1):
            pivots = _eliminate(self._delta_columns(n, pivots), self.algebra.field.p)
            ranks.append(len(pivots))
        return _dims_from_ranks(ranks, self.hom_dims)

    def report(self, *, with_cohomology: bool = True) -> dict:
        failures = self.check_cosimplicial_identities()
        out = {
            "space": self.space.name,
            "t": list(self.t),
            "hom_dims": list(self.hom_dims),
            "identities": "pass" if not failures else failures,
        }
        if with_cohomology and not failures:
            out["hh_dims"] = self.cohomology_dims()
        return out


def identity_visits(t, max_degree: int) -> int:
    """Simplex-pair visits of check_cosimplicial_identities, from t.

    Each of the t[n + 2] simplices of degree n + 2 is visited once per pair
    i < j of its C(n + 3, 2) pairs of face indices.
    """
    return sum(comb(n + 3, 2) * t[n + 2] for n in range(max_degree))


def _by_position(start, positions, step, nonzero):
    """(sum of t * place, product) for each choice of options t per position.

    Built one position at a time in lexicographic order, so shared prefixes
    are formed once; a zero prefix is dropped with every choice extending it.
    """
    out = [(0, start)]
    for place, options in positions:
        out = [
            (row + t * place, product)
            for row, prev in out
            for t, option in enumerate(options)
            if nonzero(product := step(prev, option))
        ]
    return out


def classical_hochschild_dims(
    algebra: Algebra,
    module: MultiModule,
    left_key: str,
    right_key: str,
    max_degree: int,
) -> list[int]:
    """Classical two-sided bar-complex cohomology dimensions (test oracle).

    Degree n is Hom(A^n, M); the differential acts by the left action on the
    first factor, successive neighbor products with alternating signs, and
    the right action on the last factor. Coded independently of the
    cosimplicial assembly above so the two can check each other.
    """
    F = algebra.field
    d = algebra.dim
    m = module.dim
    left = module.actions[left_key]
    right = module.actions[right_key]
    add = F.add
    mul = F.mul
    neg = F.neg

    def put(acc, key, val):
        cur = acc.get(key)
        acc[key] = val if cur is None else add(cur, val)

    def diff(n):
        rows = m * d ** (n + 1)
        cols = m * d**n
        acc = {}
        for b in itertools.product(range(d), repeat=n + 1):
            row_value = 0
            for digit in b:
                row_value = row_value * d + digit
            row_base = row_value * m
            # drop the first factor through the left action
            col_value = 0
            for digit in b[1:]:
                col_value = col_value * d + digit
            for (r, c), v in left[b[0]].entries.items():
                put(acc, (row_base + r, col_value * m + c), v)
            # contract neighbors k-1, k
            for k in range(1, n + 1):
                sign = k % 2 == 1
                coords = algebra.mul[b[k - 1]][b[k]]
                for t, cval in enumerate(coords):
                    if cval == 0:
                        continue
                    col_value = 0
                    for digit in b[: k - 1] + (t,) + b[k + 1:]:
                        col_value = col_value * d + digit
                    val = neg(cval) if sign else cval
                    col_base = col_value * m
                    for u in range(m):
                        put(acc, (row_base + u, col_base + u), val)
            # drop the last factor through the right action
            col_value = 0
            for digit in b[:-1]:
                col_value = col_value * d + digit
            last_sign = (n + 1) % 2 == 1
            for (r, c), v in right[b[n]].entries.items():
                put(acc, (row_base + r, col_value * m + c), neg(v) if last_sign else v)
        return Matrix(F, rows, cols, acc)

    ranks = [diff(n).rank() for n in range(max_degree + 1)]
    return _dims_from_ranks(ranks, [m * d**n for n in range(max_degree + 1)])


def _dims_from_ranks(ranks, dims) -> list[int]:
    """[H^0 .. H^N] of a complex with rank δ_n = ranks[n] and dim C^n = dims[n]."""
    hh = [dims[n] - rank - (ranks[n - 1] if n else 0) for n, rank in enumerate(ranks)]
    for n, h in enumerate(hh):
        if h < 0:
            raise InternalError(f"negative cohomology dimension in degree {n}")
    return hh
