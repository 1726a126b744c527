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
unit. Both kinds of matrix are built as a product of per-simplex factors
(the grouped products; the identity at each degeneracy image) tensored
with module blocks (the nonzero composite star actions; the identity), so
the work is proportional to the nnz of the result; the star actions and the
grouped products are extended one position at a time, forming each shared
prefix once. The alternating sum of cofaces is the differential, the only
matrix kept; cohomology dimensions come from exact rank/kernel computations.

The cosimplicial identities are checked on simplices, not on matrices: a
composite of cofaces and codegeneracies carries the factor on each simplex
either to a simplex or, through a basepoint face, to the action of a slot
class. Two composites agree exactly when every simplex ends at the same
simplex both ways round, or at classes with equal actions
(check_cosimplicial_identities). No matrix is built for the check.
"""

from __future__ import annotations

import itertools
from math import comb

from .actions import ActionPartition, slot_at
from .coeffalg import Algebra, MultiModule, _unit_vector
from .errors import BudgetError, ColumnBudgetError, InternalError, ValidationError
from .exactlinalg import Matrix
from .simplicial import SimplicialSpace

DEFAULT_BUDGET = 200_000

# most simplices check_cosimplicial_identities may visit: about 5 s at the
# 2-3 microseconds a visit takes on circle over k
IDENTITY_LIMIT = 2_000_000


class CochainSetup:
    """Space + algebra + multi-module + degree cap.

    Coface and codegeneracy matrices for degrees up to the cap are built on
    every call; differentials are memoised. Construction fails fast with
    BudgetError, before any simplex is listed, if a hom space within the cap
    exceeds the column budget or the identity check would visit more than
    IDENTITY_LIMIT simplices.
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
        self._differential = {}
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

    # -- matrices ---------------------------------------------------------

    def coface(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range 0..{n + 1}")
        return self._build_coface(n, i)

    def codegeneracy(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range 0..{n}")
        return self._build_codegeneracy(n, i)

    def differential(self, n: int) -> Matrix:
        """Alternating sum of the cofaces out of degree n (memoised)."""
        self._check_degree(n)
        if n not in self._differential:
            F = self.algebra.field
            acc = {}
            add = F.add
            neg = F.neg
            for i in range(n + 2):
                for pos, v in self.coface(n, i).entries.items():
                    term = v if i % 2 == 0 else neg(v)
                    cur = acc.get(pos)
                    acc[pos] = term if cur is None else add(cur, term)
            self._differential[n] = Matrix(
                F, self.hom_dims[n + 1], self.hom_dims[n], acc
            )
        return self._differential[n]

    def _build_coface(self, n: int, i: int) -> Matrix:
        space = self.space
        alg = self.algebra
        F = alg.field
        d = alg.dim
        m = self.module.dim
        if m == 0:
            return Matrix(F, self.hom_dims[n + 1], self.hom_dims[n])
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
                key = self.partition.class_of(slot_at(s, i))
                mats = self.module.actions.get(key)
                if mats is None:
                    raise InternalError(f"no action supplied for {key!r}")
                star_places.append(place)
                star_mats.append(mats)
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
        return self._kronecker(n + 1, n, blocks, factors)

    def _build_codegeneracy(self, n: int, i: int) -> Matrix:
        space = self.space
        F = self.algebra.field
        d = self.algebra.dim
        m = self.module.dim
        if m == 0:
            return Matrix(F, self.hom_dims[n], self.hom_dims[n + 1])
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
            factors.append([(t * row_place, t * col_place, F.one) for t in range(d)])
        identity = [(u, u, F.one) for u in range(m)]
        return self._kronecker(n, n + 1, [(0, identity)], factors)

    def _kronecker(self, row_degree, col_degree, blocks, factors) -> Matrix:
        """The sparse Kronecker product of the factors and the module blocks.

        A factor is a list of nonzero terms (row offset, column offset,
        coefficient) with offsets in assignment values; a block is (row
        offset, module entries (r, c, v)). Each choice of terms sums its
        offsets to (row, col) and multiplies its coefficients, then puts
        every block entry at ((row + block offset) * m + r, col * m + c).
        No two choices hit the same entry, so the work is the output nnz.
        """
        F = self.algebra.field
        mul = F.mul
        m = self.module.dim
        entries = {}
        for chosen in itertools.product(*factors):
            row = col = 0
            coeff = F.one
            for r, c, v in chosen:
                row += r
                col += c
                if v != 1:
                    coeff = mul(coeff, v)
            col_base = col * m
            for block_row, items in blocks:
                row_base = (row + block_row) * m
                if coeff == 1:
                    for r, c, v in items:
                        entries[(row_base + r, col_base + c)] = v
                else:
                    for r, c, v in items:
                        entries[(row_base + r, col_base + c)] = mul(coeff, v)
        return Matrix(
            F, self.hom_dims[row_degree], self.hom_dims[col_degree], entries
        )

    # -- checks and cohomology --------------------------------------------

    def check_cosimplicial_identities(self) -> list[dict]:
        """Every identity instance within the degree cap, checked on simplices.

        Returns failing instances as {"relation", "n", "i", "j"}, relation a
        first, then b, then c; empty means the cosimplicial structure is
        consistent. No coface or codegeneracy matrix is built.

        Each composite of cofaces and codegeneracies carries the factor on a
        simplex to an end: a simplex, whose factor it joins in the argument,
        or the class of the slot behind a basepoint face, whose action it
        then undergoes. An instance holds exactly when every simplex reaches
        the same simplex both ways round, or classes with equal action lists:

        - a) at (n, i, j): d_i d_j s against d_{j-1} d_i s, s of degree n + 2;
        - b) at (n, i, j): s_i s_j x against s_j s_{i-1} x, x of degree n - 1;
        - c) at (n, i, j): d_i s_j x, x of degree n, against x when i is j or
          j + 1, s_{j-1} d_i x when i < j, and s_j d_{i-1} x when i > j + 1.

        This is exact for a validated module (unital, multiplicative, with
        commuting actions) over a commutative algebra, and needs those
        axioms: multiplicativity splits every grouped product into one
        action per simplex, and putting the unit on every other simplex
        isolates act_c(t) on a single one. Two different simplices, or a
        simplex and a class, as the ends mean that the space breaks its
        simplicial identities (InternalError).
        """
        space = self.space
        face = space.face
        degeneracy = space.degeneracy
        is_basepoint = space.is_basepoint
        class_of = self.partition.class_of
        actions = self.module.actions
        same_action = {}
        downs = {}
        ups = {}

        def down(end, k):
            """Face k of a simplex end, or the class behind it; classes stay."""
            if type(end) is str:
                return end
            out = downs.get((end, k))
            if out is None:
                out = face(end, k)
                if is_basepoint(out):
                    out = class_of(slot_at(end, k))
                    if out not in actions:
                        raise InternalError(f"no action supplied for {out!r}")
                downs[end, k] = out
            return out

        def up(end, k):
            """Degeneracy k of a simplex end; classes stay."""
            if type(end) is str:
                return end
            out = ups.get((end, k))
            if out is None:
                out = ups[end, k] = degeneracy(end, k)
            return out

        def agree(relation, s, lhs, rhs) -> bool:
            if lhs == rhs:
                return True
            if type(lhs) is str and type(rhs) is str:
                same = same_action.get((lhs, rhs))
                if same is None:
                    same = same_action[lhs, rhs] = actions[lhs] == actions[rhs]
                return same
            raise InternalError(
                f"relation {relation}) carries {s!r} to {lhs!r} and {rhs!r}: "
                "the space breaks the simplicial identities"
            )

        failures = []
        N = self.max_degree
        for n in range(N):
            level = self._basis[n + 2]
            for j in range(1, n + 3):
                for i in range(j):
                    # no short cut, so a broken space always raises
                    if not all([
                        agree("a", s, down(down(s, j), i), down(down(s, i), j - 1))
                        for s in level
                    ]):
                        failures.append({"relation": "a", "n": n, "i": i, "j": j})
        for n in range(1, N + 1):
            level = self._basis[n - 1]
            for i in range(1, n + 1):
                for j in range(i):
                    # no factor reaches a class, so only a broken space fails
                    for x in level:
                        agree("b", x, up(up(x, j), i), up(up(x, i - 1), j))
        for n in range(N + 1):
            level = self._basis[n]
            for i in range(n + 2):
                for j in range(n + 1):
                    if i == j or i == j + 1:
                        rhs = level
                    elif i < j:
                        rhs = [up(down(x, i), j - 1) for x in level]
                    else:
                        rhs = [up(down(x, i - 1), j) for x in level]
                    if not all([
                        agree("c", x, down(up(x, j), i), r)
                        for x, r in zip(level, rhs)
                    ]):
                        failures.append({"relation": "c", "n": n, "i": i, "j": j})
        return failures

    def cohomology_dims(self) -> list[int]:
        """[HH^0 .. HH^N] by kernel/rank of the alternating-sum differentials."""
        return _dims_from_differentials(self.differential, self.max_degree)

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
    """Simplices check_cosimplicial_identities visits, from the level sizes t.

    Relation a visits t[n + 2] for each of its C(n + 3, 2) pairs (i, j),
    b visits t[n - 1] C(n + 1, 2) times and c visits t[n] (n + 1)(n + 2) times.
    """
    N = max_degree
    return (
        sum(comb(n + 3, 2) * t[n + 2] for n in range(N))
        + sum(comb(n + 1, 2) * t[n - 1] for n in range(1, N + 1))
        + sum((n + 1) * (n + 2) * t[n] for n in range(N + 1))
    )


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

    return _dims_from_differentials(diff, max_degree)


def _dims_from_differentials(differential, max_degree: int) -> list[int]:
    """[H^0 .. H^N] of the complex whose n-th differential is differential(n)."""
    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        delta = differential(n)
        hh = delta.kernel_dim() - prev_rank
        if hh < 0:
            raise InternalError(f"negative cohomology dimension in degree {n}")
        dims.append(hh)
        prev_rank = delta.rank()
    return dims
