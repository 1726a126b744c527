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
the work is proportional to the nnz of the result. The alternating sum of
cofaces is the differential; cohomology dimensions come from exact
rank/kernel computations.

The cosimplicial identities are checked on simplices, not on matrices: a
composite of cofaces and codegeneracies carries the factor on each simplex
either to a simplex or, through a basepoint face, to the action of a slot
class. Two composites agree exactly when every simplex ends at the same
simplex both ways round, or at classes with equal actions
(check_cosimplicial_identities). No matrix is built for the check.
"""

from __future__ import annotations

import itertools

from .actions import ActionPartition, slot_at
from .coeffalg import Algebra, MultiModule, _unit_vector
from .errors import BudgetError, InternalError, ValidationError
from .exactlinalg import Matrix
from .simplicial import SimplicialSpace

DEFAULT_BUDGET = 200_000


class CochainSetup:
    """Space + algebra + multi-module + degree cap, with cached matrices.

    All coface/codegeneracy/differential matrices for degrees up to the cap
    are derived (and memoized) from here. Construction fails fast with
    BudgetError if any hom space within the cap exceeds the column budget.
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
        self._basis = {}
        self._coface = {}
        self._codegeneracy = {}
        self._differential = {}
        d = algebra.dim
        m = module.dim
        self.t = []
        self.hom_dims = []
        for n in range(max_degree + 2):
            basis = tuple(
                s for s in space.simplices(n) if not space.is_basepoint(s)
            )
            self._basis[n] = basis
            self.t.append(len(basis))
            dim = m * d ** len(basis)
            if dim > budget:
                raise BudgetError(n, dim, budget)
            self.hom_dims.append(dim)

    def basis(self, n: int):
        """The non-basepoint n-simplices indexing the tensor factors."""
        self._check_degree(n)
        return self._basis[n]

    def hom_dimension(self, n: int) -> int:
        self._check_degree(n)
        return self.hom_dims[n]

    def _check_degree(self, n: int):
        if not 0 <= n <= self.max_degree + 1:
            raise ValueError(
                f"degree {n} outside 0..{self.max_degree + 1} for this setup"
            )

    def flat_index(self, n: int, assignment, module_index: int) -> int:
        """Column index of the hom basis element (assignment, module index)."""
        d = self.algebra.dim
        m = self.module.dim
        if len(assignment) != self.t[n]:
            raise ValueError(f"assignment must cover the {self.t[n]} tensor factors")
        if not 0 <= module_index < m:
            raise ValueError("module index out of range")
        value = 0
        for digit in assignment:
            if not 0 <= digit < d:
                raise ValueError("algebra basis index out of range")
            value = value * d + digit
        return value * m + module_index

    def basis_element(self, n: int, flat: int):
        """Inverse of flat_index: (assignment tuple, module index)."""
        d = self.algebra.dim
        m = self.module.dim
        if not 0 <= flat < self.hom_dimension(n):
            raise ValueError("flat index out of range")
        value, module_index = divmod(flat, m)
        digits = []
        for _ in range(self.t[n]):
            value, digit = divmod(value, d)
            digits.append(digit)
        return tuple(reversed(digits)), module_index

    # -- matrices ---------------------------------------------------------

    def coface(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range 0..{n + 1}")
        key = (n, i)
        if key not in self._coface:
            self._coface[key] = self._build_coface(n, i)
        return self._coface[key]

    def codegeneracy(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range 0..{n}")
        key = (n, i)
        if key not in self._codegeneracy:
            self._codegeneracy[key] = self._build_codegeneracy(n, i)
        return self._codegeneracy[key]

    def differential(self, n: int) -> Matrix:
        """Alternating sum of the cofaces out of degree n."""
        if n < 0:
            return Matrix(self.algebra.field, self.hom_dims[0], 0)
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
        # positions, kept where it is nonzero
        blocks = []
        for combo in itertools.product(range(d), repeat=len(star_mats)):
            mat = None
            for mats, t in zip(star_mats, combo):
                mat = mats[t] if mat is None else mat @ mats[t]
            if mat is None:
                items = [(u, u, F.one) for u in range(m)]
            else:
                items = [(r, c, v) for (r, c), v in sorted(mat.entries.items())]
            if items:
                blocks.append((_value(combo, star_places), items))

        # per source simplex that some face hits: the nonzero coordinates of
        # the product of each choice of basis elements on its group; the
        # others keep the unit index 0
        factors = []
        for q, places in enumerate(groups):
            if not places:
                continue
            col_place = d ** (len(src) - 1 - q)
            terms = []
            for combo in itertools.product(range(d), repeat=len(places)):
                coords = alg.unit
                for t in combo:
                    coords = alg.multiply(coords, _unit_vector(F, d, t))
                row = _value(combo, places)
                terms.extend(
                    (row, t * col_place, c) for t, c in enumerate(coords) if c != 0
                )
            factors.append(terms)
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


def _value(digits, places) -> int:
    """Assignment value of the given digits at the given place values."""
    return sum(t * place for t, place in zip(digits, places))


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
