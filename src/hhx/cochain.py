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
once.

Internal weight: the finest grading of algebra and module (_grading) gives
a hom basis element (assignment, c) the weight w_M(c) - Σ w(digits), and
every coface and codegeneracy preserves it, so each is block diagonal. An
expansion is split by weight once (_expansion), with the second half of
the factor choices fused with the module entries there under one flat key,
w_M(c) minus the tail's weight, and then each block is formed on its own
(_expand), one lookup per head, with every entry formed exactly once; an
ungraded input has one block. The differential δ_n = Σ (-1)^i d^i is
streamed one block at a time (_delta_blocks): each block's dict of sparse
columns goes straight into the exact elimination for its rank and is
dropped before the next is built. Cohomology dimensions need only the
ranks, so no coface or differential matrix is formed or kept for them.
Clearing: δ_n leaves out its columns at δ_{n-1}'s pivots P. The vectors
the elimination pops lie in im δ_{n-1}, and each is zero at the pivots
popped before it: the peeled ones, which come first, are the only vectors
nonzero at their private pivots, and the rest are reduced against earlier
pivots. So they are triangular on P, C^n = im δ_{n-1} ⊕ span{e_j : j ∉ P},
and δ_n, which kills im δ_{n-1} (given δδ = 0, which cohomology_dims checks
first), has the rank of the rest.

Faces come from one table: a setup keeps the integer face rows of the
non-basepoint simplices of every level 0..N + 1 (actions.level_rows), built
once. A coface d^i reads entry i of each row of the level above: a position
in the level below, or, where the face is the basepoint, the number of the
slot carrying the star action in actions.enumerate_slots. The setup
resolves each slot's action, that of its class, once when it is built.

The cosimplicial identities are checked on simplices, not on matrices:
d_i d_j = d_{j-1} d_i holds exactly when the module acts equally on the two
slots through which each basepoint face d_i d_j s is reached (actions.row_pairs
on the same rows the cofaces read), and the relations with codegeneracies
hold by construction (check_cosimplicial_identities). No matrix is built for
it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm

from .actions import ActionPartition, enumerate_slots, level_rows, paranoid_visits, row_pairs
from .coeffalg import Algebra, MultiModule, _unit_vector
from .errors import (
    DEFAULT_BUDGET,
    BudgetError,
    ColumnBudgetError,
    InternalError,
    ValidationError,
)
from .exactlinalg import Matrix, _eliminate
from .simplicial import SimplicialSpace

# most simplex-pair visits check_cosimplicial_identities may make, counted
# as for a paranoid scan to dimension N + 1 (actions.paranoid_visits): at the
# limit 0.2-0.7 s on circle, sphere2, sphere3 or torus over k (0.11-0.34
# microseconds a visit, the setup's face rows included), 0.65-0.8 s on
# sphere12 (-N 16, 1,259,700 visits), where most pairs reach the basepoint;
# 2-vCPU host, Python 3.11
IDENTITY_LIMIT = 2_000_000

# most cofaces the differentials δ_0..δ_N may expand, (N + 1)(N + 4) / 2,
# which refuses -N >= 445 whatever the space: even where every hom space is
# 1-dimensional (the point space over k) the run took 1.4 s at -N 444, and
# 51 s at -N 3000 without the limit; 2-vCPU host, Python 3.11
FACE_LIMIT = 100_000


class CochainSetup:
    """Space + algebra + multi-module + degree cap.

    Coface, codegeneracy and differential matrices are built on every call
    and not kept; cohomology_dims forms none of them. Construction fails
    fast with BudgetError, before any simplex is listed, if the
    differentials would expand more than FACE_LIMIT cofaces (checked first,
    as it depends on N alone), a hom space within the cap exceeds the column
    budget (which counts all columns of C^n, not those of its largest weight
    block), or the identity check would make more than IDENTITY_LIMIT
    simplex-pair visits. Next it looks up the action of each slot's class,
    by slot number, and raises InternalError if the module supplies none
    for a class. It then solves for the finest internal grading of the
    algebra and the module (_grading): the null space over Q of the linear
    equations every nonzero structure constant and action entry imposes on
    the weights. Last it builds the face rows of levels 0..N + 1
    (actions.level_rows), which the cofaces and the identity check read.
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
        # δ_n expands its n + 2 cofaces even where t is 0 throughout, so
        # this bound, which depends on N alone, comes before any loop over N
        faces = (max_degree + 1) * (max_degree + 4) // 2
        if faces > FACE_LIMIT:
            raise BudgetError(
                f"the differentials would expand {faces} cofaces, "
                f"exceeding the limit of {FACE_LIMIT}"
            )
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
        visits = paranoid_visits(space, max_degree + 1)
        if visits > IDENTITY_LIMIT:
            raise BudgetError(
                f"the cosimplicial identity check would visit {visits} "
                f"simplices, exceeding the limit of {IDENTITY_LIMIT}"
            )
        # the action matrices of each slot's class, by slot number
        self._slot_actions = []
        for slot in enumerate_slots(space):
            key = partition.class_of(slot)
            if key not in module.actions:
                raise InternalError(f"no action supplied for {key!r}")
            self._slot_actions.append(module.actions[key])
        # (algebra basis weights, module basis weights)
        self._weights = _grading(algebra, module, self.t[-1])
        # (non-basepoint simplices, face rows) of each level 0..N + 1
        self._levels = list(level_rows(space, max_degree + 1))
        self._failures = None  # the identity verdict, once scanned

    def basis(self, n: int):
        """The non-basepoint n-simplices indexing the tensor factors."""
        self._check_degree(n)
        return self._levels[n][0]

    def _check_degree(self, n: int):
        if not 0 <= n <= self.max_degree + 1:
            raise ValueError(
                f"degree {n} outside 0..{self.max_degree + 1} for this setup"
            )

    # -- matrices ---------------------------------------------------------

    def differential(self, n: int) -> Matrix:
        """Alternating sum of the cofaces out of degree n, as a Matrix."""
        self._check_degree(n)
        return self._matrix(n + 1, n, _merged(self._delta_blocks(n)))

    def coface(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range 0..{n + 1}")
        expansions = []
        if self.module.dim:
            expansions.append(self._expansion(1, *self._coface_terms(n, i)))
        return self._matrix(n + 1, n, _merged(self._blocks(expansions)))

    def codegeneracy(self, n: int, i: int) -> Matrix:
        self._check_degree(n + 1)
        if not 0 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range 0..{n}")
        space = self.space
        d = self.algebra.dim
        m = self.module.dim
        if m == 0:
            return self._matrix(n, n + 1, {})
        weight = self._weights[0]
        src = self._levels[n][0]
        up = self._levels[n + 1][0]
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
            factors.append(
                [(t * row_place, t * col_place, 1, weight[t]) for t in range(d)]
            )
        identity = [(u, u, 1) for u in range(m)]
        expansion = self._expansion(1, [(0, identity)], factors)
        return self._matrix(n, n + 1, _merged(self._blocks([expansion])))

    def _matrix(self, row_degree, col_degree, columns) -> Matrix:
        return Matrix(
            self.algebra.field,
            self.hom_dims[row_degree],
            self.hom_dims[col_degree],
            {(r, c): v for c, column in columns.items() for r, v in column.items()},
        )

    def _delta_blocks(self, n: int, skip=frozenset()):
        """(weight, columns) for each weight block of δ_n = Σ (-1)^i d^i.

        The n + 2 cofaces are expanded and split by weight now, once; each
        block's nonzero columns not in skip are assembled only when the
        returned generator reaches it.
        """
        expansions = []
        if self.module.dim:
            expansions = [
                self._expansion((-1) ** i, *self._coface_terms(n, i))
                for i in range(n + 2)
            ]
        return self._blocks(expansions, skip)

    def _blocks(self, expansions, skip=frozenset()):
        """(weight, columns) for each weight some choice of terms reaches, in
        order: the sum of the expansions' entries in that block (_expand)."""
        weights = sorted({
            key - head for fused, heads in expansions for key in fused for head in heads
        })
        for weight in weights:
            columns = {}
            for expansion in expansions:
                self._expand(columns, expansion, weight, skip)
            yield weight, columns

    def _coface_terms(self, n: int, i: int):
        """(blocks, factors) of d^i out of degree n for _expansion; needs m > 0."""
        alg = self.algebra
        d = alg.dim
        m = self.module.dim
        weight = self._weights[0]
        src = self._levels[n][0]
        rows = self._levels[n + 1][1]
        star_places = []
        star_mats = []
        groups = [[] for _ in src]
        for p, row in enumerate(rows):
            place = d ** (len(rows) - 1 - p)
            f = row[i]  # level_rows: d_i s is src[f], or the basepoint via slot ~f
            if f < 0:
                star_places.append(place)
                star_mats.append(self._slot_actions[~f])
            else:
                groups[f].append(place)

        # the composite action for each choice of basis elements on the star
        # positions, kept where it is nonzero (None: no star position)
        acts = _by_position(
            None,
            zip(star_places, star_mats),
            lambda prev, act: act if prev is None else prev @ act,
            Matrix.nnz,
        )
        identity = [(u, u, 1) for u in range(m)]
        blocks = [
            (row, identity if mat is None
             else [(r, c, v) for (r, c), v in sorted(mat.entries.items())])
            for row, mat in acts
        ]

        # per source simplex that some face hits: the nonzero coordinates of
        # the product of each choice of basis elements on its group; the
        # others keep the unit index 0
        units = [_unit_vector(d, t) for t in range(d)]
        factors = []
        for q, places in enumerate(groups):
            if not places:
                continue
            col_place = d ** (len(src) - 1 - q)
            products = _by_position(
                alg.unit, ((place, units) for place in places), alg.multiply, any
            )
            factors.append([
                (row, t * col_place, c, weight[t])
                for row, coords in products
                for t, c in enumerate(coords)
                if c != 0
            ])
        return blocks, factors

    def _expansion(self, sign, blocks, factors):
        """sign times the Kronecker product of factors and blocks, split by weight.

        A factor is a list of nonzero terms (row offset, column offset,
        coefficient, weight of the column digit) with offsets in assignment
        values; a block is (row offset, module entries (r, c, v)). The
        choices of one term from each factor of the first and of the second
        half are summed to (row, col, coeff) and split by the weight of
        their column digits: heads, with sign in coeff, and tails, so the
        halves hold about the square root of the product's choices. Returns
        (fused, heads) for _expand: heads maps a head weight to its choices,
        and fused maps w_M(c) - u to each tail of weight u fused with each
        module column c, as (col * m + c, [((row + block row offset) * m +
        r, coeff * v)]), formed once here rather than once per head.
        """
        p = self.algebra.field.p
        m = self.module.dim
        module_weight = self._weights[1]
        groups = {}
        for block_row, items in blocks:
            for r, c, v in items:
                groups.setdefault(module_weight[c], {}).setdefault(c, []).append(
                    (block_row * m + r, v)
                )
        half = len(factors) // 2
        tails = _choices(1, factors[half:], p)
        fused = {}
        for group, by_col in groups.items():
            for tail, terms in tails.items():
                fused.setdefault(group - tail, []).extend(
                    (col * m + c, [(row * m + r, coeff * v) for r, v in items])
                    for row, col, coeff in terms
                    for c, items in by_col.items()
                )
        return fused, _choices(sign, factors[:half], p)

    def _expand(self, columns, expansion, weight, skip=frozenset()):
        """Add the entries of an _expansion in the block of this weight to columns.

        A head of weight h pairs with the fused list at key weight + h: the
        tails of weight u fused with the module columns c where weight =
        w_M(c) - h - u. The head's offsets, times m, shift each fused column
        and row, and its coefficient multiplies each fused value v, which is
        added to columns[col][row] unless col is in skip, deleting entries
        that cancel. Each entry of the product lies in one block, so over
        all blocks the work is the product's nnz.
        """
        p = self.algebra.field.p
        m = self.module.dim
        fused, heads = expansion
        for head, prefixes in heads.items():
            entries = fused.get(weight + head)
            if entries is None:
                continue
            for row, col, coeff in prefixes:
                row *= m
                col *= m
                for c, items in entries:
                    c += col
                    if c in skip:
                        continue
                    column = columns.get(c)
                    if column is None:
                        column = columns[c] = {}
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
        structure is consistent. No coface or codegeneracy matrix is built,
        and the scan runs once per setup: later calls return its verdict.

        Both composites carry the factor on a simplex s of degree n + 2 to
        the same face d_i d_j s = d_{j-1} d_i s. Away from the basepoint
        that face joins the argument either way; at the basepoint the first
        composite applies the action of the slot reached via j and the
        second that of the slot reached via i (actions.row_pairs). So an
        instance holds exactly when the module acts equally on every such
        pair of slots. This is exact for a validated module (unital,
        multiplicative, with commuting actions) over a commutative algebra:
        multiplicativity splits every grouped product into one action per
        simplex, and the unit on every other simplex isolates one action.
        A space that breaks d_i d_j = d_{j-1} d_i raises InternalError.

        Degrees 2..N + 1 are scanned from the setup's face rows
        (actions.level_rows), the same rows the cofaces read, with no row for
        basepoint simplices, so each face is found once per setup and the
        point space finds none.

        The other relations hold by construction. s_i s_j x = s_j s_{i-1} x
        is an identity of degeneracy words alone. d_i s_j x is x when i is
        j or j + 1, and otherwise passes through s_j to the face-table entry
        and the slot of d_i x or d_{i-1} x, so it reads no input
        the two sides could disagree on; the test suite checks both on
        simplices.
        """
        if self._failures is None:
            acts = self._slot_actions
            levels = self._levels
            same = {}  # (via_j, via_i) slot numbers -> whether they act alike
            failing = set()
            for n in range(2, len(levels)):
                (level, rows), lower = levels[n], levels[n - 1][1]
                for i, j, via_j, via_i in row_pairs(level, rows, lower):
                    equal = same.get((via_j, via_i))
                    if equal is None:
                        equal = same[via_j, via_i] = acts[via_j] == acts[via_i]
                    if not equal:
                        failing.add((n - 2, j, i))
            self._failures = tuple(
                {"relation": "a", "n": n, "i": i, "j": j}
                for n, j, i in sorted(failing)
            )
        return list(self._failures)

    def cohomology_dims(self) -> list[int]:
        """[HH^0 .. HH^N] from the ranks of the differentials.

        δ_n is streamed one internal-weight block at a time (_delta_blocks):
        each block's columns, cleared of δ_{n-1}'s pivots, go into the
        elimination and away before the next block is assembled, so at most
        one block is held. rank δ_n is the number of pivots over all blocks.
        Clearing is exact as δδ = 0, so a setup whose cosimplicial
        identities fail raises ValidationError.
        """
        if self.check_cosimplicial_identities():
            raise ValidationError(
                "the cosimplicial identities fail, so δδ ≠ 0 and there is "
                "no cohomology"
            )
        p = self.algebra.field.p
        ranks = []
        pivots = frozenset()
        for n in range(self.max_degree + 1):
            found = set()
            for _, columns in self._delta_blocks(n, pivots):
                found |= _eliminate(columns, p)
            pivots = found
            ranks.append(len(pivots))
        return _dims_from_ranks(ranks, self.hom_dims)

    def report(self) -> dict:
        failures = self.check_cosimplicial_identities()
        out = {
            "space": self.space.name,
            "t": list(self.t),
            "hom_dims": list(self.hom_dims),
            "identities": "pass" if not failures else failures,
        }
        if not failures:
            out["hh_dims"] = self.cohomology_dims()
        return out


def _grading(algebra: Algebra, module: MultiModule, most: int) -> tuple[list, list]:
    """The finest internal grading: (w on the algebra basis, w_M on the module's).

    The weights solve w(c) = w(a) + w(b) wherever a b has a nonzero
    coordinate at c, and w_M(r) = w(a) + w_M(c) wherever some class's action
    of a has a nonzero (r, c) entry; then every coface and codegeneracy
    keeps the weight w_M(c) - Σ w(digits) of a hom basis element. The
    solutions are the null space over Q of these equations (_eliminate, then
    back-substitution through its echelon vectors), and each basis
    element's weight is its tuple of coordinates in the basis of that space
    that sets one free unknown to 1, so no grading is finer and each module
    component gets its own offset. The tuples are scaled to integers and
    read as numbers in a base B so large that weights summing at most
    `most` algebra weights and one module weight keep distinct numbers.
    """
    d = algebra.dim
    equations = []

    def equation(plus, *minus):
        vector = {plus: 1}
        for u in minus:
            vector[u] = vector.get(u, 0) - 1
        equations.append({u: v for u, v in vector.items() if v})

    for a in range(d):
        for b in range(a, d):
            for c, v in enumerate(algebra.mul[a][b]):
                if v != 0:
                    equation(c, a, b)
    for mats in module.actions.values():
        for a, mat in enumerate(mats):
            for r, c in mat.entries:
                equation(d + r, a, d + c)
    echelon = []
    pivots = _eliminate(dict(enumerate(equations)), 0, echelon)
    free = [u for u in range(d + module.dim) if u not in pivots]
    # each unknown as a combination of the free ones; an echelon vector is
    # zero at the pivots popped before it, so solve the last popped first
    solved = {u: {u: 1} for u in free}
    for col, piv, rest in reversed(echelon):
        value = {}
        for u, v in rest.items():
            for f, x in solved[u].items():
                value[f] = value.get(f, 0) - Fraction(v, piv) * x
        solved[col] = value
    scale = lcm(*(Fraction(x).denominator for v in solved.values() for x in v.values()))
    vectors = [
        [int(solved[u].get(f, 0) * scale) for f in free] for u in range(d + module.dim)
    ]
    base = 2 * (most + 1) * max((abs(x) for v in vectors for x in v), default=0) + 1
    weights = [sum(x * base**k for k, x in enumerate(v)) for v in vectors]
    return weights[:d], weights[d:]


def _choices(start, factors, p) -> dict:
    """{weight: [(row, col, coeff)]}: each choice of one term per factor.

    Built one factor at a time in lexicographic order, summing offsets and
    weights and multiplying coefficients (mod p over F_p) from start.
    """
    choices = [(0, 0, start, 0)]
    for factor in factors:
        choices = [
            (row + r, col + c, coeff * v % p if p else coeff * v, w + u)
            for row, col, coeff, w in choices
            for r, c, v, u in factor
        ]
    out = {}
    for row, col, coeff, weight in choices:
        out.setdefault(weight, []).append((row, col, coeff))
    return out


def _merged(blocks) -> dict:
    """The columns of all (weight, columns) blocks in one dict."""
    columns = {}
    for _, block in blocks:
        columns.update(block)
    return columns


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
    d = algebra.dim
    m = module.dim
    left = module.actions[left_key]
    right = module.actions[right_key]

    def put(acc, key, val):
        acc[key] = acc.get(key, 0) + val

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
                coords = algebra.mul[b[k - 1]][b[k]]
                for t, cval in enumerate(coords):
                    if cval == 0:
                        continue
                    col_value = 0
                    for digit in b[: k - 1] + (t,) + b[k + 1:]:
                        col_value = col_value * d + digit
                    val = (-1) ** k * cval
                    col_base = col_value * m
                    for u in range(m):
                        put(acc, (row_base + u, col_base + u), val)
            # drop the last factor through the right action
            col_value = 0
            for digit in b[:-1]:
                col_value = col_value * d + digit
            for (r, c), v in right[b[n]].entries.items():
                put(acc, (row_base + r, col_value * m + c), (-1) ** (n + 1) * v)
        return Matrix(algebra.field, rows, cols, acc)

    ranks = [diff(n).rank() for n in range(max_degree + 1)]
    return _dims_from_ranks(ranks, [m * d**n for n in range(max_degree + 1)])


def _dims_from_ranks(ranks, dims) -> list[int]:
    """[H^0 .. H^N] of a complex with rank δ_n = ranks[n] and dim C^n = dims[n]."""
    hh = [dims[n] - rank - (ranks[n - 1] if n else 0) for n, rank in enumerate(ranks)]
    for n, h in enumerate(hh):
        if h < 0:
            raise InternalError(f"negative cohomology dimension in degree {n}")
    return hh
