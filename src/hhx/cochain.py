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
unit. Both are read off a face table by one builder (_terms): a row per
target simplex whose entry is a source position or a basepoint slot. The
cofaces read entry i of the face rows; a codegeneracy s^i reads a one-entry
table, the position of s_i q in the level above for each simplex q, whose
groups of one place are identity factors and which, with no basepoint
entry, has the identity module block. Either is a product of per-simplex
factors (the grouped products) tensored with module blocks (the nonzero
composite star actions), expanded by one routine (_expand) whose work is
the nnz of the result; the star actions are extended one position at a
time, forming each shared prefix once, and the products of each group size
are formed once per setup (_group_products). Every map is a list of
operators, each a signed sum over the face indices it reads, and one
routine (_delta_blocks) sums any such list: a coface reads one index, a
codegeneracy index 0 of its table, and δ_n all n + 2.

Internal weight: the finest grading of algebra and module (_grading) gives
a hom basis element (assignment, c) the weight w_M(c) - Σ w(digits), and
every coface and codegeneracy preserves it, so each is block diagonal. An
expansion is split by weight once (_expansion), with the second half of
the factor choices fused with the module entries there under one key,
w_M(c) minus the tail's weight, and then the tail's mask (see
Normalization), and then each block is formed on its own (_expand), one
lookup per head, with every entry formed exactly once; an
ungraded input has one block. The differential δ_n = Σ (-1)^i d^i is
streamed one block at a time (_delta_blocks): for its rank each block's
dict of sparse columns goes straight into the exact elimination and is
dropped before the next is built; a matrix merges them all. Cohomology
dimensions need only the ranks, so no coface or differential matrix is
formed or kept for them.
Clearing: δ_n leaves out its columns at δ_{n-1}'s pivots P. The vectors
the elimination pops lie in im δ_{n-1}, and each is zero at the pivots
popped before it: the peeled ones, which come first, are the only vectors
nonzero at their private pivots, and the rest are reduced against earlier
pivots. So they are triangular on P, C^n = im δ_{n-1} ⊕ span{e_j : j ∉ P},
and δ_n, which kills im δ_{n-1} (given δδ = 0, which cohomology_dims checks
first), has the rank of the rest.

Normalization: the ranks are taken on the normalized cochains N^n = ∩ ker
s^i (i < n), a subcomplex with the same cohomology (cosimplicial Dold-Kan;
δ N^n ⊂ N^{n+1} given the cosimplicial identities, checked first as for
clearing). Basis element 0 is the unit, so s^i sends a column (α, c) of
C^n to a column of C^{n-1} or to zero, and to a column exactly when α has
the unit digit at every simplex outside the image of s_i; N^n is spanned
by the columns no s^i keeps, those outside the degenerate set D^n. A
simplex is in the image of s_i exactly when i is in its degeneracy word
(Eilenberg-Zilber), so with bit i of a position's mask set for each i in
its word (_masks), a column's mask, 2^n - 1 ANDed with the masks of the
positions where α is not the unit, names the s^i that keep it, and the
column is in N^n exactly when its mask is 0. Each factor term carries the
mask of its column digit; _choices ANDs them as it extends a prefix and
drops a prefix holding a bit that every term of every factor still to
choose, in both halves, also holds, as no later choice can clear it; and
_expand pairs a head only with tails whose mask is disjoint from its own.
So δ_n is formed on N^n alone and no column of D^n is listed; without
masks every term's is 0 and all of C^n is formed, the same code serving
coface and differential. H^n = dim N^n - rank δ_n - rank δ_{n-1}, with
dim N^n read off the hom dims: C^n is the sum of a copy of N^k for each
surjection [n] -> [k] (Dold-Kan), so dim N^n = Σ_k (-1)^{n-k} C(n, k) dim
C^k. The popped vectors lie in N^n, so each of δ_{n-1}'s pivots has mask
0 (_column_mask decodes it; one that has not raises InternalError) and
clearing is exact on N as on C. On the circle N^n holds m (d - 1)^n of the
m d^n columns.

Direct summands: every action maps the span of each connected component of
the module basis under the action entries into itself (_summands), so M is
the direct sum of the components' spans and the complex, with its cofaces
and codegeneracies, is the direct sum of the complexes with coefficients in
each: HH(X; A, M ⊕ N) = HH(X; A, M) ⊕ HH(X; A, N). Two components whose
action matrices, relabelled in order, agree for every class are isomorphic
summands with isomorphic complexes. So cohomology_dims forms δ_n only at
the module indices of the first component of each group of identical ones
(_terms keeps only their module entries) and counts each pivot j
with copies[j mod m], the size of its group. This is exact: a column at
module index c has its rows at indices of c's component, so the
elimination never combines two components, and the pivots at a
component's rows number the rank of its block; clearing and normalization
hold on each summand as on the whole. dim N^n, the pivot guard and
everything else read the full module. With no repeated summand every
count is 1 and δ_n is formed whole.

Faces come from one table: a setup keeps the integer face rows of the
non-basepoint simplices of every level 0..N + 1 (actions.level_rows), built
once. A coface d^i reads entry i of each row of the level above: a position
in the level below, or, where the face is the basepoint, the number of the
slot carrying the star action in actions.enumerate_slots. The setup
resolves each slot's action, that of its class, once when it is built. A
codegeneracy reads its own one-entry table (_degeneracy_positions), and
the builder takes the source count and the rows as arguments, so it reads
no level of the setup itself.

Products: where every slot acts alike the module is symmetric, and degree
n is F(X_n) for Pirashvili's functor F(S) = Hom(A^{⊗(S∖*)}, M) on finite
pointed sets, the cofaces F(d_i). For a space that knows its factors,
X × Y (SimplicialSpace.factors; the builtin torus is circle × circle), the
complex is then the diagonal of the bicosimplicial module C^{p,q} =
F(X_p × Y_q), which by Eilenberg-Zilber has the cohomology of the total
complex Tot^n = ⊕_{p+q=n} C^{p,q} with D = δ_h + (-1)^p δ_v, normalized in
both directions. cohomology_dims ranks that (_total), a far smaller complex:
torus Tot^3 has 72 normalized columns where C^3 has 65,536. Each piece is
read off face rows by the same builder, with the rows of the pairs (x, y)
built from each factor's level_rows and (*, *) read as slot 0, and every
piece sits at an offset that is a multiple of m, so weights, summands,
clearing and the pivot guard are as on the diagonal: one elimination loop
takes, per degree, a list of operators (sign, face indices, face rows,
source count, masks, offsets), of which the diagonal has one. The report's
t, hom dims and identity verdict stay those of the diagonal.

The cosimplicial identities are checked on simplices, not on matrices:
d_i d_j = d_{j-1} d_i holds exactly when the module acts equally on the two
slots through which each basepoint face d_i d_j s is reached (actions.row_pairs
on the same rows the cofaces read), and the relations with codegeneracies
hold by construction (check_cosimplicial_identities). No matrix is built for
it.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from operator import mul

from .actions import (
    ActionPartition,
    enumerate_slots,
    least_roots,
    level_rows,
    paranoid_visits,
    row_pairs,
)
from .coeffalg import Algebra, MultiModule, _unit_vector
from .errors import (
    DEFAULT_BUDGET,
    BudgetError,
    ColumnBudgetError,
    InternalError,
    ValidationError,
    _abridged,
)
from .exactlinalg import Matrix, _eliminate
from .simplicial import SimplicialSpace

# most simplex-pair visits check_cosimplicial_identities may make, counted
# as for a paranoid scan to dimension N + 1 (actions.paranoid_visits): at the
# limit 0.17-0.50 s on circle, sphere2, sphere3 or torus over k (0.09-0.31
# microseconds a visit, the setup's face rows included), 0.38-0.60 s on
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
    and not kept; cohomology_dims forms none of them. Each is one operator
    list summed by _delta_blocks, the path cohomology_dims takes, over one
    builder (_terms) and a face table: the cofaces and δ read the face
    rows of the level above, and a codegeneracy s^i reads the one-entry
    table of the position of s_i q in the level above, for each simplex q.
    Each map first checks that both degrees it touches lie in 0..N + 1.
    Construction fails fast with BudgetError, before any simplex is listed,
    if the differentials would expand more than FACE_LIMIT cofaces (checked
    first, as it depends on N alone), a hom space within the cap exceeds the
    column budget (which counts all columns of C^n, not those of its largest
    weight block), or the identity check would make more than IDENTITY_LIMIT
    simplex-pair visits. Next it finds the module's direct summands and
    groups the identical ones (_summands), then looks up the action of each
    slot's class, by slot number, and raises InternalError if the module
    supplies none for a class. It then solves for the finest internal
    grading of the algebra and the module (_grading): the null space over Q
    of the linear equations every nonzero structure constant and action
    entry imposes on the weights. Last it builds the face rows of levels
    0..N + 1 (actions.level_rows), which the cofaces and the identity check
    read. A space's factors are not read here: cohomology_dims builds their
    face rows when it ranks their total complex, and the column budget
    counts the columns of the diagonal C^n whichever complex is ranked.
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
        # δ_n expands its n + 2 cofaces even where t is 0 throughout, so
        # this bound, which depends on N alone, comes before any loop over N
        faces = (max_degree + 1) * (max_degree + 4) // 2
        if faces > FACE_LIMIT:
            raise BudgetError(
                f"the differentials would expand {_abridged(faces)} cofaces, "
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
        # how many identical direct summands of the module each basis index
        # stands for: 0 outside the representatives cohomology_dims forms
        self._copies = _summands(module)
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
        # _group_products by size, each extending the one below
        self._products = [[((), algebra.unit)]]

    def _check_degree(self, *degrees: int):
        for n in degrees:
            if not 0 <= n <= self.max_degree + 1:
                raise ValueError(
                    f"degree {n} outside 0..{self.max_degree + 1} for this setup"
                )

    # -- matrices ---------------------------------------------------------

    def differential(self, n: int) -> Matrix:
        """Alternating sum of the cofaces out of degree n, as a Matrix."""
        self._check_degree(n, n + 1)
        return self._matrix(n + 1, n, self._delta_blocks(self._diagonal(n)))

    def coface(self, n: int, i: int) -> Matrix:
        self._check_degree(n, n + 1)
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range 0..{n + 1}")
        # the sign (-1)^i cancels the one _delta_blocks gives face i
        operator = ((-1) ** i, range(i, i + 1), self._levels[n + 1][1], self.t[n], None, (0, 0))
        return self._matrix(n + 1, n, self._delta_blocks([operator]))

    def codegeneracy(self, n: int, i: int) -> Matrix:
        self._check_degree(n, n + 1)
        if not 0 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range 0..{n}")
        table = [(p,) for p in self._degeneracy_positions(n + 1, i)]
        operator = (1, range(1), table, self.t[n + 1], None, (0, 0))
        return self._matrix(n, n + 1, self._delta_blocks([operator]))

    def _degeneracy_positions(self, n: int, i: int) -> list[int]:
        """The position in level n of s_i(s) for each simplex s of level n - 1."""
        up_pos = {s: p for p, s in enumerate(self._levels[n][0])}
        positions = [
            up_pos.get(self.space.degeneracy(s, i)) for s in self._levels[n - 1][0]
        ]
        if None in positions or len(set(positions)) < len(positions):
            raise InternalError("degeneracy image not found or not injective")
        return positions

    def _masks(self, n: int) -> tuple[int, list[int]]:
        """(every, images) for level n: images[q] has bit i set for each i in
        the degeneracy word of simplex q, and every = 2^n - 1 has a bit per s_i.

        By Eilenberg-Zilber the word of x is the unique set J with x = s_J y,
        y non-degenerate, so s_i, i < n, hits position q exactly when i is in
        q's word. A column (α, c) of C^n has the mask every AND images[q]
        over the positions q where α is not the unit 0: the codegeneracies
        s^i that keep it. It lies in N^n = ∩ ker s^i exactly when that mask
        is 0.
        """
        images = [sum(1 << j for j in s.word) for s in self._levels[n][0]]
        return (1 << n) - 1, images

    def _matrix(self, row_degree, col_degree, blocks) -> Matrix:
        """The (weight, columns) blocks, which share no column, as one Matrix."""
        return Matrix(
            self.algebra.field,
            self.hom_dims[row_degree],
            self.hom_dims[col_degree],
            {(r, c): v for _, columns in blocks
             for c, column in columns.items() for r, v in column.items()},
        )

    def _diagonal(self, n: int, masks=None) -> list:
        """δ_n = Σ (-1)^i d^i on C^n as the one operator of its degree, for
        _delta_blocks: its n + 2 cofaces read the face rows of level n + 1
        from the t_n positions of level n, with masks, _masks(n), or none."""
        return [(1, range(n + 2), self._levels[n + 1][1], self.t[n], masks, (0, 0))]

    def _total(self, X, Y) -> tuple[list, list]:
        """(operators, dims): for each degree n = 0..N, the operators of D_n
        on the normalized total complex of the factors X and Y, and its
        dimension.

        Piece (p, q) of Tot^n = ⊕_{p+q=n} C^{p,q} is C^{p,q} = F(X_p × Y_q)
        on the pointed set of pairs, whose basepoint is (*, *). With X_p's
        simplices numbered basepoint first (_factor_levels), pair (x, y) has
        position x |Y_q| + y - 1, so (*, *) lands at -1, the slot ~0, which
        stands for every slot as all act alike. D = δ_h + (-1)^p δ_v: the
        horizontal cofaces read the rows of (x, y) in X_{p+1} × Y_q, whose
        entry i is the position of (d_i x, y), and the vertical ones those
        of (x, y) in X_p × Y_{q+1}. Pair (x, y) has the mask of x's word
        and that of y's shifted by p, so a column lies in N^{p,q} exactly
        when its mask is 0, and dim N^{p,q} is the binomial inversion of
        dim C^{a,b} in both directions. Each piece sits at an offset
        (operator field at) that is a multiple of m, pieces in order of p.
        """
        d, m, top = self.algebra.dim, self.module.dim, self.max_degree
        X, Y = _factor_levels(X, top + 1), _factor_levels(Y, top + 1)

        def size(p, q):  # the positions of piece (p, q)
            return len(X[p][1]) * len(Y[q][1]) - 1

        def offsets(n):
            sizes = (m * d ** size(p, n - p) for p in range(n + 1))
            return list(itertools.accumulate(sizes, initial=0))

        plan, dims = [], []
        for n in range(top + 1):
            cols, rows, operators = offsets(n), offsets(n + 1), []
            for p in range(n + 1):
                q = n - p
                (_, xs), (_, ys) = X[p], Y[q]
                masks = (1 << n) - 1, [a | b << p for a in xs for b in ys][1:]
                h = [[f * len(ys) + b - 1 for f in row]
                     for row in X[p + 1][0] for b in range(len(ys))]
                v = [[a * len(ys) + f - 1 for f in row]
                     for a in range(len(xs)) for row in Y[q + 1][0]]
                operators += [
                    (1, range(p + 2), h[1:], size(p, q), masks, (cols[p], rows[p + 1])),
                    ((-1) ** p, range(q + 2), v[1:], size(p, q), masks, (cols[p], rows[p])),
                ]
            plan.append(operators)
            dims.append(sum(
                (-1) ** (n - a - b) * comb(p, a) * comb(n - p, b) * m * d ** size(a, b)
                for p in range(n + 1) for a in range(p + 1) for b in range(n - p + 1)
            ))
        return plan, dims

    def _delta_blocks(self, operators, skip=frozenset(), kept=None):
        """(weight, columns) for each weight block of the sum of operators.

        An operator is (sign, faces, rows, sources, masks, at): sign times
        Σ (-1)^i d^i over the face indices i in faces, a range, each
        reading entry i of rows (_terms) from sources source positions,
        with its columns at offset at[0] and its rows at offset at[1], both
        multiples of m. δ_n is range(n + 2); a single coface d^i is
        range(i, i + 1) with sign (-1)^i, and a codegeneracy range(1) of its
        one-entry table. Every operator is expanded and split by weight
        once, when the generator starts; then the blocks follow in order of
        weight, each the sum of the expansions' entries in it (_expand),
        its nonzero columns not in skip assembled only when the generator
        reaches it. With masks, (every, images) as _masks gives
        them, only the columns of the normalized piece are formed; without,
        every = 0 and all columns are. With kept, a set of module basis
        indices closed under every action, only the columns and rows at
        those module indices are formed (the direct summand they span);
        without, every index is kept.
        """
        expansions = []
        for sign, faces, rows, sources, masks, at in operators if self.module.dim else ():
            every, images = masks or (0, [0] * sources)
            expansions += [
                self._expansion(sign * (-1) ** i, every, at, *self._terms(
                    sources, rows, i, every, images, kept
                ))
                for i in faces
            ]
        weights = sorted({
            key - head
            for fused, heads in expansions for key in fused for head, _ in heads
        })
        for weight in weights:
            columns = {}
            for expansion in expansions:
                self._expand(columns, expansion, weight, skip)
            yield weight, columns

    def _terms(self, sources, rows, i, every, images, kept=None):
        """(blocks, factors) for _expansion of the operator that reads entry
        i of each target face row; needs m > 0.

        sources is the number of source simplices and rows holds one face
        row per target simplex, in order: entry i is the source position of
        the i-th face, or ~slot where that face is the basepoint. The
        cofaces d^i out of degree n read the rows of level n + 1 with
        sources = t_n; a codegeneracy s^i reads a one-entry table at index
        0. A factor's term with column digit t at source position q carries
        the mask images[q] if t is not the unit 0, else every (see _masks).
        The blocks hold only the module entries whose column is in kept
        (all when kept is None); as kept is closed under the actions, so
        are their rows.
        """
        d = self.algebra.dim
        m = self.module.dim
        if kept is None:
            kept = range(m)
        weight = self._weights[0]
        # the composite action for each choice of basis elements on the star
        # positions, kept where it is nonzero (None: no star position), one
        # position at a time so that shared prefixes are formed once
        acts = [(0, None)]
        groups = [[] for _ in range(sources)]
        for p, row in enumerate(rows):
            place = d ** (len(rows) - 1 - p)
            f = row[i]  # the face is source f, or the basepoint via slot ~f
            if f < 0:
                acts = [
                    (offset + t * place, product)
                    for offset, prev in acts
                    for t, act in enumerate(self._slot_actions[~f])
                    if (product := act if prev is None else prev @ act).nnz()
                ]
            else:
                groups[f].append(place)

        identity = [(u, u, 1) for u in range(m) if u in kept]
        blocks = [
            (row, identity if mat is None
             else [(r, c, v) for (r, c), v in sorted(mat.entries.items())
                   if c in kept])
            for row, mat in acts
        ]

        # per source simplex that some face hits: the nonzero coordinates of
        # the product of each choice of basis elements on its group; the
        # others keep the unit index 0
        factors = []
        for q, places in enumerate(groups):
            if not places:
                continue
            col_place = d ** (sources - 1 - q)
            image = images[q]
            factors.append([
                (sum(map(mul, digits, places)), t * col_place, c, weight[t],
                 image if t else every)
                for digits, coords in self._group_products(len(places))
                for t, c in enumerate(coords)
                if c != 0
            ])
        return blocks, factors

    def _group_products(self, size: int) -> list:
        """(digits, coordinates) for each choice of size basis elements whose
        product is nonzero, in lexicographic order.

        Formed once per setup: each size extends the choices of the size
        below by one multiply each, and every group of that size reads it.
        """
        alg = self.algebra
        products = self._products
        while len(products) <= size:
            units = [_unit_vector(alg.dim, t) for t in range(alg.dim)]
            products.append([
                (digits + (t,), coords)
                for digits, prev in products[-1]
                for t, unit in enumerate(units)
                if any(coords := alg.multiply(prev, unit))
            ])
        return products[size]

    def _expansion(self, sign, every, at, blocks, factors):
        """sign times the Kronecker product of factors and blocks, split by
        weight, with its columns shifted by at[0] and its rows by at[1].

        A factor is a list of nonzero terms (row offset, column offset,
        coefficient, weight of the column digit, mask) with offsets in assignment
        values; a block is (row offset, module entries (r, c, v)). The
        choices of one term from each factor of the first and of the second
        half are summed to (row, col, coeff) and split by the weight of
        their column digits and their mask (_choices, from every): heads,
        with sign in coeff, and tails, so the halves hold about the square
        root of the product's choices. Returns (fused, heads) for _expand:
        heads maps (head weight, mask) to its choices, and fused maps w_M(c)
        - u and then a tail mask to each tail of weight u and that mask fused
        with each module column c, as (col * m + c + at[0], [((row + block
        row offset) * m + r + at[1], coeff * v)]), formed once here rather
        than once per head.
        """
        p = self.algebra.field.p
        m = self.module.dim
        module_weight = self._weights[1]
        col_offset, row_offset = at
        groups = {}
        for block_row, items in blocks:
            for r, c, v in items:
                groups.setdefault(module_weight[c], {}).setdefault(c, []).append(
                    (block_row * m + r + row_offset, v)
                )
        half = len(factors) // 2
        heads, tails = factors[:half], factors[half:]
        tails = _choices(1, tails, p, every, _meet(every, heads))
        fused = {}
        for group, by_col in groups.items():
            for (tail, mask), terms in tails.items():
                fused.setdefault(group - tail, {}).setdefault(mask, []).extend(
                    (col * m + c + col_offset, [(row * m + r, coeff * v) for r, v in items])
                    for row, col, coeff in terms
                    for c, items in by_col.items()
                )
        return fused, _choices(sign, heads, p, every, _meet(every, factors[half:]))

    def _expand(self, columns, expansion, weight, skip=frozenset()):
        """Add the entries of an _expansion in the block of this weight to columns.

        A head of weight h and mask a pairs with the fused lists at key
        weight + h whose tail mask b has a & b = 0, the columns of N^n (all
        columns when there are no masks): the tails of weight u fused with
        the module columns c where weight = w_M(c) - h - u. The head's
        offsets, times m, shift each fused column and row, and its
        coefficient multiplies each fused value v, which is added to
        columns[col][row] unless col is in skip, deleting entries that
        cancel. Each entry of the product lies in one block, so over all
        blocks the work is the nnz of the product on N^n.
        """
        p = self.algebra.field.p
        m = self.module.dim
        fused, heads = expansion
        for (head, mask), prefixes in heads.items():
            tails = fused.get(weight + head)
            if tails is None:
                continue
            for bits, entries in tails.items():
                if bits & mask:
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
        """[HH^0 .. HH^N] from the ranks of the differentials on the
        normalized cochains N^n = ∩ ker s^i.

        δ_n is streamed one internal-weight block at a time (_delta_blocks):
        each block's columns, formed on N^n only (_masks) and cleared of
        δ_{n-1}'s pivots, go into the elimination and away before the next
        block is assembled, so at most one block is held. rank δ_n is the
        number of pivots over all blocks, and dim N^n, the binomial
        inversion of the hom dims (cosimplicial Dold-Kan), stands for dim
        C^n. δ_n is formed only on one representative of each group of
        identical direct summands of the module (_summands), and each pivot
        counts as many times as its group has members: the complex is the
        direct sum of the complexes of the summands, HH(X; A, M ⊕ N) =
        HH(X; A, M) ⊕ HH(X; A, N), and no pivot's vector leaves its
        summand. Clearing is exact as δδ = 0, and normalizing as δ N^n ⊂
        N^{n+1} with the same cohomology; both need the cosimplicial
        identities, so a setup whose identities fail raises
        ValidationError. A pivot of δ_{n-1} whose decoded mask is not 0
        (_column_mask), a column outside N^n, which δ N^{n-1} ⊂ N^n rules
        out, raises InternalError.

        When the space has factors X, Y and every slot acts alike, the
        ranks and dimensions are instead those of the normalized total
        complex of the bicosimplicial module F(X_p × Y_q) (_total), which
        has the same cohomology (Eilenberg-Zilber; the module is symmetric,
        so the complex is Pirashvili's functor on the levels of X × Y). The
        same loop runs over it, each degree a list of operators, one per
        direction and piece, with its pieces at offsets; otherwise each
        degree is the one operator δ_n on C^n (_diagonal).
        """
        if self.check_cosimplicial_identities():
            raise ValidationError(
                "the cosimplicial identities fail, so δδ ≠ 0 and there is "
                "no cohomology"
            )
        p = self.algebra.field.p
        d = self.algebra.dim
        m = self.module.dim
        copies = self._copies
        kept = {c for c, k in enumerate(copies) if k}
        acts = self._slot_actions
        if self.space.factors and acts and acts.count(acts[0]) == len(acts):
            plan, dims = self._total(*self.space.factors)
        else:
            plan = [self._diagonal(n, self._masks(n)) for n in range(self.max_degree + 1)]
            # C^n = ⊕ N^k over the surjections [n] -> [k] (cosimplicial Dold-Kan)
            dims = [
                sum((-1) ** (n - k) * comb(n, k) * self.hom_dims[k] for k in range(n + 1))
                for n in range(self.max_degree + 1)
            ]
        ranks = []
        pivots = frozenset()
        for n, operators in enumerate(plan):
            for _, _, _, sources, masks, (cols, _) in operators:
                piece = range(cols, cols + m * d**sources)
                if any(_column_mask((j - cols) // m, d, *masks)
                       for j in pivots if j in piece):
                    raise InternalError(f"δ_{n - 1} has a pivot outside N^{n}")
            found = set()
            for _, columns in self._delta_blocks(operators, pivots, kept):
                found |= _eliminate(columns, p)
            pivots = found
            # a pivot lies at a row of the summand its column came from
            ranks.append(sum(copies[j % m] for j in pivots))
        return _dims_from_ranks(ranks, dims)

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
    back-substitution in integers through its echelon vectors), and each basis
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
    # zero at the pivots popped before it, so solve the last popped first.
    # In integers: an unknown is (s, numerators), its value numerators / s,
    # where s is the product of the pivots used when it was solved, so s
    # divides scale, the product of them all
    scale = 1
    solved = {u: (1, {u: 1}) for u in free}
    for col, piv, rest in reversed(echelon):
        value = {}
        for u, v in rest.items():
            s, vector = solved[u]
            for f, x in vector.items():
                value[f] = value.get(f, 0) - v * x * (scale // s)
        scale *= piv
        solved[col] = scale, value
    vectors = [
        [vector.get(f, 0) * (scale // s) for f in free]
        for s, vector in map(solved.get, range(d + module.dim))
    ]
    # the values are vectors / scale: scale them by the least positive
    # integer that clears every denominator, |scale| / gcd(scale, vectors)
    common = gcd(scale, *itertools.chain.from_iterable(vectors))
    if scale < 0:
        common = -common
    vectors = [[x // common for x in v] for v in vectors]
    base = 2 * (most + 1) * max((abs(x) for v in vectors for x in v), default=0) + 1
    weights = [sum(x * base**k for k, x in enumerate(v)) for v in vectors]
    return weights[:d], weights[d:]


def _summands(module: MultiModule) -> list[int]:
    """copies[c] for each module basis index c: the number of identical
    direct summands that c's summand stands for if it is the first of them,
    else 0.

    The summands are the connected components of the basis under every
    action entry (r, c), found by actions.least_roots in one pass over the
    entries; every action maps a component's span into itself. Two
    components are identical when every class's action matrices, with each
    component's indices relabelled 0, 1, ... in order, are equal (which
    fixes the size, as every index of a component larger than one has an
    entry); the first of each group (by its least index) represents it.
    With no action at all every basis vector is its own component, and all
    of them are identical.
    """
    m = module.dim
    matrices = [mat for mats in module.actions.values() for mat in mats]
    root = least_roots(m, itertools.chain.from_iterable(mat.entries for mat in matrices))
    # each component by its least index: (indices, entries relabelled by place)
    parts = {}
    place = []
    for u in range(m):
        indices = parts.setdefault(root[u], ([], []))[0]
        place.append(len(indices))
        indices.append(u)
    for k, mat in enumerate(matrices):
        for (r, c), v in mat.entries.items():
            parts[root[r]][1].append((k, place[r], place[c], v))
    groups = {}
    for indices, entries in parts.values():
        groups.setdefault(frozenset(entries), []).append(indices)
    copies = [0] * m
    for same in groups.values():
        for u in same[0]:
            copies[u] = len(same)
    return copies


def _choices(start, factors, p, every, rest) -> dict:
    """{(weight, mask): [(row, col, coeff)]}: each choice of one term per
    factor that can still reach mask 0.

    Built one factor at a time in lexicographic order, summing offsets and
    weights, multiplying coefficients (mod p over F_p) from start, and
    ANDing masks from every. A bit of a prefix's mask that is also set in
    every term of every factor still to choose, and in rest (_meet of the
    other half), can never be cleared, so the prefix is dropped with every
    choice extending it.
    """
    choices = [(0, 0, start, 0, every)]
    for k, factor in enumerate(factors, 1):
        ahead = _meet(rest, factors[k:])
        choices = [
            (row + r, col + c, coeff * v % p if p else coeff * v, w + u, mask)
            for row, col, coeff, w, prev in choices
            for r, c, v, u, bits in factor
            if not (mask := prev & bits) & ahead
        ]
    out = {}
    for row, col, coeff, weight, mask in choices:
        out.setdefault((weight, mask), []).append((row, col, coeff))
    return out


def _meet(mask, factors) -> int:
    """mask AND the mask of every term of factors."""
    for factor in factors:
        for term in factor:
            mask &= term[4]
    return mask


def _column_mask(value, d, every, images) -> int:
    """The mask of the assignment with this value (see _masks)."""
    for image in reversed(images):
        value, digit = divmod(value, d)
        if digit:
            every &= image
    return every


def _factor_levels(space: SimplicialSpace, top: int) -> list:
    """(faces, masks) of each level 0..top of a factor, basepoint first:
    for each simplex, the place of each of its faces in the level below
    (0 for the basepoint) and the mask of its degeneracy word (_masks)."""
    return [
        ([[0] * (n + 1)] + [[max(f + 1, 0) for f in row] for row in rows],
         [(1 << n) - 1] + [sum(1 << j for j in s.word) for s in level])
        for n, (level, rows) in enumerate(level_rows(space, top))
    ]


def _dims_from_ranks(ranks, dims) -> list[int]:
    """[H^0 .. H^N] of a complex with rank δ_n = ranks[n] and dim C^n = dims[n]."""
    hh = [dims[n] - rank - (ranks[n - 1] if n else 0) for n, rank in enumerate(ranks)]
    for n, h in enumerate(hh):
        if h < 0:
            raise InternalError(f"negative cohomology dimension in degree {n}")
    return hh
