"""Shared fixtures-in-code: algebra documents, module builders, oracles."""

import itertools
import random
from fractions import Fraction
from math import comb, lcm

from hhx import (
    ActionSlot,
    MultiModule,
    PrimeField,
    Simplex,
    builtin_space,
    endomorphism_module,
    multiplication_module,
    parse_algebra,
    sweep_closure,
    validate_module,
)
from hhx.exactlinalg import Matrix, _eliminate

DUAL_DOC = {
    "field": "Q",
    "basis": ["1", "x"],
    "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
}

# Q[x]/x^3 with basis 1, x, x^2
CUBIC_DOC = {
    "field": "Q",
    "basis": ["1", "x", "x2"],
    "mul": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ],
}

# Q[x]/x^3 with basis 1, x, y = x^2 / 2, so x x = 2 y: a structure constant
# other than 0 and 1, which a coefficient dropped from a product would miss
SCALED_CUBIC_DOC = {
    "field": "Q",
    "basis": ["1", "x", "y"],
    "mul": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 2], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ],
}

GROUND_DOC = {"field": "Q", "basis": ["1"], "mul": [[[1]]]}


def reduced(value, p):
    """value mod p over F_p, value itself over Q (p = 0)."""
    return value % p if p else value


def _scan_like_doc():
    """A one-vertex space: edges, triangles on edges and s0 pt, high cells.

    The shape of the benchmark's paranoid-scan space, small: some triangle
    faces are the degenerate basepoint s0 pt (t5 is a 2-sphere), and the
    cells c3..c6 have every face at the degenerate basepoint.
    """
    edge = {"dim": 1, "faces": [["pt", []], ["pt", []]]}
    pt0 = ["pt", [0]]
    triangles = (
        [["e0", []], ["e1", []], ["e2", []]],
        [pt0, ["e0", []], ["e3", []]],
        [["e1", []], pt0, ["e1", []]],
        [["e2", []], ["e3", []], pt0],
        [pt0, pt0, ["e0", []]],
        [pt0, pt0, pt0],
    )
    simplices = [{"name": "pt", "dim": 0}]
    simplices += [{"name": f"e{k}", **edge} for k in range(4)]
    simplices += [
        {"name": f"t{k}", "dim": 2, "faces": faces}
        for k, faces in enumerate(triangles)
    ]
    for dim in (3, 4, 5, 6):
        basepoint = ["pt", list(range(dim - 2, -1, -1))]
        simplices.append({"name": f"c{dim}", "dim": dim, "faces": [basepoint] * (dim + 1)})
    return {"name": "scan-like", "basepoint": "pt", "simplices": simplices}


SCAN_LIKE_DOC = _scan_like_doc()

# two vertices and no slot: the edge e runs from v to v, away from pt
SLOTLESS_DOC = {
    "name": "slotless",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "e", "dim": 1, "faces": [["v", []], ["v", []]]},
    ],
}

WEDGE_DOC = {
    "name": "wedge-of-circles",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        {"name": "f", "dim": 1, "faces": [["pt", []], ["pt", []]]},
    ],
}

# a triangle with one side collapsed onto a degenerate non-basepoint vertex
BALLOON_DOC = {
    "name": "balloon",
    "basepoint": "p",
    "simplices": [
        {"name": "p", "dim": 0},
        {"name": "q", "dim": 0},
        {"name": "f", "dim": 1, "faces": [["q", []], ["p", []]]},
        {"name": "Z", "dim": 2, "faces": [["q", [0]], ["f", []], ["f", []]]},
    ],
}

# a circle of two edges through pt and v
TWO_EDGE_CIRCLE = {
    "name": "two-edge-circle",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "e1", "dim": 1, "faces": [["v", []], ["pt", []]]},
        {"name": "e2", "dim": 1, "faces": [["pt", []], ["v", []]]},
    ],
}

# S^2 v S^1 on one vertex: the loop e and the 2-simplex s with every face at
# s0 pt. The pinched torus has this homotopy type, so symmetric coefficients
# give both the same HH, but it carries 3 slot classes to the pinched
# torus's 2.
SPHERE_CIRCLE_WEDGE_DOC = {
    "name": "sphere2-wedge-circle",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        {"name": "s", "dim": 2, "faces": [["pt", [0]]] * 3},
    ],
}

# HH^0..3 of the pinched torus with Q[x]/x^2 acting on itself, every class alike
PINCHED_TORUS_REGULAR_HH = [2, 1, 2, 3]

# Spaces that break d_i d_j = d_{j-1} d_i, for parse_space(..., validate=False).

# faces of t break d_0 d_1 = d_0 d_0 at the basepoint: d_0 d_1 t = d_0 g = v,
# but d_0 d_0 t = d_0 f = pt; and d_0 d_2 = d_1 d_0: d_2 t = s0 pt, but
# d_1 d_0 t = d_1 f = v
BROKEN_AT_BASEPOINT_DOC = {
    "name": "broken",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "f", "dim": 1, "faces": [["pt", []], ["v", []]]},
        {"name": "g", "dim": 1, "faces": [["v", []], ["pt", []]]},
        {"name": "t", "dim": 2, "faces": [["f", []], ["g", []], ["pt", [0]]]},
    ],
}


# only faces 0,1 of t break an identity, and only the way via 0 reaches the
# basepoint: d_0 d_0 t = d_0 f = pt, but d_0 d_1 t = d_0 g = v
BROKEN_VIA_I_ONLY_DOC = {
    "name": "broken-via-i",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "w", "dim": 0},
        {"name": "f", "dim": 1, "faces": [["pt", []], ["v", []]]},
        {"name": "g", "dim": 1, "faces": [["v", []], ["w", []]]},
        {"name": "t", "dim": 2, "faces": [["f", []], ["g", []], ["g", []]]},
    ],
}


# only faces 0,2 of t break an identity, away from the basepoint:
# d_0 d_2 t = d_0 g = w, but d_1 d_0 t = d_1 f = v
BROKEN_AWAY_FROM_BASEPOINT_DOC = {
    "name": "broken-away",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "w", "dim": 0},
        {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        {"name": "f", "dim": 1, "faces": [["v", []], ["v", []]]},
        {"name": "g", "dim": 1, "faces": [["w", []], ["v", []]]},
        {"name": "t", "dim": 2, "faces": [["f", []], ["f", []], ["g", []]]},
    ],
}

BROKEN_DOCS = (
    BROKEN_AT_BASEPOINT_DOC,
    BROKEN_VIA_I_ONLY_DOC,
    BROKEN_AWAY_FROM_BASEPOINT_DOC,
)


def generator(space, name):
    """The generator of space called name."""
    (found,) = [g for g in space.generators if g.name == name]
    return found


def slot_at(s, i):
    """The slot on s's generator behind face i of s; no checks.

    s is a Simplex or a plain (word, base) pair. The caller knows that d_i s
    is the basepoint and s is not. Then d_i cancels no degeneracy, so
    neither i nor i - 1 is in the word, and each word index below i drops
    the face index by one on its way to the generator. This counts them
    directly, where the face rows take the index their walk through the
    word left, so it serves the tests as an oracle for the rows' slots.
    """
    word, base = s
    return ActionSlot(base, i - sum(1 for j in word if j < i))


def scan_size(space, dim_cap):
    """Number of simplices of dimensions 2..dim_cap, basepoint ones included.

    A generator of dim d has C(n, d) n-simplices, and the sum of C(n, d)
    over n = 2..dim_cap is C(dim_cap + 1, d + 1) - C(2, d + 1).
    """
    return sum(
        comb(dim_cap + 1, g.dim + 1) - comb(2, g.dim + 1) for g in space.generators
    )


def dual_numbers(field_doc="Q"):
    doc = dict(DUAL_DOC)
    doc["field"] = field_doc
    return parse_algebra(doc)


def cubic_truncation():
    return parse_algebra(CUBIC_DOC)


def scaled_cubic(field_doc="Q"):
    return parse_algebra(dict(SCALED_CUBIC_DOC, field=field_doc))


def ground_field():
    return parse_algebra(GROUND_DOC)


def negating_twist(algebra):
    """The algebra map x -> -x as a coordinate-column matrix."""
    d = algebra.dim
    cols = []
    for t in range(d):
        # basis element t is x^t in the truncation algebras used here
        sign = 1 if t % 2 == 0 else -1
        cols.append([sign if s == t else 0 for s in range(d)])
    # stored column-major: twist[s][t] = coord s of phi(e_t)
    return [[cols[t][s] for t in range(d)] for s in range(d)]


def coefficient_module(algebra, partition, kind):
    """regular / twisted / end coefficients keyed by the partition's classes."""
    ids = partition.class_ids
    if kind == "regular":
        module = multiplication_module(algebra, {cid: None for cid in ids})
    elif kind == "twisted":
        if len(ids) != 2:
            raise ValueError("twisted coefficients need exactly 2 classes")
        twist = negating_twist(algebra)
        module = multiplication_module(algebra, {ids[0]: None, ids[1]: twist})
    elif kind == "end":
        rho = multiplication_module(algebra, {"v": None}).actions["v"]
        module = endomorphism_module(algebra, rho, partition)
    else:
        raise ValueError(kind)
    validate_module(module, algebra, ids)
    return module


def identity_matrix(field, n):
    """The n x n identity over field."""
    return Matrix(field, n, n, {(i, i): 1 for i in range(n)})


def identity_module(field, m, keys):
    """dim-m module over the 1-dimensional algebra: every key acts trivially."""
    return MultiModule(m, {key: (identity_matrix(field, m),) for key in keys})


def space_and_partition(name):
    space = builtin_space(name)
    return space, sweep_closure(space)


def product_space(X, Y):
    """The document of X x Y (Eilenberg-Zilber), for parse_space or --space.

    The generators at level n are the pairs (x, y) of n-simplices with
    disjoint degeneracy words, named "(x,y)" by their labels. Face i of
    (x, y) is (u, v) = (d_i x, d_i y) = s_K (u', v'), where K holds the
    indices in both words: d_k for each k in K, largest first, strips s_K,
    and the face entry is [(u', v'), K in descending order].
    """

    def name(x, y):
        return f"({x.label()},{y.label()})"

    simplices = []
    for n in range(X.max_dim + Y.max_dim + 1):
        for x in X.simplices(n):
            for y in Y.simplices(n):
                if set(x.word) & set(y.word):
                    continue
                entry = {"name": name(x, y), "dim": n}
                if n:
                    faces = []
                    for i in range(n + 1):
                        u, v = X.face(x, i), Y.face(y, i)
                        common = sorted(set(u.word) & set(v.word), reverse=True)
                        for k in common:
                            u, v = X.face(u, k), Y.face(v, k)
                        faces.append([name(u, v), common])
                    entry["faces"] = faces
                simplices.append(entry)
    point = Simplex((), X.basepoint), Simplex((), Y.basepoint)
    return {"name": f"{X.name}-x-{Y.name}", "basepoint": name(*point), "simplices": simplices}


def random_f5_bimodules(count, seed=20240803):
    """Valid (algebra, module) pairs for the circle over F_5, d and m <= 2.

    Pairs of commuting square-zero actions of the dual numbers, found by
    rejection sampling, plus one trivial pair over the ground field.
    """
    rng = random.Random(seed)
    out = []
    f5 = {"Fp": 5}
    ground = parse_algebra({"field": f5, "basis": ["1"], "mul": [[[1]]]})
    g_mod = MultiModule(
        2,
        {
            "e.0": (identity_matrix(ground.field, 2),),
            "e.1": (identity_matrix(ground.field, 2),),
        },
    )
    validate_module(g_mod, ground, ["e.0", "e.1"])
    out.append((ground, g_mod))
    dual = dual_numbers(f5)
    F = dual.field
    while len(out) < count:
        m = rng.choice([1, 2])
        rows = lambda: [[rng.randrange(5) for _ in range(m)] for _ in range(m)]
        xl = Matrix.from_rows(F, rows())
        xr = Matrix.from_rows(F, rows())
        if (xl @ xl).entries or (xr @ xr).entries:
            continue
        if xl @ xr != xr @ xl:
            continue
        ident = identity_matrix(F, m)
        module = MultiModule(m, {"e.0": (ident, xl), "e.1": (ident, xr)})
        validate_module(module, dual, ["e.0", "e.1"])
        out.append((dual, module))
    return out


def square_zero_bimodule(p, rng):
    """(dual numbers over F_p, a module for the circle's classes e.0, e.1).

    As in the benchmark's circle-deep workload: x acts on the left as X =
    v w^T with w.v = 0 and every coordinate nonzero, and on the right as a
    nonzero multiple of X; rng draws v, w and the multiple.
    """
    algebra = parse_algebra(DUAL_DOC, field=PrimeField(p))
    a, b, c = (rng.randrange(1, p) for _ in range(3))
    d = -a * c * pow(b, -1, p) % p  # w.v = c a + d b = 0
    x = Matrix.from_rows(algebra.field, [[a * c, a * d], [b * c, b * d]])
    ident = identity_matrix(algebra.field, 2)
    module = MultiModule(
        2, {"e.0": (ident, x), "e.1": (ident, x.scale(rng.randrange(1, p)))}
    )
    validate_module(module, algebra, ["e.0", "e.1"])
    return algebra, module


def degenerate_columns(setup, n):
    """D^n: the columns (α, c) of C^n that some codegeneracy s^i, i < n,
    does not kill, those where α has the unit digit 0 at every position
    outside the image of s_i. N^n = ∩ ker s^i is spanned by the rest.

    The union over i of the assignments that are 0 off s_i's image, each
    formed whole; no codegeneracy mask is read.
    """
    d, m, top = setup.algebra.dim, setup.module.dim, setup.t[n] - 1
    out = set()
    for i in range(n):
        places = [d ** (top - q) for q in setup._degeneracy_positions(n, i)]
        for digits in itertools.product(range(d), repeat=len(places)):
            value = sum(t * place for t, place in zip(digits, places))
            out.update(value * m + c for c in range(m))
    return out


def merged_blocks(blocks):
    """The columns of all (weight, columns) blocks of _delta_blocks in one dict."""
    return {c: column for _, columns in blocks for c, column in columns.items()}


def diagonal_sources(t, top):
    """The source counts the diagonal hands CochainSetup._terms to degree
    top: t_n for each of δ_n's n + 2 cofaces, which the total complex of a
    product never matches."""
    return [t[n] for n in range(top + 1) for _ in range(n + 2)]


def direct_sum(*modules):
    """The block-diagonal sum of modules acting through the same class ids."""
    dims = [module.dim for module in modules]
    offsets = list(itertools.accumulate(dims, initial=0))
    m = offsets[-1]
    first = modules[0]
    actions = {}
    for key, mats in first.actions.items():
        field = mats[0].field
        actions[key] = tuple(
            Matrix(field, m, m, {
                (offset + r, offset + c): v
                for module, offset in zip(modules, offsets)
                for (r, c), v in module.actions[key][t].entries.items()
            })
            for t in range(len(mats))
        )
    return MultiModule(m, actions)


def reference_grading(algebra, module, most):
    """The weights of cochain._grading, back-substituted over Fraction.

    The same equations and elimination, then each unknown solved as a
    combination of the free ones in Fractions, and every tuple scaled by the
    lcm of all denominators: the solve the engine did before it kept
    integers throughout.
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
