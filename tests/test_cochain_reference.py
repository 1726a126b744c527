"""Cross-checks of the matrix assembly against a brute-force reference.

The reference implementations below recompute coface and codegeneracy
matrices directly from their defining evaluation rules, one (target, source)
basis pair at a time, with none of the engine's caching or expansion
shortcuts, and over plain numbers reduced mod p: they read the algebra's
structure constants and the module's action entries, and call no Matrix or
Algebra operation. Agreement on assorted setups pins the optimized assembly: the
coface and codegeneracy matrices, each differential against the alternating
sum of reference cofaces, and the rank the engine takes from the columns it
assembles against the rank of that differential. The cosimplicial
identities are also checked the slow way, as products of the engine's coface
and codegeneracy matrices, against the engine's check on simplices.
"""

import itertools
import json
from fractions import Fraction

import pytest

from helpers import (
    BALLOON_DOC,
    SCAN_LIKE_DOC,
    SLOTLESS_DOC,
    WEDGE_DOC,
    coefficient_module,
    cubic_truncation,
    degenerate_columns,
    dual_numbers,
    generator,
    ground_field,
    identity_matrix,
    identity_module,
    merged_blocks,
    product_space,
    reduced,
    scaled_cubic,
    space_and_partition,
)
from hhx import (
    CochainSetup,
    MultiModule,
    builtin_space,
    classical_hochschild_dims,
    multiplication_module,
    validate_module,
)
from hhx import cochain
from hhx.actions import ActionPartition, enumerate_slots, sweep_closure
from hhx.coeffalg import load_algebra, load_module
from hhx.errors import ValidationError
from hhx.exactlinalg import Matrix, _eliminate, field_from_text
from hhx.simplicial import SimplicialSpace, parse_space
from test_actions import (
    check_face_rows,
    level_tables,
    record_level_rows,
    slow_reduce_slot,
)
from test_cochain import record_calls
from test_golden import BUILTINS, GOLDEN, OVERRIDES


def dict_product(a, b, p):
    """The product of two matrices given as {(row, col): value} dicts."""
    out = {}
    for (r, k), x in a.items():
        for (l, c), y in b.items():
            if k == l:
                out[r, c] = reduced(out.get((r, c), 0) + x * y, p)
    return {key: v for key, v in out.items() if v}


def times_basis(alg, coords, t, p):
    """coords times basis element t, from the structure constants."""
    out = [0] * alg.dim
    for j, a in enumerate(coords):
        for s, c in enumerate(alg.mul[j][t]):
            out[s] = reduced(out[s] + a * c, p)
    return tuple(out)


def slow_coface(setup, n, i):
    space = setup.space
    alg = setup.algebra
    module = setup.module
    F = alg.field
    p = F.p
    d = alg.dim
    m = module.dim
    src = setup._levels[n][0]
    tgt = setup._levels[n + 1][0]
    entries = {}
    for bt in itertools.product(range(d), repeat=len(tgt)):
        composite = {(u, u): 1 for u in range(m)}
        for q, s in enumerate(tgt):
            face = space.face(s, i)
            if space.is_basepoint(face):
                slot = slow_reduce_slot(space, s, i)
                action = module.actions[setup.partition.class_of(slot)][bt[q]]
                composite = dict_product(composite, action.entries, p)
        grouped = []
        for source_simplex in src:
            coords = tuple(int(s == 0) for s in range(d))
            for q, s in enumerate(tgt):
                face = space.face(s, i)
                if not space.is_basepoint(face) and face == source_simplex:
                    coords = times_basis(alg, coords, bt[q], p)
            grouped.append(coords)
        row_value = 0
        for digit in bt:
            row_value = row_value * d + digit
        for bs in itertools.product(range(d), repeat=len(src)):
            coeff = 1
            for q, digit in enumerate(bs):
                coeff = reduced(coeff * grouped[q][digit], p)
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            col_value = 0
            for digit in bs:
                col_value = col_value * d + digit
            for (r, u), v in composite.items():
                entries[(row_value * m + r, col_value * m + u)] = reduced(coeff * v, p)
    return Matrix(F, setup.hom_dims[n + 1], setup.hom_dims[n], entries)


def slow_codegeneracy(setup, n, i):
    space = setup.space
    F = setup.algebra.field
    d = setup.algebra.dim
    m = setup.module.dim
    src = setup._levels[n][0]
    up = setup._levels[n + 1][0]
    entries = {}
    for b in itertools.product(range(d), repeat=len(src)):
        argument = []
        for target in up:
            hits = [
                b[q]
                for q, s in enumerate(src)
                if space.degeneracy(s, i) == target
            ]
            assert len(hits) <= 1
            argument.append(hits[0] if hits else 0)
        row_value = 0
        for digit in b:
            row_value = row_value * d + digit
        col_value = 0
        for digit in argument:
            col_value = col_value * d + digit
        for u in range(m):
            entries[(row_value * m + u, col_value * m + u)] = 1
    return Matrix(F, setup.hom_dims[n], setup.hom_dims[n + 1], entries)


def slow_check_cosimplicial_identities(setup):
    """The identity check as products of coface and codegeneracy matrices."""
    failures = []
    N = setup.max_degree
    for n in range(N):
        for j in range(1, n + 3):
            for i in range(j):
                lhs = setup.coface(n + 1, j) @ setup.coface(n, i)
                rhs = setup.coface(n + 1, i) @ setup.coface(n, j - 1)
                if lhs != rhs:
                    failures.append({"relation": "a", "n": n, "i": i, "j": j})
    for n in range(1, N + 1):
        for i in range(1, n + 1):
            for j in range(i):
                lhs = setup.codegeneracy(n - 1, j) @ setup.codegeneracy(n, i)
                rhs = setup.codegeneracy(n - 1, i - 1) @ setup.codegeneracy(n, j)
                if lhs != rhs:
                    failures.append({"relation": "b", "n": n, "i": i, "j": j})
    for n in range(N + 1):
        for i in range(n + 2):
            for j in range(n + 1):
                lhs = setup.codegeneracy(n, j) @ setup.coface(n, i)
                if i == j or i == j + 1:
                    rhs = identity_matrix(setup.algebra.field, setup.hom_dims[n])
                elif i < j:
                    rhs = setup.coface(n - 1, i) @ setup.codegeneracy(n - 1, j - 1)
                else:
                    rhs = setup.coface(n - 1, i - 1) @ setup.codegeneracy(n - 1, j)
                if lhs != rhs:
                    failures.append({"relation": "c", "n": n, "i": i, "j": j})
    return failures


def dual_numbers_f5():
    return dual_numbers({"Fp": 5})


def scaled_cubic_f5():
    return scaled_cubic({"Fp": 5})


REFERENCE_SETUPS = [
    ("circle", dual_numbers, "twisted", 2),
    ("circle", cubic_truncation, "regular", 2),
    ("circle", scaled_cubic, "twisted", 2),
    ("circle", scaled_cubic_f5, "regular", 2),
    ("sphere2", dual_numbers, "end", 2),
    ("pinched-torus", dual_numbers, "twisted", 1),
    ("torus", dual_numbers, "regular", 1),
    ("torus", dual_numbers_f5, "regular", 1),
    ("torus", dual_numbers_f5, "end", 1),
    ("sphere4", dual_numbers_f5, "regular", 4),
]


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_cofaces_match_reference(name, alg_fn, kind, top):
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    setup = CochainSetup(space, algebra, module, partition, top)
    for n in range(top + 1):
        for i in range(n + 2):
            assert setup.coface(n, i) == slow_coface(setup, n, i), (name, n, i)


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_codegeneracies_match_reference(name, alg_fn, kind, top):
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    setup = CochainSetup(space, algebra, module, partition, top)
    for n in range(top + 1):
        for i in range(n + 1):
            assert setup.codegeneracy(n, i) == slow_codegeneracy(setup, n, i), (
                name,
                n,
                i,
            )


def test_override_cofaces_match_reference():
    algebra = dual_numbers()
    space, partition = space_and_partition("sphere2")
    twist = [[1, 0], [0, -1]]
    module = multiplication_module(
        algebra, {"sigma.0": None, "sigma.1": twist, "sigma.2": twist}
    )
    per_slot = ActionPartition(partition.slots, ())
    setup = CochainSetup(space, algebra, module, per_slot, 2)
    for n in range(3):
        for i in range(n + 2):
            assert setup.coface(n, i) == slow_coface(setup, n, i)


# -- differentials and the engine's rank ---------------------------------------


def slow_differential(setup, n):
    """Σ (-1)^i of the reference cofaces out of degree n."""
    total = slow_coface(setup, n, 0)
    for i in range(1, n + 2):
        term = slow_coface(setup, n, i)
        total = total + (term.scale(-1) if i % 2 else term)
    return total


def engine_rank(setup, n):
    """rank δ_n as cohomology_dims takes it: from the assembled columns."""
    columns = merged_blocks(setup._delta_blocks(n))
    return len(_eliminate(columns, setup.algebra.field.p))


def check_differentials(setup, degrees):
    for n in degrees:
        delta = setup.differential(n)
        assert delta == slow_differential(setup, n), n
        assert engine_rank(setup, n) == delta.rank(), n


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_differentials_match_reference(name, alg_fn, kind, top):
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    setup = CochainSetup(space, algebra, module, partition, top)
    check_differentials(setup, range(top + 1))


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_delta_block_columns_are_reduced_and_sum_the_reference_cofaces(
    name, alg_fn, kind, top
):
    # the columns go into the elimination as they are, with no Matrix to
    # reduce them, so every stored entry must already be a nonzero residue
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    setup = CochainSetup(space, algebra, module, partition, top)
    p = algebra.field.p
    stored = 0
    for n in range(top + 1):
        blocks = list(setup._delta_blocks(n))
        values = [v for _, columns in blocks for column in columns.values()
                  for v in column.values()]
        stored += len(values)
        if p:
            assert all(type(v) is int and 0 < v < p for v in values), n
        else:
            assert all(v != 0 for v in values), n
        entries = {
            (r, c): v for c, column in merged_blocks(blocks).items()
            for r, v in column.items()
        }
        assert entries == slow_differential(setup, n).entries, n
    assert stored > 0


def zero_module_setup():
    """m = 0 over the dual numbers on the circle: every hom space is 0."""
    algebra = dual_numbers()
    space, partition = space_and_partition("circle")
    empty = Matrix(algebra.field, 0, 0)
    module = MultiModule(0, {cid: (empty, empty) for cid in partition.class_ids})
    return CochainSetup(space, algebra, module, partition, 2)


def point_space_setup():
    """d = 1: the point space over k, t = 0 in every degree."""
    point = parse_space(
        {"name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}]}
    )
    algebra = ground_field()
    partition = ActionPartition(enumerate_slots(point), ())
    module = identity_module(algebra.field, 1, ())
    return CochainSetup(point, algebra, module, partition, 4)


def fraction_module_setup():
    """x acts by [[0, 1/2], [0, 0]] and [[0, -2/3], [0, 0]] on the circle's classes."""
    algebra = dual_numbers()
    F = algebra.field
    space, partition = space_and_partition("circle")
    ident = identity_matrix(F, 2)
    module = MultiModule(
        2,
        {
            cid: (ident, Matrix(F, 2, 2, {(0, 1): k}))
            for cid, k in zip(partition.class_ids, (Fraction(1, 2), Fraction(-2, 3)))
        },
    )
    validate_module(module, algebra, partition.class_ids)
    return CochainSetup(space, algebra, module, partition, 3)


@pytest.mark.parametrize(
    "make", [zero_module_setup, point_space_setup, fraction_module_setup],
    ids=["m=0", "point-over-k", "Q-fractions"],
)
def test_edge_setups_match_reference(make):
    setup = make()
    top = setup.max_degree
    for n in range(top + 1):
        for i in range(n + 2):
            assert setup.coface(n, i) == slow_coface(setup, n, i), (n, i)
        for i in range(n + 1):
            assert setup.codegeneracy(n, i) == slow_codegeneracy(setup, n, i), (n, i)
    check_differentials(setup, range(top + 1))


def test_fraction_module_differentials_hold_fractions():
    setup = fraction_module_setup()
    values = setup.differential(1).entries.values()
    assert any(isinstance(v, Fraction) for v in values)
    assert setup.cohomology_dims() == classical_hochschild_dims(
        setup.algebra, setup.module, "e.0", "e.1", 3
    )


# -- the identity check on simplices against matrix products ------------------


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_identity_check_matches_matrix_products(name, alg_fn, kind, top):
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    setup = CochainSetup(space, algebra, module, partition, top)
    expected = slow_check_cosimplicial_identities(setup)
    assert setup.check_cosimplicial_identities() == expected


def golden_setup(name, override, field=None):
    """The setup behind a golden cohomology case (see test_golden.py), with
    the algebra read over field (Q or F<p>) if given."""
    return CochainSetup(*golden_inputs(name, override, field))


def golden_inputs(name, override, field=None):
    """(space, algebra, module, partition, top) of a golden cohomology case."""
    space = builtin_space(name)
    algebra = load_algebra(
        str(GOLDEN / "dual-q.json"), field=field and field_from_text(field)
    )
    if override:
        partition = ActionPartition(enumerate_slots(space), ())
        module_path, top = GOLDEN / f"override-{name}.json", 2
    else:
        partition = sweep_closure(space)
        module_path, top = GOLDEN / f"regular-{name}.json", BUILTINS[name]
    module = load_module(str(module_path), algebra, partition)
    return space, algebra, module, partition, top


@pytest.mark.parametrize(
    "name,override",
    [(name, False) for name in BUILTINS] + [(name, True) for name in OVERRIDES],
)
def test_identity_check_matches_matrix_products_on_golden_setups(name, override):
    setup = golden_setup(name, override)
    expected = slow_check_cosimplicial_identities(setup)
    assert (expected != []) == override
    assert setup.check_cosimplicial_identities() == expected


@pytest.mark.parametrize(
    "name,override",
    [(name, False) for name in BUILTINS] + [(name, True) for name in OVERRIDES],
)
def test_differentials_match_reference_on_golden_setups(name, override):
    setup = golden_setup(name, override)
    # the reference visits every (target, source) basis pair
    degrees = [
        n for n in range(setup.max_degree + 1)
        if setup.hom_dims[n + 1] * setup.hom_dims[n] <= 2**12
    ]
    assert degrees
    check_differentials(setup, degrees)


@pytest.mark.parametrize(
    "name,override",
    [(name, False) for name in BUILTINS] + [(name, True) for name in OVERRIDES],
)
def test_golden_report_reads_faces_only_from_the_setup_rows(monkeypatch, name, override):
    setup = golden_setup(name, override)

    def no_face(space, s, i):
        raise AssertionError(f"face {i} of {s!r} asked for after construction")

    # the cofaces and the identity check read the rows construction built
    monkeypatch.setattr(SimplicialSpace, "face", no_face)
    case = f"cohomology-{name}{'-override' if override else ''}-json"
    assert setup.report() == json.loads((GOLDEN / f"{case}.out").read_text())


@pytest.mark.parametrize(
    "name,override",
    [(name, False) for name in BUILTINS] + [(name, True) for name in OVERRIDES],
)
def test_identity_verdict_is_scanned_once_and_guards_cohomology(
    monkeypatch, name, override
):
    inputs = golden_inputs(name, override)
    levels = record_level_rows(monkeypatch, cochain)
    scanned = record_calls(monkeypatch, cochain, "row_pairs")
    setup = CochainSetup(*inputs)
    report = setup.report()
    # construction builds the face rows of each level 1..N + 1 once, in
    # order, and report() builds none: the check reads the cofaces' rows
    tables = level_tables(levels)
    assert check_face_rows(setup.space, tables) == sum(
        (n + 1) * t for n, t in enumerate(setup.t) if n
    )
    scans = [simplices for simplices, _, _ in tables]
    assert [len(simplices) for simplices in scans] == setup.t[1:]
    assert all(s.dim == n for n, level in enumerate(scans, 1) for s in level)
    assert (report["identities"] != "pass") == override
    assert ("hh_dims" in report) != override
    if override:
        # δδ ≠ 0 here, so a cleared rank would be meaningless
        with pytest.raises(ValidationError, match="cosimplicial identities fail"):
            setup.cohomology_dims()
        assert setup.check_cosimplicial_identities() == report["identities"]
    else:
        assert setup.cohomology_dims() == report["hh_dims"]
    assert len(tables) == len(scans) == setup.max_degree + 1
    assert setup._levels == levels
    # the identity verdict is scanned once: one row_pairs call per level
    # 2..N + 1, through report(), cohomology_dims() and the repeated check
    assert [len(rows) for _, rows, _ in scanned] == setup.t[2:]
    assert len(scanned) == setup.max_degree


def check_clearing(setup):
    """rank δ_n from its columns outside δ_{n-1}'s pivots against the rank
    from all its columns, for n >= 1, and the HH that cohomology_dims takes
    from δ on the normalized cochains, cleared, against the HH of the ranks
    of the whole δ_n on all of C^n. Returns the number of left-out columns
    that hold nonzeros."""
    p = setup.algebra.field.p
    dropped = 0
    pivots = _eliminate(merged_blocks(setup._delta_blocks(0)), p)
    ranks = [len(pivots)]
    for n in range(1, setup.max_degree + 1):
        full = merged_blocks(setup._delta_blocks(n))
        dropped += sum(1 for j in pivots if full.get(j))
        cleared = merged_blocks(setup._delta_blocks(n, pivots))
        assert not pivots & cleared.keys(), n
        pivots = _eliminate(full, p)
        ranks.append(len(pivots))
        assert len(_eliminate(cleared, p)) == ranks[n], n
    whole = cochain._dims_from_ranks(ranks, setup.hom_dims)
    assert setup.cohomology_dims() == whole
    return dropped


def test_clearing_keeps_every_rank():
    setups = {}
    for name, alg_fn, kind, top in REFERENCE_SETUPS:
        algebra = alg_fn()
        space, partition = space_and_partition(name)
        module = coefficient_module(algebra, partition, kind)
        setups[name, alg_fn.__name__, kind] = CochainSetup(
            space, algebra, module, partition, top
        )
    # clearing needs δδ = 0; the override goldens fail the identities, so
    # only the class-keyed golden setups join
    for name in BUILTINS:
        setups["golden", name] = golden_setup(name, False)
    dropped = {label: check_clearing(setup) for label, setup in setups.items()}
    # some left-out columns are nonzero, so leaving out the wrong ones shows
    assert sum(dropped.values()) > 0, dropped


@pytest.mark.parametrize("name,alg_fn,kind,top", REFERENCE_SETUPS)
def test_degenerate_columns_are_those_some_reference_codegeneracy_keeps(
    name, alg_fn, kind, top
):
    # N^n = ∩ ker s^i, and each s^i sends a basis column to a basis column
    # or to zero, so D^n is the set of columns where some s^i is nonzero
    setup = reference_setup(name, alg_fn, kind, top)
    for n in range(top + 2):
        kept = {
            c for i in range(n) for _, c in slow_codegeneracy(setup, n - 1, i).entries
        }
        assert degenerate_columns(setup, n) == kept, n


def reference_setup(name, alg_fn, kind, top):
    algebra = alg_fn()
    space, partition = space_and_partition(name)
    module = coefficient_module(algebra, partition, kind)
    return CochainSetup(space, algebra, module, partition, top)


@pytest.mark.parametrize(
    "make,args",
    [(reference_setup, args) for args in REFERENCE_SETUPS]
    + [(golden_setup, (name, False)) for name in BUILTINS],
    ids=[f"{name}-{kind}-{alg_fn.__name__}" for name, alg_fn, kind, _ in REFERENCE_SETUPS]
    + [f"golden-{name}" for name in BUILTINS],
)
def test_blockwise_ranks_match_the_whole_delta(make, args):
    setup = make(*args)
    p = setup.algebra.field.p
    for n in range(setup.max_degree + 1):
        whole = merged_blocks(setup._delta_blocks(n))
        blocks = list(setup._delta_blocks(n))
        # the blocks split the columns of δ_n and share no row
        rows = [{r for column in columns.values() for r in column} for _, columns in blocks]
        assert sum(len(columns) for _, columns in blocks) == len(whole), n
        assert sum(map(len, rows)) == len(set().union(*rows)), n
        blockwise = sum(len(_eliminate(columns, p)) for _, columns in blocks)
        assert blockwise == len(_eliminate(whole, p)), n


# every reference setup, and each class-keyed golden setup over Q, F_2, F_5
NORMALIZED_CASES = [(reference_setup, args) for args in REFERENCE_SETUPS] + [
    (golden_setup, (name, False, field))
    for name in BUILTINS for field in ("Q", "F2", "F5")
]
NORMALIZED_IDS = [
    f"{name}-{kind}-{alg_fn.__name__}" for name, alg_fn, kind, _ in REFERENCE_SETUPS
] + [f"golden-{name}-{field}" for name in BUILTINS for field in ("Q", "F2", "F5")]


@pytest.mark.parametrize("make,args", NORMALIZED_CASES, ids=NORMALIZED_IDS)
def test_counted_normalized_dims_leave_out_the_degenerate_columns(
    monkeypatch, make, args
):
    # dim N^n is the binomial inversion of the hom dims (cosimplicial
    # Dold-Kan), and a column's mask is decoded from its index for the pivot
    # guard; both against the D^n oracle, which forms each degenerate column
    # whole
    setup = make(*args)
    d, m = setup.algebra.dim, setup.module.dim
    calls = record_calls(monkeypatch, cochain, "_dims_from_ranks")
    setup.cohomology_dims()
    dims = calls[-1][1]
    assert len(dims) == setup.max_degree + 1
    for n in range(setup.max_degree + 2):
        degenerate = degenerate_columns(setup, n)
        if n <= setup.max_degree:
            assert dims[n] == setup.hom_dims[n] - len(degenerate), n
        if setup.hom_dims[n] <= 2**12:
            masks = setup._masks(n)
            decoded = {
                j for j in range(setup.hom_dims[n])
                if cochain._column_mask(j // m, d, *masks)
            }
            assert decoded == degenerate, n


def check_normalized_blocks(setup, kept=None):
    """cohomology_dims' blocks: δ_n formed on N^n only, cleared of δ_{n-1}'s
    pivots and, given kept, formed only at those module indices, against
    the reference δ_n with the columns of D^n, the pivots and every other
    module index left out."""
    p = setup.algebra.field.p
    m = setup.module.dim
    indices = range(m) if kept is None else kept
    pivots = set()
    checked = []
    for n in range(setup.max_degree + 1):
        blocks = list(setup._delta_blocks(n, pivots, setup._masks(n), kept))
        # the reference visits every (target, source) basis pair
        if setup.hom_dims[n + 1] * setup.hom_dims[n] <= 2**15:
            left_out = degenerate_columns(setup, n) | pivots
            expected = {
                (r, c): v for (r, c), v in slow_differential(setup, n).entries.items()
                if c not in left_out and c % m in indices
            }
            entries = {
                (r, c): v for c, column in merged_blocks(blocks).items()
                for r, v in column.items()
            }
            assert entries == expected, n
            # a summand's rows are its own
            assert all(r % m in indices for r, _ in entries), n
            checked.append(n)
        pivots = set().union(*(_eliminate(columns, p) for _, columns in blocks))
    # every setup has a degree n >= 1, with pivots and D^n to leave out
    assert checked[-1] >= 1, checked


@pytest.mark.parametrize("make,args", NORMALIZED_CASES, ids=NORMALIZED_IDS)
def test_normalized_blocks_are_the_reference_delta_off_d_and_the_pivots(make, args):
    check_normalized_blocks(make(*args))


@pytest.mark.parametrize("make,args", NORMALIZED_CASES, ids=NORMALIZED_IDS)
def test_restricted_blocks_are_the_reference_delta_at_the_representatives(make, args):
    # kept as cohomology_dims passes it: one representative of each group
    # of identical summands. The one-class "end" setups keep one of two
    # summands (test_summands checks their copies); the others keep every
    # index
    setup = make(*args)
    check_normalized_blocks(setup, {c for c, k in enumerate(setup._copies) if k})


# top degree of each space in the per-slot module draws
PER_SLOT_TOPS = {"circle": 4, "sphere2": 3, "sphere3": 3, "torus": 2, "pinched-torus": 2}


def per_slot_setup(name, scales):
    """x acts as k X on slot number q, k = scales[q], X = [[0, 1], [0, 0]]."""
    space = builtin_space(name)
    algebra = dual_numbers()
    F = algebra.field
    partition = ActionPartition(enumerate_slots(space), ())
    ident = identity_matrix(F, 2)
    module = MultiModule(
        2,
        {
            cid: (ident, Matrix(F, 2, 2, {(0, 1): k}))
            for cid, k in zip(partition.class_ids, scales)
        },
    )
    validate_module(module, algebra, partition.class_ids)
    return CochainSetup(space, algebra, module, partition, PER_SLOT_TOPS[name])


def test_identity_check_matches_matrix_products_on_per_slot_modules():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(PER_SLOT_TOPS)))
        slots = len(enumerate_slots(builtin_space(name)))
        scales = data.draw(st.lists(st.sampled_from([1, 2]), min_size=slots, max_size=slots))
        setup = per_slot_setup(name, scales)
        expected = slow_check_cosimplicial_identities(setup)
        assert setup.check_cosimplicial_identities() == expected

    check()


# -- known cohomology values ---------------------------------------------------


def test_cubic_truncation_circle_known_dims():
    # for a truncated polynomial algebra of length 3 in characteristic 0 the
    # periodic resolution gives HH^0 = 3 and HH^n = 2 for n >= 1
    algebra = cubic_truncation()
    space, partition = space_and_partition("circle")
    module = coefficient_module(algebra, partition, "regular")
    setup = CochainSetup(space, algebra, module, partition, 3)
    dims = setup.cohomology_dims()
    assert dims == [3, 2, 2, 2]
    assert dims == classical_hochschild_dims(algebra, module, "e.0", "e.1", 3)


def test_characteristic_two_circle_dims():
    # in characteristic 2 the dual-number differentials vanish entirely, so
    # every degree contributes the full module
    algebra = dual_numbers({"Fp": 2})
    space, partition = space_and_partition("circle")
    module = coefficient_module(algebra, partition, "regular")
    setup = CochainSetup(space, algebra, module, partition, 3)
    dims = setup.cohomology_dims()
    assert dims == [2, 2, 2, 2]
    assert dims == classical_hochschild_dims(algebra, module, "e.0", "e.1", 3)


# -- non-builtin spaces --------------------------------------------------------


def position_masks(setup, n):
    """_masks(n)'s images rebuilt from where each s_i, i < n, lands in level
    n (_degeneracy_positions, which raises InternalError where an image is
    missing or two coincide)."""
    images = [0] * setup.t[n]
    for i in range(n):
        for q in setup._degeneracy_positions(n, i):
            images[q] |= 1 << i
    return images


def ground_setup(doc, top):
    """The space of doc over k, with every class acting trivially on k."""
    space = parse_space(doc)
    partition = sweep_closure(space)
    algebra = ground_field()
    module = identity_module(algebra.field, 1, partition.class_ids)
    return CochainSetup(space, algebra, module, partition, top)


WORD_MASK_DOCS = (WEDGE_DOC, BALLOON_DOC, SCAN_LIKE_DOC, SLOTLESS_DOC)


@pytest.mark.parametrize(
    "make,args",
    NORMALIZED_CASES + [(ground_setup, (doc, 5)) for doc in WORD_MASK_DOCS],
    ids=NORMALIZED_IDS + [doc["name"] for doc in WORD_MASK_DOCS],
)
def test_word_masks_are_the_degeneracy_images(make, args):
    # s_i hits a simplex exactly when i is in its degeneracy word
    # (Eilenberg-Zilber), so _masks reads the words; against the masks
    # built from where each s_i lands, to level N + 1
    setup = make(*args)
    for n in range(setup.max_degree + 2):
        every, images = setup._masks(n)
        assert every == (1 << n) - 1, n
        assert images == position_masks(setup, n), n


def test_wedge_four_classes_identities_hold():
    from hhx.actions import paranoid_closure

    space = parse_space(WEDGE_DOC)
    partition = sweep_closure(space)
    assert partition.class_count == 4
    assert paranoid_closure(space, 4).same_classes(partition)
    algebra = dual_numbers()
    module = coefficient_module(algebra, partition, "regular")
    setup = CochainSetup(space, algebra, module, partition, 2)
    assert setup.t == [0, 2, 4, 6]
    assert setup.check_cosimplicial_identities() == []
    for n in range(2):
        assert not (setup.differential(n + 1) @ setup.differential(n)).entries


def test_balloon_space_with_degenerate_face_target():
    from hhx.actions import paranoid_closure

    space = parse_space(BALLOON_DOC)
    z = generator(space, "Z")
    assert z.faces[0].word and not space.is_basepoint(z.faces[0])
    partition = sweep_closure(space)
    assert [s.id for s in partition.slots] == ["f.1"]
    assert partition.class_count == 1
    assert paranoid_closure(space, 4).same_classes(partition)
    algebra = dual_numbers()
    module = coefficient_module(algebra, partition, "regular")
    setup = CochainSetup(space, algebra, module, partition, 2)
    assert setup.check_cosimplicial_identities() == []
    for n in range(2):
        assert not (setup.differential(n + 1) @ setup.differential(n)).entries
    for n in range(2):
        for i in range(n + 2):
            assert setup.coface(n, i) == slow_coface(setup, n, i)


# face tables where a face of a non-basepoint simplex is a degenerate simplex
# over a non-basepoint generator, which no builtin has: the balloon's Z
# (face 0 is s0 q), and the 3-cells of circle x sphere2 (faces s0 or s1
# over (e,s0.pt))
CIRCLE_TIMES_SPHERE2 = product_space(builtin_space("circle"), builtin_space("sphere2"))
DEGENERATE_FACE_SETUPS = [
    (BALLOON_DOC, dual_numbers, 2),
    (BALLOON_DOC, dual_numbers_f5, 2),
    (CIRCLE_TIMES_SPHERE2, dual_numbers, 1),
    (CIRCLE_TIMES_SPHERE2, ground_field, 3),
]


@pytest.mark.parametrize(
    "doc,alg_fn,top", DEGENERATE_FACE_SETUPS,
    ids=[f"{doc['name']}-{alg_fn.__name__}" for doc, alg_fn, _ in DEGENERATE_FACE_SETUPS],
)
def test_operators_on_degenerate_faces_match_reference(doc, alg_fn, top):
    space = parse_space(doc)
    assert any(
        f.word and not space.is_basepoint(f) for g in space.generators for f in g.faces
    )
    partition = sweep_closure(space)
    algebra = alg_fn()
    module = coefficient_module(algebra, partition, "regular")
    setup = CochainSetup(space, algebra, module, partition, top)
    for n in range(top + 1):
        for i in range(n + 2):
            assert setup.coface(n, i) == slow_coface(setup, n, i), (n, i)
        for i in range(n + 1):
            assert setup.codegeneracy(n, i) == slow_codegeneracy(setup, n, i), (n, i)
    check_differentials(setup, range(top + 1))
    expected = slow_check_cosimplicial_identities(setup)
    assert setup.check_cosimplicial_identities() == expected == []
