import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from helpers import (
    BROKEN_AT_BASEPOINT_DOC,
    BROKEN_AWAY_FROM_BASEPOINT_DOC,
    CUBIC_DOC,
    DUAL_DOC,
    coefficient_module,
    cubic_truncation,
    degenerate_columns,
    dual_numbers,
    ground_field,
    identity_matrix,
    identity_module,
    random_f5_bimodules,
    space_and_partition,
    square_zero_bimodule,
)
from hhx import (
    CochainSetup,
    MultiModule,
    classical_hochschild_dims,
    cochain,
    multiplication_module,
    parse_algebra,
    validate_module,
)
from hhx.actions import enumerate_slots, paranoid_visits, partition_from_pairs
from hhx.cochain import FACE_LIMIT, _grading
from hhx.errors import BudgetError, InternalError, ValidationError
from hhx.exactlinalg import Matrix, QQ, _eliminate
from hhx.simplicial import parse_space


def make_setup(space_name, algebra, kind, max_degree, **kw):
    space, partition = space_and_partition(space_name)
    module = coefficient_module(algebra, partition, kind)
    return CochainSetup(space, algebra, module, partition, max_degree, **kw)


def record_calls(monkeypatch, owner, name):
    """The argument tuples of every later call to owner.name (self first)."""
    calls = []
    original = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


# -- hom spaces ---------------------------------------------------------------


def test_circle_hom_dimensions():
    setup = make_setup("circle", dual_numbers(), "regular", 4)
    assert setup.t == [0, 1, 2, 3, 4, 5]
    assert setup.hom_dims == [2, 4, 8, 16, 32, 64]


def test_sphere2_hom_dimensions():
    setup = make_setup("sphere2", dual_numbers(), "regular", 3)
    assert setup.t[:5] == [0, 0, 1, 3][:4] + [setup.t[4]]
    assert setup.hom_dims[3] == 16


def test_zero_module_hom_dimensions():
    space, partition = space_and_partition("circle")
    alg = dual_numbers()
    module = identity_module(alg.field, 0, partition.class_ids)
    # identity_module builds 0x0 identities here
    setup = CochainSetup(space, alg, module, partition, 3)
    assert setup.hom_dims == [0] * 5
    assert setup.cohomology_dims() == [0, 0, 0, 0]


def test_degree_out_of_range():
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    with pytest.raises(ValueError):
        setup.codegeneracy(3, 0)
    with pytest.raises(ValueError):
        setup.differential(-1)
    with pytest.raises(ValueError):
        setup.coface(3, 0)
    with pytest.raises(ValueError):
        setup.coface(0, 3)


def test_budget_error_reports_degree_and_dimension():
    with pytest.raises(BudgetError) as info:
        make_setup("torus", dual_numbers(), "regular", 5)
    assert info.value.degree == 4
    assert info.value.dimension == 2 * 2**24
    assert str(info.value) == (
        "hom-space in degree 4 has dimension 33554432, "
        "exceeding the budget of 200000 columns"
    )


@pytest.mark.parametrize(
    "space_name,alg,m,top,visits",
    [
        ("circle", ground_field(), 1, 80, "5604740"),
        # t reaches C(401, 200) > 10^118, so d^t must not be formed
        ("sphere200", dual_numbers(), 0, 400, r"\d{120,}"),
    ],
    ids=["circle-over-k", "sphere200-zero-module"],
)
def test_identity_visits_above_limit_is_budget_error(
    monkeypatch, space_name, alg, m, top, visits
):
    # over k, or with a 0-dimensional module, every hom dim is m, so only
    # the visit count can trip
    space, partition = space_and_partition(space_name)
    module = identity_module(alg.field, m, partition.class_ids)
    simplices = record_calls(monkeypatch, type(space), "simplices")
    with pytest.raises(BudgetError, match=f"would visit {visits} simplices"):
        CochainSetup(space, alg, module, partition, top)
    assert simplices == []


def test_max_degree_must_be_positive():
    with pytest.raises(ValidationError):
        make_setup("circle", dual_numbers(), "regular", 0)


# -- coface and codegeneracy matrices -----------------------------------------


def test_circle_degree_zero_cofaces_are_actions():
    setup = make_setup("circle", dual_numbers(), "twisted", 3)
    module = setup.module
    for i, cid in ((0, "e.0"), (1, "e.1")):
        mat = setup.coface(0, i)
        assert mat.rows == 4 and mat.cols == 2
        for t in range(2):
            block = module.actions[cid][t]
            for u_out in range(2):
                for u_in in range(2):
                    assert mat.get(t * 2 + u_out, u_in) == block.get(u_out, u_in)


def test_ground_field_cofaces_are_identity():
    space, partition = space_and_partition("torus")
    alg = ground_field()
    module = identity_module(alg.field, 3, partition.class_ids)
    setup = CochainSetup(space, alg, module, partition, 3)
    for n in range(3):
        for i in range(n + 2):
            assert setup.coface(n, i) == identity_matrix(QQ, 3)
        for i in range(n + 1):
            assert setup.codegeneracy(n, i) == identity_matrix(QQ, 3)


def test_circle_codegeneracy_evaluates_at_unit():
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    s0 = setup.codegeneracy(0, 0)
    assert s0.rows == 2 and s0.cols == 4
    # f maps to f(1): unit assignment has value 0, so columns 0..m-1
    assert s0 == Matrix(QQ, 2, 4, {(0, 0): 1, (1, 1): 1})


def test_codegeneracy_after_coface_is_identity():
    for name in ("circle", "sphere2", "pinched-torus"):
        setup = make_setup(name, dual_numbers(), "regular", 2)
        for n in range(3):
            for i in range(n + 1):
                ident = identity_matrix(QQ, setup.hom_dims[n])
                assert setup.codegeneracy(n, i) @ setup.coface(n, i) == ident
                assert setup.codegeneracy(n, i) @ setup.coface(n, i + 1) == ident


def test_matrix_shapes_match_hom_dimensions():
    setup = make_setup("pinched-torus", dual_numbers(), "regular", 2)
    for n in range(3):
        for i in range(n + 2):
            mat = setup.coface(n, i)
            assert (mat.rows, mat.cols) == (
                setup.hom_dims[n + 1],
                setup.hom_dims[n],
            )
        for i in range(n + 1):
            mat = setup.codegeneracy(n, i)
            assert (mat.rows, mat.cols) == (
                setup.hom_dims[n],
                setup.hom_dims[n + 1],
            )


# -- differentials ------------------------------------------------------------


def test_symmetric_circle_differential_zero():
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    assert not setup.differential(0).entries


def test_twisted_circle_differential_rank_one():
    setup = make_setup("circle", dual_numbers(), "twisted", 2)
    d0 = setup.differential(0)
    assert (d0.rows, d0.cols) == (4, 2)
    assert d0.rank() == 1


def test_ground_field_differentials_alternate():
    space, partition = space_and_partition("sphere3")
    alg = ground_field()
    module = identity_module(alg.field, 2, partition.class_ids)
    setup = CochainSetup(space, alg, module, partition, 3)
    for n in range(4):
        delta = setup.differential(n)
        if n % 2 == 0:
            assert not delta.entries
        else:
            assert delta == identity_matrix(QQ, 2)


def test_differential_squares_to_zero():
    for name, alg, kind, top in (
        ("circle", dual_numbers(), "twisted", 3),
        ("sphere2", cubic_truncation(), "regular", 3),
        ("pinched-torus", dual_numbers(), "end", 2),
    ):
        setup = make_setup(name, alg, kind, top)
        for n in range(top):
            assert not (setup.differential(n + 1) @ setup.differential(n)).entries


# -- cosimplicial identities ---------------------------------------------------


LIGHT_COMBOS = [
    ("circle", "regular"),
    ("circle", "twisted"),
    ("circle", "end"),
    ("sphere2", "regular"),
    ("sphere2", "end"),
    ("sphere3", "regular"),
    ("pinched-torus", "regular"),
    ("pinched-torus", "twisted"),
    ("pinched-torus", "end"),
]


@pytest.mark.parametrize("space_name,kind", LIGHT_COMBOS)
def test_identities_hold_dual_numbers(space_name, kind):
    setup = make_setup(space_name, dual_numbers(), kind, 2)
    assert setup.check_cosimplicial_identities() == []


@pytest.mark.parametrize(
    "space_name,kind",
    [("circle", "twisted"), ("circle", "end"), ("sphere2", "regular"),
     ("sphere3", "regular")],
)
def test_identities_hold_cubic_truncation(space_name, kind):
    # d = 3 keeps hom spaces within budget only on the small builtins
    setup = make_setup(space_name, cubic_truncation(), kind, 2)
    assert setup.check_cosimplicial_identities() == []


def test_identities_hold_circle_higher_degree():
    setup = make_setup("circle", dual_numbers(), "end", 3)
    assert setup.check_cosimplicial_identities() == []


def test_override_slots_breaks_identity_a():
    space, partition = space_and_partition("sphere2")
    alg = dual_numbers()
    twist = [[1, 0], [0, -1]]
    unequal = multiplication_module(
        alg, {"sigma.0": None, "sigma.1": None, "sigma.2": twist}
    )
    per_slot = partition_from_pairs(partition.slots, ())
    setup = CochainSetup(space, alg, unequal, per_slot, 2)
    failures = setup.check_cosimplicial_identities()
    assert {"relation": "a", "n": 0, "i": 0, "j": 2} in failures
    assert all(f["relation"] == "a" for f in failures)

    equal = multiplication_module(
        alg, {"sigma.0": None, "sigma.1": None, "sigma.2": None}
    )
    setup_ok = CochainSetup(space, alg, equal, per_slot, 2)
    assert setup_ok.check_cosimplicial_identities() == []


@pytest.mark.parametrize("space_name,top", [("torus", 2), ("circle", 10)])
def test_identity_check_forms_no_matrix_product(monkeypatch, space_name, top):
    setup = make_setup(space_name, dual_numbers(), "regular", top)
    products = record_calls(monkeypatch, Matrix, "__matmul__")
    cofaces = record_calls(monkeypatch, CochainSetup, "coface")
    codegeneracies = record_calls(monkeypatch, CochainSetup, "codegeneracy")
    assert setup.check_cosimplicial_identities() == []
    assert products == [] and cofaces == [] and codegeneracies == []
    assert setup.report()["identities"] == "pass"
    assert codegeneracies == []


@pytest.mark.parametrize(
    "space_name,top", [("circle", 6), ("sphere3", 4), ("pinched-torus", 2)]
)
def test_identity_visits_closed_form_matches_check(monkeypatch, space_name, top):
    setup = make_setup(space_name, dual_numbers(), "regular", top)
    assert setup.t == [len(setup._levels[n][0]) for n in range(top + 2)]
    # the check hands the setup's face rows of each level 2..N + 1 to
    # row_pairs, which walks the C(dim + 1, 2) pairs of face indices of every
    # row; the limit counts them as a paranoid scan to dimension N + 1
    visited = record_calls(monkeypatch, cochain, "row_pairs")
    assert setup.check_cosimplicial_identities() == []
    visits = sum(comb(len(row), 2) for _, rows, _ in visited for row in rows)
    assert visits == paranoid_visits(setup.space, top + 1) > 0


def test_report_assembles_each_delta_once_and_keeps_none(monkeypatch):
    setup = make_setup("torus", dual_numbers(), "regular", 2)
    m = setup.module.dim
    shapes = []
    original_init = Matrix.__init__

    def recording_init(self, field, rows, cols, entries=None):
        shapes.append((rows, cols))
        original_init(self, field, rows, cols, entries)

    monkeypatch.setattr(Matrix, "__init__", recording_init)
    built = []
    original_blocks = CochainSetup._delta_blocks

    def recording_blocks(self, n, skip, masks, kept):
        for weight, columns in original_blocks(self, n, skip, masks, kept):
            built.append((n, weight, columns))
            yield weight, columns

    monkeypatch.setattr(CochainSetup, "_delta_blocks", recording_blocks)
    terms = record_calls(monkeypatch, CochainSetup, "_coface_terms")
    expanded = record_calls(monkeypatch, CochainSetup, "_expand")
    matrices = [
        record_calls(monkeypatch, CochainSetup, name)
        for name in ("coface", "codegeneracy", "differential")
    ]
    merged = record_calls(monkeypatch, cochain, "_merged")
    assert setup.report()["hh_dims"] == [2, 2, 4]
    # no coface, codegeneracy or differential Matrix and no whole δ_n: only
    # module-sized products of star actions
    assert matrices == [[], [], []] and merged == []
    assert shapes and set(shapes) == {(m, m)}
    # each coface is expanded once per degree, and each block of each δ_n
    # is assembled once, from each expansion once
    assert [call[1:3] for call in terms] == [
        (n, i) for n in range(3) for i in range(n + 2)
    ]
    assert [n for n, _, _ in built] == sorted(n for n, _, _ in built)
    assert sorted({n for n, _, _ in built}) == [0, 1, 2]
    blocks = [(n, weight) for n, weight, _ in built]
    assert len(set(blocks)) == len(blocks) > 3
    pairs = [(id(call[2]), call[3]) for call in expanded]
    assert len(set(pairs)) == len(pairs) == sum(
        n + 2 for n, _, _ in built
    )
    # every block went into the elimination, and the setup keeps none
    assert all(columns == {} for _, _, columns in built)
    held = list(vars(setup).values())
    held += [v for h in held if isinstance(h, dict) for v in h.values()]
    assert not any(isinstance(h, Matrix) for h in held)
    assert not any(h is columns for h in held for _, _, columns in built)


def test_streamed_blocks_peak_below_half_of_the_whole_delta():
    # tracemalloc counts only this process's Python allocations
    setup = make_setup("torus", dual_numbers({"Fp": 5}), "end", 2)
    assert setup.check_cosimplicial_identities() == []
    tracemalloc.start()
    try:
        assert setup.cohomology_dims() == [4, 4, 8]
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        whole_delta = cochain._merged(setup._delta_blocks(2))
        assert len(_eliminate(whole_delta, setup.algebra.field.p)) == 988
        whole = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert streamed < whole / 2, (streamed, whole)


def test_star_products_share_prefixes(monkeypatch):
    # three star positions over Q[x]/x^2: 4 products for the 4 two-position
    # prefixes, of which x.x acts as 0, then 6 for the 3 that are left, where
    # forming each of the 8 composites afresh takes 2 products apiece
    setup = make_setup("torus", dual_numbers(), "regular", 2)
    products = record_calls(monkeypatch, Matrix, "__matmul__")
    setup.coface(1, 0)
    assert len(products) == 10


def broken_space_setup(doc=BROKEN_AT_BASEPOINT_DOC):
    """doc unvalidated, every slot its own class."""
    space = parse_space(doc, validate=False)
    partition = partition_from_pairs(enumerate_slots(space), ())
    module = coefficient_module(dual_numbers(), partition, "regular")
    return CochainSetup(space, dual_numbers(), module, partition, 1)


def test_identity_check_on_broken_space_is_internal_error():
    setup = broken_space_setup()
    with pytest.raises(
        InternalError, match=r"faces 0,1 of Simplex\(t\) break the simplicial identity"
    ):
        setup.check_cosimplicial_identities()


def test_identity_check_on_space_broken_away_from_basepoint_is_internal_error():
    # d_0 d_2 t and d_1 d_0 t are different vertices, neither the basepoint
    setup = broken_space_setup(BROKEN_AWAY_FROM_BASEPOINT_DOC)
    with pytest.raises(InternalError, match=r"Simplex\(t\)"):
        setup.check_cosimplicial_identities()


def test_setup_whose_module_lacks_a_class_action_is_internal_error():
    # the pinched torus has the classes a.0 and a.1; the module acts for a.0
    space, partition = space_and_partition("pinched-torus")
    alg = dual_numbers()
    module = coefficient_module(alg, partition, "regular")
    lacking = MultiModule(module.dim, {"a.0": module.actions["a.0"]})
    with pytest.raises(InternalError, match=r"no action supplied for 'a\.1'"):
        CochainSetup(space, alg, lacking, partition, 1)
    # the budget guards come first
    with pytest.raises(BudgetError):
        CochainSetup(space, alg, lacking, partition, 4)


def test_identity_check_on_point_space_is_fast():
    # t is 0 in every degree, so the check has no simplex to visit
    point = parse_space(
        {"name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}]}
    )
    alg = ground_field()
    partition = partition_from_pairs(enumerate_slots(point), ())
    setup = CochainSetup(point, alg, identity_module(alg.field, 1, ()), partition, 200)
    start = time.perf_counter()
    assert setup.check_cosimplicial_identities() == []
    assert time.perf_counter() - start < 0.5


def test_identity_check_on_broken_space_is_internal_error_under_optimize():
    # InternalError is raised, not asserted, so -O does not strip the check
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    script = (
        "from hhx.errors import InternalError\n"
        "from test_cochain import broken_space_setup\n"
        "try:\n"
        "    print('returned', broken_space_setup().check_cosimplicial_identities())\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "InternalError faces 0,1 of Simplex(t) break the simplicial identity"
    )


# -- internal weight ------------------------------------------------------------


def hom_weight(setup, n, index):
    """w_M(c) - Σ w(digits) of basis element index of C^n, read off its digits."""
    weight, module_weight = setup._weights
    value, c = divmod(index, setup.module.dim)
    total = module_weight[c]
    for _ in range(setup.t[n]):
        value, digit = divmod(value, setup.algebra.dim)
        total -= weight[digit]
    assert value == 0
    return total


def check_blocks(setup, n):
    """Every entry of each block of δ_n joins basis elements of the block's
    weight; the blocks' ranks sum to the whole δ_n's. Returns the count of
    nonempty blocks."""
    p = setup.algebra.field.p
    rank = 0
    nonempty = 0
    weights = []
    for weight, columns in setup._delta_blocks(n):
        weights.append(weight)
        for col, column in columns.items():
            assert hom_weight(setup, n, col) == weight, (n, col)
            for row in column:
                assert hom_weight(setup, n + 1, row) == weight, (n, row)
        nonempty += any(columns.values())
        rank += len(_eliminate(columns, p))
    assert weights == sorted(set(weights))
    assert rank == len(_eliminate(cochain._merged(setup._delta_blocks(n)), p)), n
    return nonempty


@pytest.mark.parametrize("kind", ["regular", "end"])
def test_grading_of_the_dual_numbers(kind):
    algebra = dual_numbers()
    _, partition = space_and_partition("torus")
    module = coefficient_module(algebra, partition, kind)
    weight, module_weight = _grading(algebra, module, 10)
    assert weight[0] == 0 and weight[1] != 0
    assert len(module_weight) == module.dim
    # x raises the weight of every module basis element it hits by w(x)
    for mats in module.actions.values():
        for (r, c) in mats[1].entries:
            assert module_weight[r] == weight[1] + module_weight[c]
    setup = make_setup("torus", algebra, kind, 2)
    assert sum(check_blocks(setup, n) for n in range(3)) > 3


def test_grading_of_a_bimodule_with_no_zero_entry_is_one_block():
    # x acts as X = v w^T with w.v = 0 and k X, every entry nonzero, as in
    # the circle-deep benchmark workload: w_M(r) = w(x) + w_M(c) for every
    # r, c, so w(x) = 0 and there is a single weight
    algebra = dual_numbers({"Fp": 5})
    F = algebra.field
    x = Matrix.from_rows(F, [[1, 2], [2, 4]])  # v = (1, 2), w = (1, 2)
    space, partition = space_and_partition("circle")
    ident = identity_matrix(F, 2)
    module = MultiModule(2, {"e.0": (ident, x), "e.1": (ident, x.scale(3))})
    validate_module(module, algebra, partition.class_ids)
    weight, module_weight = _grading(algebra, module, 10)
    assert weight == [0, 0] and module_weight[0] == module_weight[1]
    setup = CochainSetup(space, algebra, module, partition, 4)
    for n in range(5):
        assert len(list(setup._delta_blocks(n))) == 1
        assert check_blocks(setup, n) <= 1
    assert setup.cohomology_dims() == classical_hochschild_dims(
        algebra, module, "e.0", "e.1", 4
    )


# top degree per space in the graded module draws
GRADED_TOPS = {"circle": 3, "sphere2": 2, "torus": 1}


def test_blocks_keep_the_weight_on_random_graded_fp_modules():
    """No entry of δ_n crosses blocks, and δ_{n+1} δ_n = 0 still holds."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(GRADED_TOPS)))
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        cubic = data.draw(st.booleans())
        algebra = parse_algebra(dict(CUBIC_DOC if cubic else DUAL_DOC, field={"Fp": p}))
        F = algebra.field
        space, partition = space_and_partition(name)
        m = data.draw(st.integers(1, 4))
        # x maps degree k to degree k + 1 of the module; dual numbers: the
        # degrees are 0 and 1, so any two such maps multiply to 0
        degree = data.draw(st.lists(st.integers(0, 2 if cubic else 1), min_size=m, max_size=m))
        scalar = st.integers(0, p - 1)

        def raising():
            return Matrix(F, m, m, {
                (r, c): data.draw(scalar)
                for r in range(m) for c in range(m) if degree[r] == degree[c] + 1
            })

        ident = identity_matrix(F, m)
        shift = raising()
        actions_by_class = {}
        for cid in partition.class_ids:
            if cubic:
                # a polynomial in one raising map J, so the classes commute;
                # a J^2 term breaks the grading by degree
                x = shift.scale(data.draw(scalar)) + (shift @ shift).scale(data.draw(scalar))
                actions_by_class[cid] = (ident, x, x @ x)
            else:
                actions_by_class[cid] = (ident, raising())
        module = MultiModule(m, actions_by_class)
        validate_module(module, algebra, partition.class_ids)
        setup = CochainSetup(space, algebra, module, partition, GRADED_TOPS[name])
        for n in range(setup.max_degree + 1):
            check_blocks(setup, n)
        for n in range(setup.max_degree):
            product = setup.differential(n + 1) @ setup.differential(n)
            assert not product.entries, (name, p, n)

    check()


def test_face_limit_counts_every_coface_expansion():
    point = parse_space(
        {"name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}]}
    )
    alg = ground_field()
    partition = partition_from_pairs(enumerate_slots(point), ())
    module = identity_module(alg.field, 1, ())
    # δ_0..δ_N expand Σ (n + 2) = (N + 1)(N + 4) / 2 cofaces
    assert sum(n + 2 for n in range(445)) == 99_680 <= FACE_LIMIT
    assert sum(n + 2 for n in range(446)) == 100_127 > FACE_LIMIT
    CochainSetup(point, alg, module, partition, 444)
    with pytest.raises(BudgetError, match="would expand 100127 cofaces"):
        CochainSetup(point, alg, module, partition, 445)


# -- cohomology ----------------------------------------------------------------


def test_circle_regular_cohomology():
    setup = make_setup("circle", dual_numbers(), "regular", 4)
    assert setup.cohomology_dims() == [2, 1, 1, 1, 1]


def test_circle_regular_matches_classical_oracle():
    alg = dual_numbers()
    setup = make_setup("circle", alg, "regular", 4)
    oracle = classical_hochschild_dims(alg, setup.module, "e.0", "e.1", 4)
    assert oracle == [2, 1, 1, 1, 1]
    assert setup.cohomology_dims() == oracle


def test_circle_twisted_cohomology_and_oracle():
    alg = dual_numbers()
    setup = make_setup("circle", alg, "twisted", 3)
    dims = setup.cohomology_dims()
    assert dims[0] == 1
    oracle = classical_hochschild_dims(alg, setup.module, "e.0", "e.1", 3)
    assert dims == oracle


def test_circle_end_matches_classical_oracle():
    alg = dual_numbers()
    setup = make_setup("circle", alg, "end", 3)
    oracle = classical_hochschild_dims(alg, setup.module, "e.0", "e.1", 3)
    assert setup.cohomology_dims() == oracle


@pytest.mark.parametrize(
    "alg_fn",
    [dual_numbers, cubic_truncation, lambda: dual_numbers({"Fp": 2}),
     lambda: dual_numbers({"Fp": 5})],
    ids=["dual-Q", "cubic-Q", "dual-F2", "dual-F5"],
)
def test_circle_degenerate_columns_and_normalized_cohomology(monkeypatch, alg_fn):
    # the circle's n-simplices are the n degeneracies of its edge, each
    # with a word of all of 0..n-1 but one index, and s_i misses the one
    # without i, so D^n holds the assignments with the unit digit at some
    # position: m (d^n - (d - 1)^n) columns, and N^n the other m (d - 1)^n,
    # which the Dold-Kan inversion of the hom dims gives without forming any
    alg = alg_fn()
    setup = make_setup("circle", alg, "regular", 5)
    d, m = alg.dim, setup.module.dim
    for n in range(7):
        assert len(degenerate_columns(setup, n)) == m * (d**n - (d - 1) ** n), n
        every, images = setup._masks(n)
        assert sorted(images) == sorted(every & ~(1 << j) for j in range(n)), n
    calls = record_calls(monkeypatch, cochain, "_dims_from_ranks")
    oracle = classical_hochschild_dims(alg, setup.module, "e.0", "e.1", 5)
    assert setup.cohomology_dims() == oracle
    assert calls[-1][1] == [m * (d - 1) ** n for n in range(6)]


@pytest.mark.parametrize("degree,column", [(1, 0), (2, 4)])
def test_pivot_at_a_degenerate_column_is_internal_error(monkeypatch, degree, column):
    # δ maps N^{n-1} into N^n, so an elimination of δ_{n-1} that returns a
    # pivot in D^n shows a bug. Column 0 is the unit everywhere; column 4 =
    # 2m of C^2 is x on s_0 e and the unit on s_1 e, which s^0 keeps, so
    # the guard must decode a nonzero digit to find it. It is raised, so
    # it fires under python -O too
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    assert column in degenerate_columns(setup, degree)
    assert cochain._column_mask(column // 2, 2, *setup._masks(degree)) != 0
    degrees = record_calls(monkeypatch, CochainSetup, "_delta_blocks")
    real = cochain._eliminate

    def eliminate(rows, p):
        found = real(rows, p)
        return found | {column} if degrees[-1][1] == degree - 1 else found

    monkeypatch.setattr(cochain, "_eliminate", eliminate)
    with pytest.raises(
        InternalError, match=f"δ_{degree - 1} has a pivot outside N\\^{degree}"
    ):
        setup.cohomology_dims()


def deep_circle_setup(p, seed, top):
    """The circle to degree top with a seeded square-zero bimodule over F_p."""
    algebra, module = square_zero_bimodule(p, random.Random(seed))
    space, partition = space_and_partition("circle")
    return CochainSetup(space, algebra, module, partition, top)


@pytest.mark.parametrize("p,seed", [(2, 0), (5, 1), (5, 2)])
def test_deep_circle_matches_classical_oracle(p, seed):
    # at degree 12 every column mask has 12 bits, so dropping a prefix
    # whose mask can no longer be cleared is pinned where it prunes most;
    # the oracle takes about 0.5 s here and doubles with each degree. F_2
    # has one such module; seeds 1 and 2 act on the right by 1 and 3 times
    # the left action, for HH = 2 1 1 ... 1 and 1 0 0 ... 0
    setup = deep_circle_setup(p, seed, 12)
    oracle = classical_hochschild_dims(
        setup.algebra, setup.module, "e.0", "e.1", 12
    )
    assert setup.cohomology_dims() == oracle


def test_deep_circle_forms_and_walks_few_choices(monkeypatch):
    # δ_10 on the circle has 2,048 columns and 2 of them in N^10. Dropping
    # the prefixes that can no longer reach mask 0 leaves 17 head prefixes
    # and 34 fused entries, against 464 and 928 without that lookahead, and
    # pairing heads with tails by mask walks 44 (column, items) pairs of the
    # fused lists, where forming every choice and skipping walked 34,816
    setup = deep_circle_setup(5, 7, 10)
    degree = record_calls(monkeypatch, CochainSetup, "_delta_blocks")
    formed = {}
    walked = {}

    class Walked(list):
        """A fused list that counts the entries each walk over it visits."""

        def __iter__(self):
            n = degree[-1][1]
            walked[n] = walked.get(n, 0) + len(self)
            return super().__iter__()

    original = CochainSetup._expansion

    def counting(self, *args):
        fused, heads = original(self, *args)
        fused = {key: {bits: Walked(e) for bits, e in by_mask.items()}
                 for key, by_mask in fused.items()}
        n = degree[-1][1]
        formed[n] = formed.get(n, 0) + sum(map(len, heads.values())) + sum(
            len(e) for by_mask in fused.values() for e in by_mask.values()
        )
        return fused, heads

    monkeypatch.setattr(CochainSetup, "_expansion", counting)
    assert setup.cohomology_dims() == classical_hochschild_dims(
        setup.algebra, setup.module, "e.0", "e.1", 10
    )
    assert sorted(walked) == sorted(formed) == list(range(11))
    assert 0 < formed[10] <= 100, formed
    assert 0 < walked[10] <= 100, walked


def test_ground_field_cohomology_every_builtin():
    alg = ground_field()
    for name in ("circle", "sphere2", "sphere3", "sphere4", "torus", "pinched-torus"):
        space, partition = space_and_partition(name)
        module = identity_module(alg.field, 3, partition.class_ids)
        setup = CochainSetup(space, alg, module, partition, 4)
        assert setup.cohomology_dims() == [3, 0, 0, 0, 0]


def test_classical_oracle_ground_field():
    alg = ground_field()
    module = identity_module(alg.field, 1, ["e.0", "e.1"])
    assert classical_hochschild_dims(alg, module, "e.0", "e.1", 4) == [1, 0, 0, 0, 0]


def test_random_f5_bimodules_match_oracle():
    space, partition = space_and_partition("circle")
    pairs = random_f5_bimodules(6)
    assert len(pairs) >= 6
    for alg, module in pairs:
        setup = CochainSetup(space, alg, module, partition, 3)
        assert setup.check_cosimplicial_identities() == []
        engine = setup.cohomology_dims()
        oracle = classical_hochschild_dims(alg, module, "e.0", "e.1", 3)
        assert engine == oracle


def test_report_shape_and_identities():
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    report = setup.report()
    assert report["space"] == "circle"
    assert report["t"] == [0, 1, 2, 3]
    assert report["hom_dims"] == [2, 4, 8, 16]
    assert report["identities"] == "pass"
    assert report["hh_dims"] == [2, 1, 1]


def test_report_on_failure_omits_cohomology():
    space, partition = space_and_partition("sphere2")
    alg = dual_numbers()
    twist = [[1, 0], [0, -1]]
    module = multiplication_module(
        alg, {"sigma.0": None, "sigma.1": None, "sigma.2": twist}
    )
    per_slot = partition_from_pairs(partition.slots, ())
    setup = CochainSetup(space, alg, module, per_slot, 2)
    report = setup.report()
    assert report["identities"] != "pass"
    assert "hh_dims" not in report


@pytest.mark.parametrize(
    "field_doc, kind, shape, rank",
    [
        ("Q", "regular", (65536, 512), 494),
        ({"Fp": 5}, "regular", (65536, 512), 494),
        ({"Fp": 5}, "end", (131072, 1024), 988),
    ],
    ids=["Q-regular", "F5-regular", "F5-end"],
)
def test_torus_delta2_rank_pinned(field_doc, kind, shape, rank):
    setup = make_setup("torus", dual_numbers(field_doc), kind, 2)
    delta = setup.differential(2)
    assert (delta.rows, delta.cols) == shape
    assert delta.rank() == rank
    # the engine's path: the columns of δ_2 straight into the elimination
    columns = cochain._merged(setup._delta_blocks(2))
    assert len(columns) <= shape[1]
    assert len(_eliminate(columns, setup.algebra.field.p)) == rank


def test_pinched_torus_degree_3_frontier_answer():
    # δ_3 is 2,097,152 x 8,192 with 836,016 nonzeros and rank 8,070; 5,785
    # of the 8,073 nonzero columns left after clearing hold a row no other
    # column holds, so the elimination peels them off before it indexes the rest
    setup = make_setup("pinched-torus", dual_numbers(), "regular", 3, budget=3_000_000)
    assert setup.hom_dims[-1] == 2_097_152
    assert setup.report()["hh_dims"] == [2, 1, 2, 3]


# top degree per space in the δδ = 0 draws, kept small for the cubic algebra
SQUARE_ZERO_TOPS = {"circle": 3, "sphere2": 2, "torus": 1}


def test_differential_squares_to_zero_on_random_commuting_fp_modules():
    """δ_{n+1} δ_n = 0, the condition under which cohomology_dims may clear."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(SQUARE_ZERO_TOPS)))
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        cubic = data.draw(st.booleans())
        algebra = parse_algebra(dict(CUBIC_DOC if cubic else DUAL_DOC, field={"Fp": p}))
        F = algebra.field
        space, partition = space_and_partition(name)
        m = data.draw(st.integers(1, 3))
        scalar = st.integers(0, p - 1)
        shift = Matrix(F, m, m, {(r, r + 1): 1 for r in range(m - 1)})
        half = m // 2
        actions_by_class = {}
        for cid in partition.class_ids:
            if cubic:
                # a polynomial in the shift J (J^3 = 0): all such commute
                x = shift.scale(data.draw(scalar)) + (shift @ shift).scale(data.draw(scalar))
                actions_by_class[cid] = (identity_matrix(F, m), x, x @ x)
            else:
                # nonzero only from the last m - half coordinates to the
                # first half: any product of two such is 0
                block = {(r, c): data.draw(scalar) for r in range(half) for c in range(half, m)}
                actions_by_class[cid] = (identity_matrix(F, m), Matrix(F, m, m, block))
        module = MultiModule(m, actions_by_class)
        validate_module(module, algebra, partition.class_ids)
        setup = CochainSetup(space, algebra, module, partition, SQUARE_ZERO_TOPS[name])
        for n in range(setup.max_degree):
            product = setup.differential(n + 1) @ setup.differential(n)
            assert not product.entries, (name, p, n)

    check()
