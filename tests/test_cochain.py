import itertools

import pytest

from helpers import (
    coefficient_module,
    cubic_truncation,
    dual_numbers,
    ground_field,
    identity_module,
    random_f5_bimodules,
    space_and_partition,
)
from hhx import CochainSetup, classical_hochschild_dims, multiplication_module
from hhx.errors import BudgetError, ValidationError
from hhx.exactlinalg import Matrix, QQ


def make_setup(space_name, algebra, kind, max_degree, **kw):
    space, partition = space_and_partition(space_name)
    module = coefficient_module(algebra, partition, kind)
    return CochainSetup(space, algebra, module, partition, max_degree, **kw)


# -- hom spaces ---------------------------------------------------------------


def test_circle_hom_dimensions():
    setup = make_setup("circle", dual_numbers(), "regular", 4)
    assert setup.t == [0, 1, 2, 3, 4, 5]
    assert setup.hom_dims == [2, 4, 8, 16, 32, 64]
    assert setup.hom_dimension(0) == 2
    assert setup.hom_dimension(3) == 16


def test_sphere2_hom_dimensions():
    setup = make_setup("sphere2", dual_numbers(), "regular", 3)
    assert setup.t[:5] == [0, 0, 1, 3][:4] + [setup.t[4]]
    assert setup.hom_dimension(3) == 16


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
        setup.hom_dimension(4)
    with pytest.raises(ValueError):
        setup.coface(3, 0)
    with pytest.raises(ValueError):
        setup.coface(0, 3)


def test_budget_error_reports_degree_and_dimension():
    with pytest.raises(BudgetError) as info:
        make_setup("torus", dual_numbers(), "regular", 5)
    assert info.value.degree == 4
    assert info.value.dimension == 2 * 2**24


def test_max_degree_must_be_positive():
    with pytest.raises(ValidationError):
        make_setup("circle", dual_numbers(), "regular", 0)


def test_flat_index_roundtrip():
    setup = make_setup("circle", dual_numbers(), "regular", 3)
    n = 2
    seen = set()
    for assignment in itertools.product(range(2), repeat=setup.t[n]):
        for u in range(2):
            flat = setup.flat_index(n, assignment, u)
            assert setup.basis_element(n, flat) == (assignment, u)
            seen.add(flat)
    assert seen == set(range(setup.hom_dimension(n)))


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
            assert setup.coface(n, i) == Matrix.identity(QQ, 3)
        for i in range(n + 1):
            assert setup.codegeneracy(n, i) == Matrix.identity(QQ, 3)


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
                ident = Matrix.identity(QQ, setup.hom_dimension(n))
                assert setup.codegeneracy(n, i) @ setup.coface(n, i) == ident
                assert setup.codegeneracy(n, i) @ setup.coface(n, i + 1) == ident


def test_matrix_shapes_match_hom_dimensions():
    setup = make_setup("pinched-torus", dual_numbers(), "regular", 2)
    for n in range(3):
        for i in range(n + 2):
            mat = setup.coface(n, i)
            assert (mat.rows, mat.cols) == (
                setup.hom_dimension(n + 1),
                setup.hom_dimension(n),
            )
        for i in range(n + 1):
            mat = setup.codegeneracy(n, i)
            assert (mat.rows, mat.cols) == (
                setup.hom_dimension(n),
                setup.hom_dimension(n + 1),
            )


# -- differentials ------------------------------------------------------------


def test_symmetric_circle_differential_zero():
    setup = make_setup("circle", dual_numbers(), "regular", 2)
    assert setup.differential(0).is_zero()


def test_twisted_circle_differential_rank_one():
    setup = make_setup("circle", dual_numbers(), "twisted", 2)
    d0 = setup.differential(0)
    assert d0.rank() == 1
    assert d0.kernel_dim() == 1


def test_ground_field_differentials_alternate():
    space, partition = space_and_partition("sphere3")
    alg = ground_field()
    module = identity_module(alg.field, 2, partition.class_ids)
    setup = CochainSetup(space, alg, module, partition, 3)
    for n in range(4):
        delta = setup.differential(n)
        if n % 2 == 0:
            assert delta.is_zero()
        else:
            assert delta == Matrix.identity(QQ, 2)


def test_differential_squares_to_zero():
    for name, alg, kind, top in (
        ("circle", dual_numbers(), "twisted", 3),
        ("sphere2", cubic_truncation(), "regular", 3),
        ("pinched-torus", dual_numbers(), "end", 2),
    ):
        setup = make_setup(name, alg, kind, top)
        for n in range(top):
            assert (setup.differential(n + 1) @ setup.differential(n)).is_zero()


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
    setup = CochainSetup(
        space, alg, unequal, partition, 2, override_slots=True
    )
    failures = setup.check_cosimplicial_identities()
    assert {"relation": "a", "n": 0, "i": 0, "j": 2} in failures
    assert all(f["relation"] == "a" for f in failures)

    equal = multiplication_module(
        alg, {"sigma.0": None, "sigma.1": None, "sigma.2": None}
    )
    setup_ok = CochainSetup(space, alg, equal, partition, 2, override_slots=True)
    assert setup_ok.check_cosimplicial_identities() == []


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
    setup = CochainSetup(space, alg, module, partition, 2, override_slots=True)
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
