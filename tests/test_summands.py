"""The direct-sum rule: HH(X; A, M ⊕ N) = HH(X; A, M) ⊕ HH(X; A, N).

cohomology_dims forms δ only on one representative of each group of
identical direct summands of the module (cochain._summands) and counts each
pivot with its group's size. Each case is checked against a run whose
multiplicities are forced to 1, so that every summand is formed, and against
an answer found without the rule: the classical bar complex, or the
cohomology of one summand times its count.
"""

import random

import pytest

from helpers import (
    SLOTLESS_DOC,
    coefficient_module,
    cubic_truncation,
    direct_sum,
    dual_numbers,
    ground_field,
    identity_matrix,
    random_f5_bimodules,
    reference_grading,
    scaled_cubic,
    space_and_partition,
    square_zero_bimodule,
)
from hhx import CochainSetup, MultiModule, classical_hochschild_dims, cochain
from hhx.actions import sweep_closure
from hhx.cochain import _grading, _summands
from hhx.exactlinalg import Matrix
from hhx.simplicial import parse_space


def each_summand(module):
    """Multiplicities forced to 1: every basis index is formed."""
    return [1] * module.dim


def both_ways(monkeypatch, space, algebra, module, partition, top):
    """(the setup's copies, its HH, the HH with every summand formed)."""
    setup = CochainSetup(space, algebra, module, partition, top)
    hh = setup.cohomology_dims()
    with monkeypatch.context() as patch:
        patch.setattr(cochain, "_summands", each_summand)
        forced = CochainSetup(space, algebra, module, partition, top)
        assert forced._copies == [1] * module.dim
        whole = forced.cohomology_dims()
    return setup._copies, hh, whole


def twisted_dual_numbers(partition):
    algebra = dual_numbers()
    return algebra, coefficient_module(algebra, partition, "twisted")


@pytest.mark.parametrize("field", ["Q", "F2", "F5"])
def test_circle_with_two_copies_is_twice_the_classical_answer(monkeypatch, field):
    space, partition = space_and_partition("circle")
    if field == "Q":
        algebra, module = twisted_dual_numbers(partition)
    else:
        algebra, module = square_zero_bimodule(int(field[1:]), random.Random(3))
    oracle = classical_hochschild_dims(algebra, module, "e.0", "e.1", 4)
    copies, hh, whole = both_ways(
        monkeypatch, space, algebra, direct_sum(module, module), partition, 4
    )
    # M is one component, so the second copy is left out
    assert copies == [2, 2, 0, 0]
    assert hh == whole == [2 * h for h in oracle]


@pytest.mark.parametrize("name,top", [("torus", 2), ("sphere2", 3), ("sphere3", 3)])
def test_endomorphisms_under_post_composition_are_dim_m_copies(monkeypatch, name, top):
    # with one class End_k(M) acts by post-composition alone: column q of
    # f is a copy of M, so the basis splits into {q, m + q} for each q
    algebra = dual_numbers()
    space, partition = space_and_partition(name)
    regular = coefficient_module(algebra, partition, "regular")
    end = coefficient_module(algebra, partition, "end")
    single = CochainSetup(space, algebra, regular, partition, top).cohomology_dims()
    copies, hh, whole = both_ways(monkeypatch, space, algebra, end, partition, top)
    assert copies == [2, 0, 2, 0]
    assert hh == whole == [2 * h for h in single]


def test_two_class_endomorphisms_are_one_summand(monkeypatch):
    # post- and pre-composition together connect every basis index
    algebra = dual_numbers()
    space, partition = space_and_partition("pinched-torus")
    end = coefficient_module(algebra, partition, "end")
    copies, hh, whole = both_ways(monkeypatch, space, algebra, end, partition, 2)
    assert copies == [1, 1, 1, 1]
    assert hh == whole == [2, 0, 1]


@pytest.mark.parametrize(
    "name,alg_fn,top", [("sphere2", cubic_truncation, 3), ("pinched-torus", dual_numbers, 2)]
)
def test_free_module_is_three_copies_of_the_regular_one(monkeypatch, name, alg_fn, top):
    algebra = alg_fn()
    d = algebra.dim
    space, partition = space_and_partition(name)
    regular = coefficient_module(algebra, partition, "regular")
    single = CochainSetup(space, algebra, regular, partition, top).cohomology_dims()
    free = direct_sum(regular, regular, regular)
    copies, hh, whole = both_ways(monkeypatch, space, algebra, free, partition, top)
    assert copies == [3] * d + [0] * (2 * d)
    assert hh == whole == [3 * h for h in single]


def test_sum_of_different_summands_adds_their_answers(monkeypatch):
    # regular ⊕ twisted on the circle: the summands differ, so both are formed
    algebra = dual_numbers()
    space, partition = space_and_partition("circle")
    regular = coefficient_module(algebra, partition, "regular")
    twisted = coefficient_module(algebra, partition, "twisted")
    oracle = [
        a + b for a, b in zip(
            classical_hochschild_dims(algebra, regular, "e.0", "e.1", 4),
            classical_hochschild_dims(algebra, twisted, "e.0", "e.1", 4),
        )
    ]
    copies, hh, whole = both_ways(
        monkeypatch, space, algebra, direct_sum(regular, twisted), partition, 4
    )
    assert copies == [1, 1, 1, 1]
    assert hh == whole == oracle


def test_summands_with_the_same_shape_but_other_values_differ():
    # x acts by [[0, 1], [0, 0]] and by [[0, 2], [0, 0]]: the same entries
    # with another value, which is another module
    algebra = dual_numbers()
    F = algebra.field
    ident = identity_matrix(F, 2)
    module = direct_sum(*(
        MultiModule(2, {"e.0": (ident, Matrix(F, 2, 2, {(0, 1): k}))})
        for k in (1, 2, 1)
    ))
    assert _summands(module) == [2, 2, 1, 1, 0, 0]


def test_components_are_found_whatever_order_the_entries_come_in():
    # one matrix with two identical chains: read in this order, the first
    # links 3 -> 2 -> 1 -> 0 one root at a time, and the second would chain
    # 4 -> 5 -> 6 -> 7 if a union did not keep the least index as the root
    F = dual_numbers().field
    chains = [(2, 3), (1, 2), (0, 1), (4, 5), (5, 6), (6, 7)]
    module = MultiModule(8, {"e.0": (Matrix(F, 8, 8, dict.fromkeys(chains, 1)),)})
    assert _summands(module) == [2, 2, 2, 2, 0, 0, 0, 0]


def test_zero_module_has_no_summand(monkeypatch):
    algebra = dual_numbers()
    space, partition = space_and_partition("circle")
    empty = Matrix(algebra.field, 0, 0)
    module = MultiModule(0, {cid: (empty, empty) for cid in partition.class_ids})
    copies, hh, whole = both_ways(monkeypatch, space, algebra, module, partition, 3)
    assert copies == []
    assert hh == whole == [0, 0, 0, 0]


@pytest.mark.parametrize("alg_fn", [ground_field, dual_numbers])
def test_slotless_space_makes_each_basis_vector_an_identical_summand(
    monkeypatch, alg_fn
):
    # no slot, so no class and no action: each basis vector is a summand
    algebra = alg_fn()
    space = parse_space(SLOTLESS_DOC)
    partition = sweep_closure(space)
    assert partition.class_ids == ()
    single = CochainSetup(
        space, algebra, MultiModule(1, {}), partition, 3
    ).cohomology_dims()
    copies, hh, whole = both_ways(
        monkeypatch, space, algebra, MultiModule(3, {}), partition, 3
    )
    assert copies == [3, 0, 0]
    assert hh == whole == [3 * h for h in single]
    assert hh[0] > 0


@pytest.mark.parametrize("route, least", [(True, 100), (False, 40_000)])
def test_repeated_summand_halves_the_elimination_input(monkeypatch, route, least):
    # the benchmark's torus End_k(M) job over F_5: two copies of M, so δ is
    # formed and eliminated on exactly half the nonzeros, on the total
    # complex of circle x circle (132 with every copy) and on the diagonal
    algebra = dual_numbers({"Fp": 5})
    space, partition = space_and_partition("torus")
    if not route:
        space.factors = None
    end = coefficient_module(algebra, partition, "end")
    setups = []
    for summands in (_summands, each_summand):
        monkeypatch.setattr(cochain, "_summands", summands)
        setups.append(CochainSetup(space, algebra, end, partition, 2))
    nonzeros = []
    eliminate = cochain._eliminate

    def counting(rows, p):
        nonzeros[-1] += sum(map(len, rows.values()))
        return eliminate(rows, p)

    monkeypatch.setattr(cochain, "_eliminate", counting)
    runs = []
    for setup in setups:
        nonzeros.append(0)
        runs.append(setup.cohomology_dims())
    assert runs == [[4, 4, 8], [4, 4, 8]]
    assert 2 * nonzeros[0] == nonzeros[1] > least, nonzeros


def grading_cases():
    """(algebra, module) pairs: every builtin with each algebra and kind,
    drawn F_5 bimodules, square-zero bimodules and direct sums."""
    cases = []
    algebras = [
        dual_numbers(), dual_numbers({"Fp": 5}), dual_numbers({"Fp": 2}),
        cubic_truncation(), scaled_cubic(), scaled_cubic({"Fp": 5}), ground_field(),
    ]
    for name in ("circle", "sphere2", "sphere3", "torus", "pinched-torus", "sphere4"):
        _, partition = space_and_partition(name)
        for algebra in algebras:
            kinds = ["regular", "end"] if algebra.dim > 1 else ["regular"]
            if len(partition.class_ids) == 2 and algebra.dim > 1:
                kinds.append("twisted")
            for kind in kinds:
                cases.append((algebra, coefficient_module(algebra, partition, kind)))
    cases += random_f5_bimodules(8)
    for p, seed in ((2, 0), (5, 1), (5, 2), (7, 3)):
        cases.append(square_zero_bimodule(p, random.Random(seed)))
    algebra, module = square_zero_bimodule(5, random.Random(4))
    _, partition = space_and_partition("circle")
    twisted = coefficient_module(dual_numbers({"Fp": 5}), partition, "twisted")
    cases.append((algebra, direct_sum(module, twisted, module)))
    return cases


def test_integer_grading_matches_the_fraction_solve():
    cases = grading_cases()
    assert len(cases) >= 50
    for k, (algebra, module) in enumerate(cases):
        for most in (1, 7):
            assert _grading(algebra, module, most) == reference_grading(
                algebra, module, most
            ), k
