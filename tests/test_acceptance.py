"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every check is exact (integer dimensions, exact matrix equality), and each
criterion asserts its stated wall-clock limit.
"""

import time

import pytest

from helpers import (
    coefficient_module,
    dual_numbers,
    ground_field,
    identity_module,
    multiplication_module,
    random_f5_bimodules,
    space_and_partition,
)
from hhx import CochainSetup, classical_hochschild_dims, paranoid_closure
from hhx.actions import ActionPartition

BUILTINS = ("circle", "sphere2", "sphere3", "sphere4", "torus", "pinched-torus")


def run_criterion(number, description, limit_seconds, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"[PASS] criterion {number} ({elapsed:.2f}s, limit {limit_seconds}s): "
        f"{description}"
    )
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, over the {limit_seconds}s limit"
    )


def _kinds_for(partition):
    kinds = ["regular"]
    if partition.class_count == 2:
        kinds.append("twisted")
    kinds.append("end")
    return kinds


_setups_cache = None


def identity_suite_setups():
    """Every builtin x valid coefficient choice over Q[x]/x^2, degrees <= 3."""
    global _setups_cache
    if _setups_cache is None:
        algebra = dual_numbers()
        setups = []
        for name in BUILTINS:
            space, partition = space_and_partition(name)
            for kind in _kinds_for(partition):
                module = coefficient_module(algebra, partition, kind)
                setups.append(
                    (name, kind,
                     CochainSetup(space, algebra, module, partition, 2))
                )
        _setups_cache = setups
    return _setups_cache


def test_criterion_1_action_class_counts():
    def check():
        expected_counts = {
            "circle": (2, "bi-module"),
            "sphere2": (1, "uni-module"),
            "sphere3": (1, "uni-module"),
            "sphere4": (1, "uni-module"),
            "torus": (1, "uni-module"),
            "pinched-torus": (2, "bi-module"),
        }
        for name, (count, kind) in expected_counts.items():
            _, partition = space_and_partition(name)
            assert partition.class_count == count, name
            assert partition.coefficient_kind() == kind, name
        _, pinched = space_and_partition("pinched-torus")
        classes = {frozenset(s.id for s in cls) for cls in pinched.classes}
        assert classes == {
            frozenset({"sigma.1", "a.1", "c.0"}),
            frozenset({"tau.1", "a.0", "c.1"}),
        }

    run_criterion(
        1,
        "action-class counts match the stated propositions "
        "(circle 2, spheres 1, torus 1, pinched torus exactly 2 classes)",
        1.0,
        check,
    )


def test_criterion_2_cosimplicial_identity_suite():
    def check():
        for name, kind, setup in identity_suite_setups():
            failures = setup.check_cosimplicial_identities()
            assert failures == [], f"{name}/{kind}: {failures}"

    run_criterion(
        2,
        "identity families a), b), c) hold exactly for every builtin space "
        "with Q[x]/x^2 and each valid coefficient choice, degrees <= 3",
        120.0,
        check,
    )


def test_criterion_3_differential_squares_to_zero():
    def check():
        for name, kind, setup in identity_suite_setups():
            for n in range(setup.max_degree):
                product = setup.differential(n + 1) @ setup.differential(n)
                assert not product.entries, f"{name}/{kind} at degree {n}"

    run_criterion(
        3,
        "delta(n+1) . delta(n) = 0 exactly in all checked degrees "
        "for every criterion-2 setup",
        120.0,
        check,
    )


def test_criterion_4_classical_agreement_on_circle():
    def check():
        algebra = dual_numbers()
        space, partition = space_and_partition("circle")

        regular = coefficient_module(algebra, partition, "regular")
        setup = CochainSetup(space, algebra, regular, partition, 4)
        engine = setup.cohomology_dims()
        oracle = classical_hochschild_dims(algebra, regular, "e.0", "e.1", 4)
        assert engine == [2, 1, 1, 1, 1]
        assert oracle == [2, 1, 1, 1, 1]

        twisted = coefficient_module(algebra, partition, "twisted")
        setup_t = CochainSetup(space, algebra, twisted, partition, 3)
        assert setup_t.cohomology_dims() == classical_hochschild_dims(
            algebra, twisted, "e.0", "e.1", 3
        )

        pairs = random_f5_bimodules(6)
        assert len(pairs) >= 5
        for alg_p, module in pairs:
            setup_p = CochainSetup(space, alg_p, module, partition, 3)
            assert setup_p.cohomology_dims() == classical_hochschild_dims(
                alg_p, module, "e.0", "e.1", 3
            )

    run_criterion(
        4,
        "circle cohomology equals the independent classical oracle: "
        "[2,1,1,1,1] regular at N=4, twisted at N=3, and >= 5 random "
        "bimodules over F_5",
        120.0,
        check,
    )


def test_criterion_5_ground_field_coefficients():
    def check():
        algebra = ground_field()
        for name in BUILTINS:
            space, partition = space_and_partition(name)
            for m in (1, 3):
                module = identity_module(
                    algebra.field, m, partition.class_ids
                )
                setup = CochainSetup(space, algebra, module, partition, 4)
                assert setup.cohomology_dims() == [m, 0, 0, 0, 0], (name, m)

    run_criterion(
        5,
        "ground-field algebra forces HH^0 = dim M and HH^n = 0 for "
        "1 <= n <= 4 on every builtin space",
        30.0,
        check,
    )


def test_criterion_6_degenerate_scan_adds_nothing():
    def check():
        for name in BUILTINS:
            space, partition = space_and_partition(name)
            assert paranoid_closure(space, 5).same_classes(partition), name

    run_criterion(
        6,
        "scanning all simplices (degenerate included) up to dimension 5 "
        "yields the same partition as the generator-only scan",
        10.0,
        check,
    )


def test_criterion_7_unequal_slot_actions_break_identity_a():
    def check():
        algebra = dual_numbers()
        space, partition = space_and_partition("sphere2")
        twist = [[1, 0], [0, -1]]
        unequal = multiplication_module(
            algebra, {"sigma.0": None, "sigma.1": None, "sigma.2": twist}
        )
        per_slot = ActionPartition(partition.slots, ())
        setup = CochainSetup(space, algebra, unequal, per_slot, 2)
        failures = setup.check_cosimplicial_identities()
        assert any(f["relation"] == "a" for f in failures)

        equal = multiplication_module(
            algebra, {"sigma.0": None, "sigma.1": None, "sigma.2": None}
        )
        setup_ok = CochainSetup(space, algebra, equal, per_slot, 2)
        assert setup_ok.check_cosimplicial_identities() == []

    run_criterion(
        7,
        "per-slot override with unequal actions on sphere(2) fails identity "
        "a); equal actions pass",
        30.0,
        check,
    )
