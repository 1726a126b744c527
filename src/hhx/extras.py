"""Code no command runs: the classical Hochschild oracle and the
endomorphism coefficient builder.

The CLI never imports this module, so no job compiles it; perfbench and the
tests reach both names through the `hhx` namespace. The oracle takes its
dims from cochain's _dims_from_ranks, the routine the engine uses.
"""

from __future__ import annotations

import itertools

from .actions import ActionPartition
from .cochain import _dims_from_ranks
from .coeffalg import Algebra, MultiModule, validate_module
from .errors import ValidationError
from .exactlinalg import Matrix


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
    cosimplicial assembly in cochain so the two can check each other.
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


def endomorphism_module(
    algebra: Algebra, action_mats, partition: ActionPartition
) -> MultiModule:
    """Endomorphisms of a module as coefficients.

    action_mats gives a single valid algebra action on a space of dimension
    m (one m x m matrix per basis element). On the endomorphism space of
    dimension m^2, the partition's first class acts by post-composition and
    its second by pre-composition; with a single class only post-composition
    is used. The two commute by associativity.
    """
    mats = tuple(action_mats)
    m = mats[0].rows if mats else 0
    base = MultiModule(m, {"value": mats})
    validate_module(base, algebra, ["value"])
    if partition.class_count not in (1, 2):
        raise ValidationError(
            "endomorphism coefficients need 1 or 2 action classes, "
            f"got {partition.class_count}"
        )
    F = algebra.field
    d = algebra.dim
    post = []
    pre = []
    for t in range(d):
        rho = mats[t]
        post_entries = {}
        pre_entries = {}
        for (a, b), v in rho.entries.items():
            for q in range(m):
                # (rho f)_{aq} = sum_b rho_{ab} f_{bq}
                post_entries[(a * m + q, b * m + q)] = v
                # (f rho)_{qb} = sum_a f_{qa} rho_{ab}
                pre_entries[(q * m + b, q * m + a)] = v
        post.append(Matrix(F, m * m, m * m, post_entries))
        pre.append(Matrix(F, m * m, m * m, pre_entries))
    ids = partition.class_ids
    if partition.class_count == 1:
        actions = {ids[0]: tuple(post)}
    else:
        actions = {ids[0]: tuple(post), ids[1]: tuple(pre)}
    module = MultiModule(m * m, actions)
    validate_module(module, algebra, list(actions))
    return module
