import copy
import random
from itertools import combinations
from math import comb

import pytest

from helpers import (
    BALLOON_DOC,
    BROKEN_AT_BASEPOINT_DOC,
    BROKEN_AWAY_FROM_BASEPOINT_DOC,
    BROKEN_DOCS,
    BROKEN_VIA_I_ONLY_DOC,
    SCAN_LIKE_DOC,
    SLOTLESS_DOC,
    TWO_EDGE_CIRCLE,
    WEDGE_DOC,
    generator,
    ground_field,
    identity_module,
    scan_size,
    slot_at,
)
from hhx import actions, cochain
from hhx.actions import (
    PARANOID_LIMIT,
    ActionPartition,
    ActionSlot,
    closure_pairs,
    enumerate_slots,
    least_roots,
    level_rows,
    paranoid_closure,
    paranoid_visits,
    row_pairs,
    sweep_closure,
)
from hhx.cochain import CochainSetup
from hhx.errors import InternalError
from hhx.simplicial import (
    Simplex,
    SimplicialSpace,
    builtin_space,
    parse_space,
    validate_space,
)

BUILTINS = ("circle", "sphere2", "sphere3", "sphere4", "torus", "pinched-torus")


def reduce_slot(space, s, i):
    """The slot on the underlying generator carrying the same action.

    slot_at with the checks it leaves to its caller: s is not the basepoint
    and its face i is.
    """
    if space.is_basepoint(s):
        raise ValueError(f"{s!r} is the basepoint and carries no actions")
    if not space.is_basepoint(space.face(s, i)):
        raise ValueError(f"face {i} of {s!r} is not the basepoint")
    return slot_at(s, i)


def slow_reduce_slot(space, s, i):
    """reduce_slot by peeling the degeneracy word, outermost index first.

    A word index j above the face index k keeps it; one below k - 1 lowers
    it by one; j = k or k - 1 would cancel the degeneracy, so face i could
    not be the basepoint. The result is checked against the generator's
    face table.
    """
    if space.is_basepoint(s) or not space.is_basepoint(space.face(s, i)):
        raise ValueError(f"({s!r}, {i}) is not a slot")
    k = i
    for j in s.word:
        if k > j + 1:
            k -= 1
        elif k >= j:
            raise ValueError(f"({s!r}, {i}) hits the cancelling layer s{j}")
    slot = ActionSlot(s.base, k)
    if not space.is_basepoint(space.face(Simplex((), s.base), k)):
        raise ValueError(f"{slot!r} does not point at the basepoint")
    return slot


def slot_pairs(space, s):
    """(i, j, via_j, via_i) for each basepoint face d_i d_j s, s of dim >= 2.

    The pair rules of actions.row_pairs on Simplex values: space.face asked of
    s and its non-basepoint faces, and each slot found with slot_at where a
    pair reaches the basepoint.
    """
    n = s.dim
    both_ways = not s.word
    is_basepoint = space.is_basepoint
    face = space.face
    faces = [face(s, i) for i in range(n + 1)]
    star = [is_basepoint(f) for f in faces]
    for j in range(1, n + 1):
        for i in range(j):
            if star[j]:
                via_j = slot_at(s, j)
            elif is_basepoint(by_j := face(faces[j], i)):
                via_j = slot_at(faces[j], i)
            elif star[i] or both_ways:
                via_j = None
            else:
                continue
            if star[i]:
                via_i = slot_at(s, i)
            elif is_basepoint(by_i := face(faces[i], j - 1)):
                via_i = slot_at(faces[i], j - 1)
            else:
                via_i = None
            if via_j is None and via_i is None and by_j == by_i:
                continue
            if via_j is None or via_i is None:
                raise InternalError(
                    f"faces {i},{j} of {s!r} break the simplicial identity"
                )
            yield i, j, via_j, via_i


def mapped_level_pairs(space, top):
    """(n, i, j, via_j, via_i) of row_pairs on each level n = 2..top of
    level_rows, with its slot numbers mapped to the slots."""
    slots = enumerate_slots(space)
    pairs = []
    for n, (level, rows) in enumerate(level_rows(space, top)):
        if n >= 2:
            pairs += [(n, *pair) for pair in actions.row_pairs(level, rows, lower)]
        lower = rows
    return [(n, i, j, slots[a], slots[b]) for n, i, j, a, b in pairs]


def slow_level_pairs(space, top):
    """mapped_level_pairs from slot_pairs: one space.face call per face and
    pair."""
    for n in range(2, top + 1):
        for s in space.simplices(n):
            if not space.is_basepoint(s):
                for pair in slot_pairs(space, s):
                    yield (n, *pair)


def informative(pairs):
    """The pairs whose last two entries, the slots via j and via i, differ:
    row_pairs yields no pair of a slot with itself."""
    return [pair for pair in pairs if pair[-2] != pair[-1]]


def slot_numbers(space, pairs):
    """Pairs of ActionSlots as pairs of their numbers in enumerate_slots."""
    numbers = {slot: k for k, slot in enumerate(enumerate_slots(space))}
    return [(numbers[a], numbers[b]) for a, b in pairs]


def slow_paranoid_closure(space, dim_cap):
    """paranoid_closure without the face rows."""
    pairs = [pair[3:] for pair in slow_level_pairs(space, dim_cap)]
    return ActionPartition(enumerate_slots(space), slot_numbers(space, pairs))


def record_face_rows(monkeypatch):
    """(simplices, faces below, rows) of every later _face_rows call, each
    given the slot numbering of enumerate_slots(space)."""
    calls = []
    original = actions._face_rows

    def recording(space, simplices, position, slots):
        assert slots == {slot: k for k, slot in enumerate(enumerate_slots(space))}
        rows = original(space, simplices, position, slots)
        calls.append((list(simplices), list(position), rows))
        return rows

    monkeypatch.setattr(actions, "_face_rows", recording)
    return calls


def level_tables(levels):
    """(simplices, faces below, rows) of each level n >= 1 of level_rows'
    (simplices, rows) levels."""
    return [(level, below, rows) for (below, _), (level, rows) in zip(levels, levels[1:])]


def record_level_rows(monkeypatch, *modules):
    """The (simplices, rows) levels of every later level_rows call made
    through the given modules, in order."""
    levels = []

    def recording(space, top, blocks=None):
        for level in level_rows(space, top, blocks):
            levels.append(level)
            yield level

    for module in modules:
        monkeypatch.setattr(module, "level_rows", recording)
    return levels


def face_rows_by_simplex(space, top):
    """level_rows from _face_rows: each simplex's row looked up, face by
    face, among the simplices of the level below."""
    numbers = {slot: k for k, slot in enumerate(enumerate_slots(space))}
    level = tuple(s for s in space.simplices(0) if not space.is_basepoint(s))
    yield level, [()] * len(level)
    for n in range(1, top + 1):
        position = {s: p for p, s in enumerate(level)}
        level = tuple(s for s in space.simplices(n) if not space.is_basepoint(s))
        yield level, actions._face_rows(space, level, position, numbers)


def check_face_rows(space, tables):
    """Every row entry of (simplices, faces below, rows) tables against
    space.face and slot_at; the count.

    A basepoint entry ~k names slot k of enumerate_slots(space).
    """
    slots = enumerate_slots(space)
    entries = 0
    for simplices, faces, rows in tables:
        assert len(rows) == len(simplices)
        for s, row in zip(simplices, rows):
            assert len(row) == s.dim + 1
            for k, entry in enumerate(row):
                face = space.face(s, k)
                if entry < 0:
                    assert space.is_basepoint(face)
                    assert slots[~entry] == slot_at(s, k)
                else:
                    assert not space.is_basepoint(face)
                    assert faces[entry] == face
                entries += 1
    return entries


def slow_row_pairs(simplices, rows, lower):
    """row_pairs visiting every pair i < j of every row, skipping none early."""
    for s, row in zip(simplices, rows):
        both_ways = not s.word
        for j in range(1, len(row)):
            at_j = row[j]
            below_j = lower[at_j] if at_j >= 0 else None
            for i in range(j):
                at_i = row[i]
                if at_j < 0:
                    via_j = ~at_j
                elif (by_j := below_j[i]) < 0:
                    via_j = ~by_j
                elif at_i < 0 or both_ways:
                    via_j = None
                else:
                    continue
                if at_i < 0:
                    via_i = ~at_i
                elif (by_i := lower[at_i][j - 1]) < 0:
                    via_i = ~by_i
                else:
                    via_i = None
                if via_j is None and via_i is None and by_j == by_i:
                    continue
                if via_j is None or via_i is None:
                    raise InternalError(
                        f"faces {i},{j} of {s!r} break the simplicial identity"
                    )
                yield i, j, via_j, via_i


def seeded_scan_like_doc(seed):
    """SCAN_LIKE_DOC with every triangle face drawn afresh: an edge or s0 pt.

    Every edge is a loop, so any such faces satisfy the identities.
    """
    rng = random.Random(seed)
    doc = copy.deepcopy(SCAN_LIKE_DOC)
    choices = [[f"e{k}", []] for k in range(4)] + [["pt", [0]]]
    for simplex in doc["simplices"]:
        if simplex["dim"] == 2:
            simplex["faces"] = [rng.choice(choices) for _ in range(3)]
    return doc


def multi_vertex_doc():
    """Three vertices, edges between them and a loop, triangles and a 3-cell.

    t spans pt -> v -> w, u has the degenerate face s0 v and x the
    degenerate basepoint s0 pt; the 3-cell q has the faces of s1 t, so
    some of its faces and double faces are at the basepoint and some are
    not.
    """
    simplices = [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "w", "dim": 0},
        {"name": "a", "dim": 1, "faces": [["v", []], ["pt", []]]},
        {"name": "b", "dim": 1, "faces": [["w", []], ["v", []]]},
        {"name": "c", "dim": 1, "faces": [["w", []], ["pt", []]]},
        {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        {"name": "t", "dim": 2, "faces": [["b", []], ["c", []], ["a", []]]},
        {"name": "u", "dim": 2, "faces": [["v", [0]], ["a", []], ["a", []]]},
        {"name": "x", "dim": 2, "faces": [["e", []], ["pt", [0]], ["e", []]]},
    ]
    doc = {"name": "multi-vertex", "basepoint": "pt", "simplices": simplices}
    space = parse_space(doc)
    s1t = space.degeneracy(Simplex((), generator(space, "t")), 1)
    faces = [space.face(s1t, i) for i in range(4)]
    simplices.append(
        {"name": "q", "dim": 3, "faces": [[f.base.name, list(f.word)] for f in faces]}
    )
    return doc


def key_fields_doc():
    """Generators that differ pairwise in one field of paranoid_closure's
    neighbourhood key, each pair on edges of its own.

    - n0 = (s0 pt, n, n) and n2 = (n, n, s0 pt): which face is the basepoint;
    - id0 = (i1, i1, i2) and id1 = (i3, i4, i5): which face bases coincide;
    - B1 = (be, bb, bd) and B2 = (bb, be, ba), over the loop be, the edges
      bb, bd from pt to v and ba from v to pt: which faces of each face
      base are the basepoint;
    - w0 = (s0 wb, s0 wb, s0 wb, wQ) and w1 = (s1 wb, s1 wb, s0 wb, wT),
      where wQ = (s0 v, s0 v, s0 v), wT = (wb, wb, s0 v) and wb runs from pt
      to v: the face words; wb's one slot is the only one the two reach, so
      relabelled pairs would be pairs of a slot with itself.

    The edges bb, bd and ba themselves differ in which face is the basepoint.
    """
    loop, bp, v0 = [["pt", []], ["pt", []]], ["pt", [0]], ["v", [0]]

    def cell(name, *faces):
        faces = [f if isinstance(f, list) else [f, []] for f in faces]
        return {"name": name, "dim": len(faces) - 1, "faces": faces}

    simplices = [{"name": "pt", "dim": 0}, {"name": "v", "dim": 0}]
    simplices += [cell(x, *loop) for x in ("be", "i1", "i2", "i3", "i4", "i5", "n")]
    simplices += [cell(x, "pt", "v") for x in ("bb", "bd", "wb")] + [cell("ba", "v", "pt")]
    simplices += [
        cell("n0", bp, "n", "n"), cell("n2", "n", "n", bp),
        cell("id0", "i1", "i1", "i2"), cell("id1", "i3", "i4", "i5"),
        cell("B1", "be", "bb", "bd"), cell("B2", "bb", "be", "ba"),
        cell("wQ", v0, v0, v0), cell("wT", "wb", "wb", v0),
        cell("w0", ["wb", [0]], ["wb", [0]], ["wb", [0]], "wQ"),
        cell("w1", ["wb", [1]], ["wb", [1]], ["wb", [0]], "wT"),
    ]
    return {"name": "key-fields", "basepoint": "pt", "simplices": simplices}


def scan_blocks_doc():
    """A one-vertex space whose scan needs both of level_rows' closure rules.

    The loops a, e, f fall into one class, first a; so do the 3-cells h and
    k, each with the faces of s1 s0 on its loop (s0 e or s0 f three times,
    then s1 s0 pt), first h. h's face base e is no class's first, so the
    scan builds e's n-simplices for h's (n + 1)-simplices. k is read only
    at its own level 3, where its faces s0 f are over an edge of dimension
    less than 2: f's 2-simplices are built for k alone, and their rows,
    d0 s0 f = d1 s0 f = f, ask for f's 1-simplex. The triangle
    t = (a, s0 pt, e) links a's slots to e's.
    """
    loop = [["pt", []], ["pt", []]]

    def cell(name, loop):
        return {"name": name, "dim": 3, "faces": [[loop, [0]]] * 3 + [["pt", [1, 0]]]}

    simplices = [{"name": "pt", "dim": 0}]
    simplices += [{"name": x, "dim": 1, "faces": loop} for x in ("a", "e", "f")]
    simplices += [cell("h", "e"), cell("k", "f")]
    simplices.append({"name": "t", "dim": 2, "faces": [["a", []], ["pt", [0]], ["e", []]]})
    return {"name": "scan-blocks", "basepoint": "pt", "simplices": simplices}


def row_pairs_spaces():
    """(label, space, top) for comparing row_pairs with slow_row_pairs."""
    out = [(f"scan-like-{seed}", parse_space(seeded_scan_like_doc(seed)), 8)
           for seed in range(4)]
    out.append(("scan-like", parse_space(SCAN_LIKE_DOC), 8))
    out += [(name, builtin_space(name), top)
            for name, top in (("sphere12", 14), ("torus", 7), ("pinched-torus", 7))]
    out.append(("multi-vertex", parse_space(multi_vertex_doc()), 7))
    return out


ROW_PAIRS_SPACES = row_pairs_spaces()


def ids(slots):
    return [s.id for s in slots]


def class_ids_sets(partition):
    return [set(ids(cls)) for cls in partition.classes]


def test_circle_slots():
    space = builtin_space("circle")
    assert ids(enumerate_slots(space)) == ["e.0", "e.1"]


def test_sphere2_slots():
    space = builtin_space("sphere2")
    assert ids(enumerate_slots(space)) == ["sigma.0", "sigma.1", "sigma.2"]


def test_torus_slots():
    space = builtin_space("torus")
    assert ids(enumerate_slots(space)) == [
        "a.0", "a.1", "b.0", "b.1", "c.0", "c.1",
    ]


def test_slot_rendering():
    space = builtin_space("torus")
    forward, backward = enumerate_slots(space)[:2]
    assert forward.describe() == "a.0 (forward)"
    assert backward.describe() == "a.1 (backward)"
    sigma_slot = enumerate_slots(builtin_space("sphere2"))[1]
    assert sigma_slot.describe() == "sigma.1"


def test_action_slot_equality_hash_and_class_lookup():
    space = builtin_space("pinched-torus")
    partition = sweep_closure(space)
    sigma = generator(space, "sigma")
    slot = ActionSlot(sigma, 1)
    assert slot == ActionSlot(generator=sigma, index=1)
    assert hash(slot) == hash(ActionSlot(sigma, 1))
    assert slot != ActionSlot(sigma, 0)
    assert slot != ActionSlot(generator(space, "tau"), 1)
    assert (slot.generator, slot.index) == (sigma, 1)
    assert slot.id == "sigma.1"
    assert slot.describe() == "sigma.1"
    assert repr(slot) == "ActionSlot(sigma.1)"
    # a freshly built slot finds its class, as does one reduced from a
    # degenerate simplex
    assert partition.class_of(slot) == "a.1"
    s0 = space.degeneracy(Simplex((), sigma), 0)
    assert partition.class_of(reduce_slot(space, s0, 2)) == "a.1"
    assert partition.class_of(ActionSlot(generator(space, "tau"), 1)) == "a.0"
    assert {slot: 1}[ActionSlot(sigma, 1)] == 1
    # the face rows look slots up by plain (generator, index) pairs
    assert slot == (sigma, 1) and hash(slot) == hash((sigma, 1))
    assert {slot: 1}[sigma, 1] == 1


def test_reduce_slot_keeps_low_index():
    space = builtin_space("circle")
    e = Simplex((), generator(space, "e"))
    s1e = space.degeneracy(e, 1)
    assert reduce_slot(space, s1e, 0).id == "e.0"


def test_reduce_slot_shifts_high_index():
    space = builtin_space("circle")
    e = Simplex((), generator(space, "e"))
    s0e = space.degeneracy(e, 0)
    assert reduce_slot(space, s0e, 2).id == "e.1"


def test_reduce_slot_on_sphere_degeneracies():
    space = builtin_space("sphere2")
    sigma = Simplex((), generator(space, "sigma"))
    s0 = space.degeneracy(sigma, 0)
    assert reduce_slot(space, s0, 2).id == "sigma.1"
    assert reduce_slot(space, s0, 3).id == "sigma.2"
    # d3(s2 sigma) cancels the degeneracy and lands on sigma itself, which is
    # not the basepoint, so (s2 sigma, 3) is not a slot at all
    s2 = space.degeneracy(sigma, 2)
    assert not space.is_basepoint(space.face(s2, 3))
    with pytest.raises(ValueError):
        reduce_slot(space, s2, 3)


def test_reduce_slot_rejects_basepoint_and_nonstar_faces():
    space = builtin_space("circle")
    with pytest.raises(ValueError):
        reduce_slot(space, Simplex((1, 0), space.basepoint), 0)
    e = Simplex((), generator(space, "e"))
    s0e = space.degeneracy(e, 0)
    with pytest.raises(ValueError):
        reduce_slot(space, s0e, 1)  # face 1 of s0 e is e, not the basepoint


def test_circle_closure_two_classes():
    partition = sweep_closure(builtin_space("circle"))
    assert partition.class_count == 2
    assert class_ids_sets(partition) == [{"e.0"}, {"e.1"}]
    assert partition.coefficient_kind() == "bi-module"


def test_torus_closure_single_class():
    partition = sweep_closure(builtin_space("torus"))
    assert partition.class_count == 1
    assert class_ids_sets(partition) == [
        {"a.0", "a.1", "b.0", "b.1", "c.0", "c.1"}
    ]
    assert partition.coefficient_kind() == "uni-module"


def test_pinched_torus_closure_exact_classes():
    partition = sweep_closure(builtin_space("pinched-torus"))
    assert partition.class_count == 2
    assert class_ids_sets(partition) == [
        {"a.0", "c.1", "tau.1"},
        {"a.1", "c.0", "sigma.1"},
    ]
    assert partition.coefficient_kind() == "bi-module"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_closure_single_class(n):
    partition = sweep_closure(builtin_space(f"sphere{n}"))
    assert partition.class_count == 1
    assert partition.coefficient_kind() == "uni-module"


def test_class_ids_are_least_members():
    partition = sweep_closure(builtin_space("pinched-torus"))
    assert partition.class_ids == ("a.0", "a.1")
    assert partition.class_of(partition.slots[0]) == "a.0"
    assert ids(partition.classes[1]) == ["a.1", "c.0", "sigma.1"]


def naive_least_members(size, pairs):
    """The least member of each u's class, by breadth-first search."""
    neighbours = [set() for _ in range(size)]
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    least = [None] * size
    for u in range(size):
        if least[u] is None:
            least[u], todo = u, [u]
            while todo:
                for v in neighbours[todo.pop()]:
                    if least[v] is None:
                        least[v] = u
                        todo.append(v)
    return least


def test_least_roots_matches_a_breadth_first_search():
    rng = random.Random(26)
    for trial in range(400):
        size = trial % 41
        pairs = [(rng.randrange(size), rng.randrange(size))
                 for _ in range(rng.randrange(2 * size + 1))] if size else []
        if size:
            u = rng.randrange(size)
            pairs += [(u, u)] + pairs[: rng.randrange(4)]  # a self-pair, repeats
        rng.shuffle(pairs)
        root = least_roots(size, pairs)
        assert root == naive_least_members(size, pairs), (size, pairs)
        assert all(root[u] <= u and root[root[u]] == root[u] for u in range(size))
        # the partition does not depend on the order of the pairs or within one
        flipped = [(b, a) for a, b in reversed(pairs)]
        assert least_roots(size, flipped) == root


def test_closure_idempotent():
    for name in BUILTINS:
        space = builtin_space(name)
        partition = sweep_closure(space)
        again = ActionPartition(partition.slots, closure_pairs(space))
        assert again.same_classes(partition)


def test_closure_scan_order_independent():
    for name in BUILTINS:
        space = builtin_space(name)
        reference = sweep_closure(space)
        for seed in range(5):
            pairs = closure_pairs(space)
            random.Random(seed).shuffle(pairs)
            shuffled = ActionPartition(enumerate_slots(space), pairs)
            assert shuffled.same_classes(reference)


@pytest.mark.parametrize("name", BUILTINS)
def test_paranoid_matches_generator_scan(name):
    space = builtin_space(name)
    reference = sweep_closure(space)
    for cap in range(space.max_dim + 1, 6):
        assert paranoid_closure(space, cap).same_classes(reference)


PARANOID_SPACES = (
    {name: builtin_space(name) for name in BUILTINS}
    | {label: space for label, space, _ in ROW_PAIRS_SPACES}
    | {"key-fields": parse_space(key_fields_doc())}
    | {"scan-blocks": parse_space(scan_blocks_doc())}
)


@pytest.mark.parametrize("name", PARANOID_SPACES)
def test_paranoid_matches_slow_reference(name):
    space = PARANOID_SPACES[name]
    # the scan-like space's cells reach dimension 6, so its caps are 7 and 8
    for cap in (space.max_dim + 1, space.max_dim + 2):
        expected = slow_paranoid_closure(space, cap).to_report()
        assert paranoid_closure(space, cap).to_report() == expected


@pytest.mark.parametrize("doc", BROKEN_DOCS, ids=[d["name"] for d in BROKEN_DOCS])
def test_paranoid_and_slow_reference_raise_the_same_internal_error(doc):
    space = parse_space(doc, validate=False)
    for cap in (3, 4):
        with pytest.raises(InternalError) as slow:
            slow_paranoid_closure(space, cap)
        with pytest.raises(InternalError) as fast:
            paranoid_closure(space, cap)
        assert str(fast.value) == str(slow.value)


def _one_vertex_doc(data, st):
    """A one-vertex space drawn by hypothesis, valid by construction.

    Edges are loops; each triangle face is an edge or s0 pt. A higher cell
    has every face at the degenerate basepoint, or the faces of s_k x for
    a drawn cell x of dimension >= 2, which satisfy the identities as s_k x
    does.
    """
    edges = [f"e{k}" for k in range(data.draw(st.integers(1, 3)))]
    simplices = [{"name": "pt", "dim": 0}]
    loop = [["pt", []], ["pt", []]]
    simplices += [{"name": e, "dim": 1, "faces": loop} for e in edges]
    face = st.sampled_from([[e, []] for e in edges] + [["pt", [0]]])
    for k in range(data.draw(st.integers(0, 4))):
        faces = data.draw(st.lists(face, min_size=3, max_size=3))
        simplices.append({"name": f"t{k}", "dim": 2, "faces": faces})
    for k in range(data.draw(st.integers(0, 3))):
        space = parse_space({"name": "x", "basepoint": "pt", "simplices": simplices})
        cells = [g for g in space.generators if g.dim >= 2]
        if cells and data.draw(st.booleans()):
            g = data.draw(st.sampled_from(cells))
            s = space.degeneracy(Simplex((), g), data.draw(st.integers(0, g.dim)))
            faces = [space.face(s, i) for i in range(s.dim + 1)]
            faces = [[f.base.name, list(f.word)] for f in faces]
            dim = g.dim + 1
        else:
            dim = data.draw(st.integers(3, 4))
            faces = [["pt", list(range(dim - 2, -1, -1))]] * (dim + 1)
        simplices.append({"name": f"c{k}", "dim": dim, "faces": faces})
    return {"name": "drawn", "basepoint": "pt", "simplices": simplices}


def test_paranoid_matches_slow_reference_and_sweep_on_drawn_spaces():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        space = parse_space(_one_vertex_doc(data, st))
        cap = space.max_dim + data.draw(st.integers(1, 2))
        fast = paranoid_closure(space, cap)
        assert fast.to_report() == slow_paranoid_closure(space, cap).to_report()
        assert fast.same_classes(sweep_closure(space))

    check()


def test_paranoid_scan_computes_each_face_once(monkeypatch):
    space = parse_space(SCAN_LIKE_DOC)
    # one row entry per (simplex, face index) over the generators the scan
    # builds: every generator's n-simplices, n = 1..8, but e1's, e2's and
    # e3's at 8, since no class has them first (e0 is) and only the rows of
    # level n + 1 point at their n-simplices
    expected = sum(
        (n + 1) * comb(n, g.dim)
        for n in range(1, 9)
        for g in space.generators
        if g is not space.basepoint and g.dim <= n
        and not (n == 8 and g.name in ("e1", "e2", "e3"))
    )
    calls = []
    face = SimplicialSpace.face

    def counting(self, s, i):
        calls.append((s, i))
        return face(self, s, i)

    monkeypatch.setattr(SimplicialSpace, "face", counting)
    levels = record_level_rows(monkeypatch, actions, cochain)
    paranoid_closure(space, 8)
    # the level scan calls no face; it builds one row entry per (simplex,
    # face index), each level once
    assert calls == []
    tables = level_tables(levels)
    built = [(s, k) for simplices, _, _ in tables for s in simplices
             for k in range(s.dim + 1)]
    assert len(built) == len(set(built)) == expected
    assert sum(len(row) for _, _, rows in tables for row in rows) == expected
    assert check_face_rows(space, tables) == expected
    # the point space has no non-basepoint simplex, so nothing to look up
    calls.clear()
    levels.clear()
    point = parse_space(
        {"name": "point", "basepoint": "pt", "simplices": [{"name": "pt", "dim": 0}]}
    )
    alg = ground_field()
    partition = ActionPartition(enumerate_slots(point), ())
    setup = CochainSetup(point, alg, identity_module(alg.field, 1, ()), partition, 50)
    assert setup.check_cosimplicial_identities() == []
    assert calls == []
    assert len(levels) == 52
    assert [row for _, rows in levels for row in rows] == []


def test_paranoid_scan_reads_one_degenerate_block_per_class(monkeypatch):
    # SCAN_LIKE_DOC's four edges have one neighbourhood key, and each
    # triangle and cell its own: row_pairs reads e0's degenerate simplices,
    # not e1's, e2's or e3's (3 x 35 of the 1,006 on levels 2..8), and every
    # generator at its own level
    space = parse_space(SCAN_LIKE_DOC)
    handed = []

    def recording(simplices, rows, lower, *clean):
        handed.extend(simplices)
        return row_pairs(simplices, rows, lower, *clean)

    monkeypatch.setattr(actions, "row_pairs", recording)
    assert paranoid_closure(space, 8).to_report() == slow_paranoid_closure(space, 8).to_report()
    assert len(handed) == len(set(handed))
    assert sum(1 for s in handed if s.word) == 901
    assert sorted(s.base.name for s in handed if not s.word) == [
        "c3", "c4", "c5", "c6", "t0", "t1", "t2", "t3", "t4", "t5"
    ]
    assert {s.base.name for s in handed if s.base.dim == 1} == {"e0"}


def test_paranoid_scan_builds_the_blocks_it_reads_and_their_faces(monkeypatch):
    space = parse_space(scan_blocks_doc())
    levels = record_level_rows(monkeypatch, actions)
    for cap in (4, 5):
        levels.clear()
        assert paranoid_closure(space, cap).to_report() == (
            slow_paranoid_closure(space, cap).to_report()
        )
    # e below every level h and t are read at, f at 1 and 2 for k alone, and
    # no other block of a class's later member
    assert [sorted({s.base.name for s in level}) for level, _ in levels] == [
        [], ["a", "e", "f"], ["a", "e", "f", "t"], ["a", "e", "h", "k", "t"],
        ["a", "e", "h", "t"], ["a", "h", "t"],
    ]
    # each level holds whole blocks, in name order, as space.simplices does
    for n, (level, _) in enumerate(levels):
        bases = {s.base for s in level}
        assert list(level) == [s for s in space.simplices(n) if s.base in bases]


def test_paranoid_scan_builds_fewer_rows_than_a_cochain_setup(monkeypatch):
    space = parse_space(SCAN_LIKE_DOC)
    levels = record_level_rows(monkeypatch, actions, cochain)
    paranoid_closure(space, 8)
    # every block but e1's, e2's and e3's at 8, as
    # test_paranoid_scan_computes_each_face_once counts
    assert [len(level) for level, _ in levels] == [0, 4, 14, 31, 57, 96, 156, 252, 386]
    levels.clear()
    alg, partition = ground_field(), sweep_closure(space)
    module = identity_module(alg.field, 1, partition.class_ids)
    CochainSetup(space, alg, module, partition, 7)
    assert [list(level) for level, _ in levels] == [
        [s for s in space.simplices(n) if not space.is_basepoint(s)] for n in range(9)
    ]
    assert [len(level) for level, _ in levels] == [0, 4, 14, 31, 57, 96, 156, 252, 410]


def named_space(name):
    """A builtin, or the scan-like or the multi-vertex test space."""
    if name == "scan-like":
        return parse_space(SCAN_LIKE_DOC)
    if name == "multi-vertex":
        return parse_space(multi_vertex_doc())
    return builtin_space(name)


@pytest.mark.parametrize("name", ("scan-like", "multi-vertex") + BUILTINS)
def test_basepoint_entries_number_the_slots_of_enumerate_slots(monkeypatch, name):
    space = named_space(name)
    slots = enumerate_slots(space)
    assert sweep_closure(space).slots == tuple(slots)
    top = max(8, space.max_dim + 2)
    numbered = set()
    for level, rows in level_rows(space, top):
        for s, row in zip(level, rows):
            for k, entry in enumerate(row):
                if entry < 0:
                    assert slots[~entry] == slot_at(s, k)
                    numbered.add(~entry)
    assert numbered == set(range(len(slots)))
    # closure_pairs' rows (check_face_rows) and the slot numbers it reads off them
    tables = record_face_rows(monkeypatch)
    pairs = closure_pairs(space)
    assert (check_face_rows(space, tables) > 0) == (space.max_dim >= 2)
    cells = [Simplex((), g) for g in sorted(space.generators, key=lambda g: g.name)
             if g.dim >= 2]
    if cells:
        rows, lower = tables[0][2], tables[1][2]
        assert pairs == [pair[2:] for pair in row_pairs(cells, rows, lower)]
        assert pairs == slot_numbers(
            space, informative(pair[2:] for s in cells for pair in slot_pairs(space, s))
        )


@pytest.mark.parametrize("name", ("scan-like", "multi-vertex") + BUILTINS)
def test_face_rows_match_face_and_level_pairs_match_slot_pairs(monkeypatch, name):
    space = named_space(name)
    top = max(8, space.max_dim + 2)
    assert mapped_level_pairs(space, top) == informative(slow_level_pairs(space, top))
    assert check_face_rows(space, level_tables(list(level_rows(space, top)))) == sum(
        (n + 1) * sum(1 for s in space.simplices(n) if not space.is_basepoint(s))
        for n in range(1, top + 1)
    )
    # the sweep's rows: the generators', then their faces' in order of use
    tables = record_face_rows(monkeypatch)
    sweep_closure(space)
    assert (check_face_rows(space, tables) > 0) == (space.max_dim >= 2)


def test_face_rows_match_face_on_drawn_spaces():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        space = parse_space(_one_vertex_doc(data, st))
        top = space.max_dim + data.draw(st.integers(1, 2))
        assert mapped_level_pairs(space, top) == informative(slow_level_pairs(space, top))
        levels = list(level_rows(space, top))
        assert check_face_rows(space, level_tables(levels)) > 0
        assert levels == list(face_rows_by_simplex(space, top))
        with pytest.MonkeyPatch.context() as monkeypatch:
            tables = record_face_rows(monkeypatch)
            closure_pairs(space)
            check_face_rows(space, tables)

    check()


def level_rows_spaces():
    """(label, space) for comparing level_rows with face_rows_by_simplex:
    non-basepoint vertices (empty face tables), faces degenerate over
    non-basepoint generators, and spaces that break the identities."""
    out = [(name, builtin_space(name)) for name in BUILTINS]
    docs = (SCAN_LIKE_DOC, WEDGE_DOC, BALLOON_DOC, SLOTLESS_DOC, TWO_EDGE_CIRCLE,
            multi_vertex_doc())
    out += [(doc["name"], parse_space(doc)) for doc in docs]
    out += [(doc["name"], parse_space(doc, validate=False)) for doc in BROKEN_DOCS]
    return out


LEVEL_ROWS_SPACES = level_rows_spaces()


@pytest.mark.parametrize("label,space", LEVEL_ROWS_SPACES,
                         ids=[label for label, _ in LEVEL_ROWS_SPACES])
def test_level_rows_are_the_rows_of_each_simplex(label, space):
    top = max(8, space.max_dim + 2)
    levels = list(level_rows(space, top))
    assert levels == list(face_rows_by_simplex(space, top))
    assert all(type(s) is Simplex for level, _ in levels for s in level)


def test_level_rows_walk_each_word_once_and_merge_each_face_once(monkeypatch):
    space = parse_space(SCAN_LIKE_DOC)
    generators = [g for g in space.generators if g is not space.basepoint]
    walks, merges = [], []
    walk, merge = actions._walk, actions._merge

    def walking(word, i):
        walks.append((word, i))
        return walk(word, i)

    def merging(outer, word):
        merges.append((outer, word))
        return merge(outer, word)

    def no_face(self, s, i):
        raise AssertionError(f"face {i} of {s!r} asked for")

    def no_simplices(self, n):
        raise AssertionError(f"the {n}-simplices asked for")

    monkeypatch.setattr(actions, "_walk", walking)
    monkeypatch.setattr(actions, "_merge", merging)
    monkeypatch.setattr(SimplicialSpace, "face", no_face)
    monkeypatch.setattr(SimplicialSpace, "simplices", no_simplices)
    walked = merged = 0
    for n, _ in enumerate(level_rows(space, 8)):
        # one walk per (dimension, word, face index) of the level
        dims = {g.dim for g in generators if g.dim <= n}
        words = [(combo[::-1], i) for d in dims
                 for combo in combinations(range(n), n - d) for i in range(n + 1)]
        assert sorted(walks) == sorted(words), n
        # at most one merge per face index, face (word, dimension) and word
        # kept by a walk that leaves that face index
        leaving = {}
        for word, i in words:
            kept, k = walk(word, i)
            if k is not None:
                leaving.setdefault((n - len(word), k), set()).add(kept)
        faces = {(g.dim, k, f.word, f.base.dim) for g in generators if g.dim <= n
                 for k, f in enumerate(g.faces) if not space.is_basepoint(f)}
        assert len(merges) <= sum(len(leaving[d, k]) for d, k, _, _ in faces), n
        walked += len(walks)
        merged += len(merges)
        walks.clear()
        merges.clear()
    # against 7,833 row entries
    assert (walked, merged) == (3963, 84)


@pytest.mark.parametrize("label,space,top", ROW_PAIRS_SPACES,
                         ids=[label for label, _, _ in ROW_PAIRS_SPACES])
def test_row_pairs_yield_what_the_full_pair_loop_yields(label, space, top):
    levels = list(level_rows(space, top))
    yielded = 0
    for n in range(2, top + 1):
        (level, rows), lower = levels[n], levels[n - 1][1]
        pairs = list(row_pairs(level, rows, lower))
        assert pairs == informative(slow_row_pairs(level, rows, lower)), n
        assert all(via_j != via_i for _, _, via_j, via_i in pairs), n
        yielded += len(pairs)
    assert yielded > 0
    if label == "scan-like":
        # of the 8,974 pairs slow_row_pairs yields, 7,406 pair a slot with itself
        assert yielded == 1568


# d_0 t is the degenerate basepoint, but d_0 d_1 t = d_0 f = v: on the
# degenerate s_2 t, faces 0,1 break the identity with d_0 at the basepoint
# and d_1 s_2 t = s_1 f, whose row holds no basepoint entry
BROKEN_AT_FACE_0_DOC = {
    "name": "broken-at-0",
    "basepoint": "pt",
    "simplices": [
        {"name": "pt", "dim": 0},
        {"name": "v", "dim": 0},
        {"name": "f", "dim": 1, "faces": [["v", []], ["pt", []]]},
        {"name": "t", "dim": 2, "faces": [["pt", [0]], ["f", []], ["f", []]]},
    ],
}


def outcome(pairs):
    """The list of pairs an iterator yields, less those of a slot with itself
    (informative), or the InternalError it raises."""
    try:
        return informative(pairs)
    except InternalError as exc:
        return str(exc)


@pytest.mark.parametrize("doc", BROKEN_DOCS + (BROKEN_AT_FACE_0_DOC,),
                         ids=[d["name"] for d in BROKEN_DOCS + (BROKEN_AT_FACE_0_DOC,)])
def test_row_pairs_raise_what_the_full_pair_loop_raises(doc):
    space = parse_space(doc, validate=False)
    levels = list(level_rows(space, 5))
    raised = 0
    for n in range(2, 6):
        (level, rows), lower = levels[n], levels[n - 1][1]
        expected = outcome(slow_row_pairs(level, rows, lower))
        assert outcome(row_pairs(level, rows, lower)) == expected, n
        raised += isinstance(expected, str)
    assert raised > 0


def test_paranoid_cap_precondition():
    space = builtin_space("sphere3")
    with pytest.raises(ValueError):
        paranoid_closure(space, space.max_dim)


@pytest.mark.parametrize("name,cap", [("circle", 9), ("torus", 6), ("sphere3", 12)])
def test_scan_size_counts_every_simplex(name, cap):
    space = builtin_space(name)
    assert scan_size(space, cap) == sum(len(space.simplices(n)) for n in range(2, cap + 1))


@pytest.mark.parametrize("name", ("scan-like", "broken") + BUILTINS)
def test_paranoid_visits_closed_form_matches_pair_count(name):
    if name == "scan-like":
        space = parse_space(SCAN_LIKE_DOC)
    elif name == "broken":  # a non-basepoint vertex counts as a generator too
        space = parse_space(BROKEN_AWAY_FROM_BASEPOINT_DOC, validate=False)
    else:
        space = builtin_space(name)
    for cap in range(space.max_dim + 1, 12):
        pairs = sum(
            comb(s.dim + 1, 2)
            for n in range(2, cap + 1)
            for s in space.simplices(n)
            if not space.is_basepoint(s)
        )
        assert paranoid_visits(space, cap) == pairs, cap


def test_paranoid_scan_above_limit_is_refused():
    space = builtin_space("circle")
    # circle: one n-simplex over pt and n over e, for n = 2..100000
    assert scan_size(space, 100000) == 99999 + 100000 * 100001 // 2 - 1
    # the n n-simplices over e make C(n + 1, 2) visits each
    visits = sum(comb(n + 1, 2) * n for n in range(2, 100001))
    assert paranoid_visits(space, 100000) == visits == 12500416670416674999
    with pytest.raises(
        ValueError, match=f"would make {visits} face-pair visits, more than the limit"
    ):
        paranoid_closure(space, 100000)
    scan_like = parse_space(SCAN_LIKE_DOC)
    assert paranoid_visits(scan_like, 8) < PARANOID_LIMIT
    assert paranoid_closure(scan_like, 8).same_classes(sweep_closure(scan_like))


def test_slots_point_at_basepoint_in_every_class():
    for name in BUILTINS:
        space = builtin_space(name)
        for cls in sweep_closure(space).classes:
            for slot in cls:
                face = space.face(Simplex((), slot.generator), slot.index)
                assert space.is_basepoint(face)


def test_report_shape():
    report = sweep_closure(builtin_space("pinched-torus")).to_report()
    assert report["class_count"] == 2
    assert report["coefficient_kind"] == "bi-module"
    assert report["slots"] == ["a.0", "a.1", "c.0", "c.1", "sigma.1", "tau.1"]
    assert report["classes"][0] == {"id": "a.0", "members": ["a.0", "c.1", "tau.1"]}


def test_multi_class_kind_naming():
    # two disjoint circles wedged at the basepoint: 4 independent slots
    doc = {
        "name": "wedge",
        "basepoint": "pt",
        "simplices": [
            {"name": "pt", "dim": 0},
            {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            {"name": "f", "dim": 1, "faces": [["pt", []], ["pt", []]]},
        ],
    }
    from hhx.simplicial import parse_space

    partition = sweep_closure(parse_space(doc))
    assert partition.class_count == 4
    assert partition.coefficient_kind() == "4-multi-module"


@pytest.mark.parametrize(
    "name,cap", [("scan-like", 8)] + [(name, 6) for name in BUILTINS]
)
def test_reduce_slot_matches_peeling_oracle(name, cap):
    space = parse_space(SCAN_LIKE_DOC) if name == "scan-like" else builtin_space(name)
    checked = 0
    for n in range(1, cap + 1):
        for s in space.simplices(n):
            if space.is_basepoint(s):
                continue
            for i in range(n + 1):
                if space.is_basepoint(space.face(s, i)):
                    assert reduce_slot(space, s, i) == slow_reduce_slot(space, s, i)
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "closure", [sweep_closure, lambda space: paranoid_closure(space, 3)],
    ids=["sweep", "paranoid"],
)
def test_broken_identity_at_basepoint_face_is_internal_error(closure):
    # faces 0,1 come first and are only seen when the way via i is followed
    space = parse_space(BROKEN_AT_BASEPOINT_DOC, validate=False)
    with pytest.raises(
        InternalError, match=r"faces 0,1 of Simplex\(t\) break the simplicial identity"
    ):
        closure(space)


@pytest.mark.parametrize(
    "closure", [sweep_closure, lambda space: paranoid_closure(space, 3)],
    ids=["sweep", "paranoid"],
)
def test_identity_broken_only_via_i_is_internal_error(closure):
    space = parse_space(BROKEN_VIA_I_ONLY_DOC, validate=False)
    assert validate_space(space) == [("t", 0, 1)]
    with pytest.raises(
        InternalError, match=r"faces 0,1 of Simplex\(t\) break the simplicial identity"
    ):
        closure(space)


@pytest.mark.parametrize(
    "closure", [sweep_closure, lambda space: paranoid_closure(space, 3)],
    ids=["sweep", "paranoid"],
)
def test_identity_broken_away_from_basepoint_is_internal_error(closure):
    # neither way reaches the basepoint, so only the generator's comparison
    # of its two double faces sees the break
    space = parse_space(BROKEN_AWAY_FROM_BASEPOINT_DOC, validate=False)
    assert validate_space(space) == [("t", 0, 2)]
    with pytest.raises(
        InternalError, match=r"faces 0,2 of Simplex\(t\) break the simplicial identity"
    ):
        closure(space)
