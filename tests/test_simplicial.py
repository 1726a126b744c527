import itertools
from math import comb

import pytest

from helpers import BROKEN_DOCS, SCAN_LIKE_DOC, slot_at
from hhx.errors import FormatError, ValidationError
from hhx.simplicial import (
    Generator,
    Simplex,
    builtin_space,
    parse_space,
    validate_space,
    word_is_valid,
)

BUILTINS = ("circle", "sphere2", "sphere3", "sphere4", "torus", "pinched-torus")


def brute_force_words(base_dim, n):
    """All valid degeneracy words for an n-simplex over a base of base_dim.

    Independent of word_is_valid: simulates applying each index bottom-up
    and keeps a word only if every index was applicable at its turn.
    """
    r = n - base_dim
    if r < 0:
        return set()
    if r == 0:
        return {()}
    words = set()
    for combo in itertools.combinations(range(n), r):
        word = tuple(reversed(combo))
        dim = base_dim
        ok = True
        for j in reversed(word):
            if not 0 <= j <= dim:
                ok = False
                break
            dim += 1
        if ok:
            words.add(word)
    return words


# -- builtins and parsing ----------------------------------------------------


def test_circle_builtin():
    space = builtin_space("circle")
    assert sorted(g.name for g in space.generators) == ["e", "pt"]
    e = space.generator("e")
    assert e.dim == 1
    assert all(space.is_basepoint(f) for f in e.faces)


def test_sphere_builtin():
    space = builtin_space("sphere2")
    sigma = space.generator("sigma")
    assert sigma.dim == 2
    for f in sigma.faces:
        assert space.is_basepoint(f)
        assert f.dim == 1
    with pytest.raises(FormatError):
        builtin_space("sphere0")
    # one spelling per sphere: no leading zero, ASCII digits only
    for name in ("sphere01", "sphere002", "sphere\u0663"):
        with pytest.raises(FormatError, match="unknown builtin space"):
            builtin_space(name)
    with pytest.raises(FormatError):
        builtin_space("klein-bottle")


def test_torus_builtin_face_tables():
    space = builtin_space("torus")
    sigma = Simplex((), space.generator("sigma"))
    tau = Simplex((), space.generator("tau"))
    assert space.face(sigma, 0).base.name == "c"
    assert space.face(sigma, 1).base.name == "b"
    assert space.face(sigma, 2).base.name == "a"
    assert [space.face(tau, i).base.name for i in range(3)] == ["a", "b", "c"]


def test_pinched_torus_builtin_face_tables():
    space = builtin_space("pinched-torus")
    sigma = Simplex((), space.generator("sigma"))
    tau = Simplex((), space.generator("tau"))
    assert space.face(sigma, 0).base.name == "c"
    assert space.is_basepoint(space.face(sigma, 1))
    assert space.face(sigma, 2).base.name == "a"
    assert space.face(tau, 0).base.name == "a"
    assert space.is_basepoint(space.face(tau, 1))
    assert space.face(tau, 2).base.name == "c"


def test_parse_rejects_bad_face_dimension():
    doc = {
        "name": "broken",
        "basepoint": "p",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "q", "dim": 0},
            {"name": "T", "dim": 2, "faces": [["p", []], ["q", []], ["p", []]]},
        ],
    }
    with pytest.raises(FormatError, match="dimension"):
        parse_space(doc)


def test_parse_rejects_unknown_reference_and_bad_words():
    base = {
        "name": "bad",
        "basepoint": "p",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "e", "dim": 1, "faces": [["p", []], ["ghost", []]]},
        ],
    }
    with pytest.raises(FormatError, match="unknown generator"):
        parse_space(base)
    nonnormal = {
        "name": "bad",
        "basepoint": "p",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "e", "dim": 1, "faces": [["p", []], ["p", []]]},
            {"name": "f", "dim": 2, "faces": [["p", [0, 0]], ["p", [1, 0]], ["p", [1, 0]]]},
        ],
    }
    with pytest.raises(FormatError, match="normal form"):
        parse_space(nonnormal)


def test_parse_rejects_bad_basepoint():
    doc = {
        "name": "bad",
        "basepoint": "e",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "e", "dim": 1, "faces": [["p", []], ["p", []]]},
        ],
    }
    with pytest.raises(FormatError, match="dimension 0"):
        parse_space(doc)


def two_vertex_broken_space():
    # faces of T are inconsistent: d0 d0 = q but d0 d1 = p
    return {
        "name": "broken-identities",
        "basepoint": "p",
        "simplices": [
            {"name": "p", "dim": 0},
            {"name": "q", "dim": 0},
            {"name": "loop", "dim": 1, "faces": [["p", []], ["p", []]]},
            {"name": "arc", "dim": 1, "faces": [["q", []], ["p", []]]},
            {"name": "T", "dim": 2,
             "faces": [["arc", []], ["loop", []], ["loop", []]]},
        ],
    }


def test_validate_catches_identity_violation():
    doc = two_vertex_broken_space()
    space = parse_space(doc, validate=False)
    violations = validate_space(space)
    assert ("T", 0, 1) in violations
    with pytest.raises(ValidationError, match="simplicial identities"):
        parse_space(doc)


def test_one_vertex_torus_permutation_still_validates():
    # with a single vertex every vertex-level identity holds trivially
    doc = {
        "name": "permuted-torus",
        "basepoint": "pt",
        "simplices": [
            {"name": "pt", "dim": 0},
            {"name": "a", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            {"name": "b", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            {"name": "c", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            {"name": "sigma", "dim": 2, "faces": [["a", []], ["c", []], ["b", []]]},
            {"name": "tau", "dim": 2, "faces": [["a", []], ["b", []], ["c", []]]},
        ],
    }
    assert validate_space(parse_space(doc)) == []


def test_builtins_validate():
    for name in BUILTINS:
        assert validate_space(builtin_space(name)) == []


# -- normal-form calculus ----------------------------------------------------


def test_face_of_degenerate_circle_edge():
    space = builtin_space("circle")
    e = Simplex((), space.generator("e"))
    s0e = space.degeneracy(e, 0)
    assert s0e.word == (0,)
    assert space.face(s0e, 0) == e
    assert space.face(s0e, 1) == e
    assert space.face(s0e, 2) == Simplex((0,), space.basepoint)


def test_torus_middle_face():
    space = builtin_space("torus")
    sigma = Simplex((), space.generator("sigma"))
    assert space.face(sigma, 1) == Simplex((), space.generator("b"))


def test_degeneracy_insertion():
    space = builtin_space("circle")
    e = Simplex((), space.generator("e"))
    assert space.degeneracy(e, 0).word == (0,)
    s0e = space.degeneracy(e, 0)
    assert space.degeneracy(s0e, 0).word == (1, 0)
    pt = Simplex((), space.basepoint)
    assert space.degeneracy(pt, 0) == Simplex((0,), space.basepoint)


def test_degeneracy_words_stay_normal():
    space = builtin_space("sphere3")
    sigma = Simplex((), space.generator("sigma"))
    for order in itertools.permutations(range(3)):
        s = sigma
        for i in order:
            s = space.degeneracy(s, min(i, s.dim))
        assert word_is_valid(s.word, s.base.dim)


def test_index_range_errors():
    space = builtin_space("circle")
    e = Simplex((), space.generator("e"))
    with pytest.raises(ValueError):
        space.face(e, 2)
    with pytest.raises(ValueError):
        space.degeneracy(e, 3)
    with pytest.raises(ValueError):
        space.face(Simplex((), space.basepoint), 0)


def slow_degeneracy(s, i):
    """s_i(s) by sorted insertion of i into the word, indices >= i shifted."""
    head = []
    tail = s.word
    for t, j in enumerate(s.word):
        if i <= j:
            head.append(j + 1)
        else:
            tail = s.word[t:]
            break
    else:
        tail = ()
    return Simplex(tuple(head) + (i,) + tail, s.base)


def slow_face(s, i):
    """d_i(s) by peeling one degeneracy at a time and recursing."""
    if s.word:
        j = s.word[0]
        rest = Simplex(s.word[1:], s.base)
        if i == j or i == j + 1:
            return rest
        if i < j:
            return slow_degeneracy(slow_face(rest, i), j - 1)
        return slow_degeneracy(slow_face(rest, i - 1), j)
    return s.base.faces[i]


def assert_matches_slow_oracle(space, s):
    for i in range(s.dim + 1):
        if s.dim:
            got = space.face(s, i)
            assert got == slow_face(s, i), (s, i)
            assert word_is_valid(got.word, got.base.dim)
        up = space.degeneracy(s, i)
        assert up == slow_degeneracy(s, i), (s, i)
        assert word_is_valid(up.word, up.base.dim)


def test_face_and_degeneracy_match_slow_oracle_on_scan_like_space():
    space = parse_space(SCAN_LIKE_DOC)
    count = 0
    for n in range(9):
        for s in space.simplices(n):
            assert_matches_slow_oracle(space, s)
            count += 1
    assert count == sum(len(space.simplices(n)) for n in range(9)) > 1000


@pytest.mark.parametrize("name", BUILTINS)
def test_face_and_degeneracy_match_slow_oracle_on_builtins(name):
    space = builtin_space(name)
    for n in range(7):
        for s in space.simplices(n):
            assert_matches_slow_oracle(space, s)


def test_face_and_degeneracy_match_slow_oracle_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    space = parse_space(SCAN_LIKE_DOC)
    generators = sorted(space.generators, key=lambda g: g.name)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        g = data.draw(st.sampled_from(generators))
        n = g.dim + data.draw(st.integers(0, 6))
        # every strictly decreasing word of length n - g.dim over range(n)
        # is applicable to an n-simplex over g
        indices = data.draw(st.permutations(range(n)))[: n - g.dim]
        word = tuple(sorted(indices, reverse=True))
        s = Simplex(word, g)
        assert word_is_valid(word, g.dim)
        assert_matches_slow_oracle(space, s)

    check()


def test_simplex_equality_hash_and_labels():
    space = builtin_space("circle")
    e = space.generator("e")
    pt = space.basepoint
    s = Simplex((1, 0), e)
    assert s == Simplex(word=(1, 0), base=e)
    assert hash(s) == hash(Simplex((1, 0), e))
    # equal normal forms reached by different routes are equal
    via = space.degeneracy(space.degeneracy(Simplex((), e), 0), 0)
    assert via == s and hash(via) == hash(s)
    assert len({s, via, Simplex((1, 0), e)}) == 1
    assert s != Simplex((2, 0), e)
    assert s != Simplex((1, 0), pt)
    assert s != Simplex((1, 0), Generator("e", 1))  # same name, other generator
    assert (s.word, s.base) == ((1, 0), e)
    assert s.dim == 3 and s.word
    assert s.label() == "s1s0.e"
    assert repr(s) == "Simplex(s1s0.e)"
    plain = Simplex((), e)
    assert plain.dim == 1 and not plain.word
    assert plain.label() == "e"
    assert repr(plain) == "Simplex(e)"
    assert Simplex((1, 0), space.basepoint).label() == "s1s0.pt"


# -- enumeration ---------------------------------------------------------


def test_circle_enumeration_matches_example():
    space = builtin_space("circle")
    level2 = space.simplices(2)
    labels = [s.label() for s in level2]
    assert labels == ["s0.e", "s1.e", "s1s0.pt"]
    non_bp = [s for s in level2 if not space.is_basepoint(s)]
    assert len(non_bp) == 2


def test_sphere2_level3_count():
    space = builtin_space("sphere2")
    non_bp = [s for s in space.simplices(3) if not space.is_basepoint(s)]
    assert len(non_bp) == comb(3, 2)
    assert sorted(s.word for s in non_bp) == [(0,), (1,), (2,)]


def test_level_zero_is_vertices():
    for name in BUILTINS:
        space = builtin_space(name)
        level0 = space.simplices(0)
        assert all(s.dim == 0 and not s.word for s in level0)
        assert {s.base.name for s in level0} == {
            g.name for g in space.generators if g.dim == 0
        }


def test_enumeration_matches_brute_force_and_closed_form():
    for name in BUILTINS:
        space = builtin_space(name)
        for n in range(7):
            level = space.simplices(n)
            assert len(set(level)) == len(level)
            for g in space.generators:
                words = {s.word for s in level if s.base is g}
                assert words == brute_force_words(g.dim, n)
                if n >= g.dim:
                    assert len(words) == comb(n, n - g.dim)


# -- simplicial identities on all simplices ----------------------------------


def all_simplices_up_to(space, top):
    for n in range(top + 1):
        yield from space.simplices(n)


@pytest.mark.parametrize("name", BUILTINS)
def test_face_face_identity(name):
    space = builtin_space(name)
    for s in all_simplices_up_to(space, 5):
        if s.dim < 2:
            continue
        for j in range(1, s.dim + 1):
            for i in range(j):
                assert space.face(space.face(s, j), i) == space.face(
                    space.face(s, i), j - 1
                )


# the codegeneracy relations of the cosimplicial identities come down to
# these two, which read no face table entry or slot the two sides could
# disagree on, so they hold on spaces that break d_i d_j = d_{j-1} d_i too
# and check_cosimplicial_identities leaves them out
WITH_BROKEN = pytest.mark.parametrize(
    "space",
    [builtin_space(name) for name in BUILTINS]
    + [parse_space(doc, validate=False) for doc in BROKEN_DOCS],
    ids=lambda space: space.name,
)


@WITH_BROKEN
def test_degeneracy_degeneracy_identity(space):
    for s in all_simplices_up_to(space, 5):
        for i in range(s.dim + 1):
            for j in range(i, s.dim + 1):
                assert space.degeneracy(space.degeneracy(s, j), i) == space.degeneracy(
                    space.degeneracy(s, i), j + 1
                )


@WITH_BROKEN
def test_mixed_identity(space):
    slots = 0
    for s in all_simplices_up_to(space, 5):
        for j in range(s.dim + 1):
            target = space.degeneracy(s, j)
            for i in range(target.dim + 1):
                got = space.face(target, i)
                if i == j or i == j + 1:
                    assert got == s
                    continue
                k = i if i < j else i - 1
                down = space.face(s, k)
                assert got == space.degeneracy(down, j - 1 if i < j else j)
                # at the basepoint both sides apply the same slot's action
                if space.is_basepoint(down) and not space.is_basepoint(s):
                    assert slot_at(target, i) == slot_at(s, k)
                    slots += 1
    assert slots > 0


@pytest.mark.parametrize("name", BUILTINS)
def test_degeneracy_then_face_recovers(name):
    space = builtin_space(name)
    for s in all_simplices_up_to(space, 4):
        for i in range(s.dim + 1):
            up = space.degeneracy(s, i)
            assert space.face(up, i) == s
            assert space.face(up, i + 1) == s


@pytest.mark.parametrize("name", BUILTINS)
def test_basepoint_degeneracies_recognized(name):
    space = builtin_space(name)
    for n in range(6):
        bp = Simplex(tuple(range(n - 1, -1, -1)), space.basepoint)
        assert space.is_basepoint(bp)
        candidates = [s for s in space.simplices(n) if space.is_basepoint(s)]
        assert candidates == [bp]
        for i in range(n + 1):
            assert space.is_basepoint(space.degeneracy(bp, i))
        if n:
            for i in range(n + 1):
                assert space.is_basepoint(space.face(bp, i))

