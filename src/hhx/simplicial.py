"""Finite pointed simplicial sets with a unique normal form per simplex.

Every simplex is stored as a pair (word, base): a strictly decreasing tuple
of degeneracy indices applied to a non-degenerate generator. The word
(j_0 > j_1 > ... > j_{r-1}) denotes s_{j_0} . s_{j_1} . ... . s_{j_{r-1}}
applied to the generator, leftmost applied last; a simplex is non-degenerate
iff its word is empty. Equality of simplices is plain tuple equality.

A face d_k is pushed through the word in one pass, outermost index first,
with the simplicial identities: below an index j it keeps s_{j-1}, above
j + 1 it keeps s_j and becomes d_{k-1}, and at j or j + 1 it cancels s_j.
What is kept is merged into the word of the generator's face table entry
(or, after a cancellation, is already the normal form). A degeneracy is the
same merge with a single index.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .errors import FormatError, ValidationError, _abridged, _clipped, _listed, read_json


class Generator:
    """A non-degenerate simplex: a name, a dimension and a face table.

    Faces are Simplex values of dimension dim-1 (possibly degenerate),
    listed in order d_0 .. d_dim; the table is empty for dim 0. Face tables
    are attached after all generators of a space exist, then never mutated.
    """

    __slots__ = ("name", "dim", "faces")

    def __init__(self, name: str, dim: int):
        self.name = name
        self.dim = dim
        self.faces: tuple[Simplex, ...] = ()

    def __repr__(self):
        return f"Generator({self.name!r}, dim={self.dim})"


class Simplex(NamedTuple):
    """Normal form (degeneracy word, generator); dim = base.dim + len(word)."""

    word: tuple[int, ...]
    base: Generator

    @property
    def dim(self) -> int:
        return self.base.dim + len(self.word)

    def label(self) -> str:
        if not self.word:
            return self.base.name
        return "".join(f"s{j}" for j in self.word) + "." + self.base.name

    def __repr__(self):
        return f"Simplex({self.label()})"


def word_is_valid(word: tuple[int, ...], base_dim: int) -> bool:
    """True when word is strictly decreasing and each index is applicable.

    The t-th index (outermost first) is applied to a simplex of dimension
    base_dim + len(word) - 1 - t, so it must not exceed that.
    """
    r = len(word)
    for t, j in enumerate(word):
        if j < 0 or j > base_dim + r - 1 - t:
            return False
        if t + 1 < r and word[t + 1] >= j:
            return False
    return True


def _walk(word: tuple[int, ...], i: int):
    """Push d_i through word, outermost index first: (kept, k) or (word', None).

    The face index k (initially i) keeps j - 1 when k < j, keeps j and drops
    to k - 1 when k > j + 1, and cancels s_j when k is j or j + 1; then the
    kept indices followed by the rest of the word, word', are the whole
    normal form over the same generator (k None). Otherwise d_k of the
    generator is left, with the kept indices to merge over it.
    """
    kept = []
    k = i
    for t, j in enumerate(word):
        if k < j:
            kept.append(j - 1)
        elif k > j + 1:
            kept.append(j)
            k -= 1
        else:
            return tuple(kept) + word[t + 1:], None
    return tuple(kept), k


def _face_of(base: Generator, walked):
    """(word, base) of the face that _walk left: walked = (kept, k) or (word', None).

    Plain pairs compare and hash like the Simplex of the same fields.
    """
    word, k = walked
    if k is None:
        return word, base
    f = base.faces[k]
    if not word:
        return f
    return _merge(word, f.word), f.base


def _merge(outer, word: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of s_{outer[0]} ... s_{outer[-1]} applied over word.

    Both are strictly decreasing. The outer indices stay as they are; an
    index x of word becomes the y not among them with y - #{a < y} = x,
    found by walking both lists from the top once.
    """
    out = []
    p = 0
    m = len(outer)
    for x in word:
        y = x + m - p
        while p < m and outer[p] >= y:
            out.append(outer[p])
            p += 1
            y -= 1
        out.append(y)
    out.extend(outer[p:])
    return tuple(out)


class SimplicialSpace:
    """A finite pointed simplicial set given by generators and face tables.

    factors is None, or a pair (X, Y) of spaces with this space isomorphic
    to X × Y; a cochain setup may then rank the total complex of the two
    (cochain.CochainSetup.cohomology_dims). The builtin torus sets it.
    """

    def __init__(self, name: str, generators, basepoint: Generator):
        self.name = name
        self.generators = tuple(generators)
        self.basepoint = basepoint
        self.factors = None

    @property
    def max_dim(self) -> int:
        return max(g.dim for g in self.generators)

    def is_basepoint(self, s: Simplex) -> bool:
        # every degeneracy of the basepoint normalizes to a word over it,
        # so basepoint-ness is just a base check
        return s.base is self.basepoint

    def face(self, s: Simplex, i: int) -> Simplex:
        """d_i(s) in normal form, in one pass over the word of s (_walk).

        Without a cancellation the kept indices are merged into
        base.faces[k] (_face_of).
        """
        word, base = s
        n = base.dim + len(word)
        if n == 0:
            raise ValueError(f"{s!r} has no faces")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dim {n}")
        return Simplex._make(_face_of(base, _walk(word, i)))

    def degeneracy(self, s: Simplex, i: int) -> Simplex:
        """s_i(s) in normal form: i merged into the word, one pass.

        Word indices >= i shift up by one and i follows them; this is the
        one-index case of the merge that face uses.
        """
        if not 0 <= i <= s.dim:
            raise ValueError(f"degeneracy index {i} out of range for dim {s.dim}")
        return Simplex(_merge((i,), s.word), s.base)

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """All n-simplices, ordered by (generator name, word).

        Includes the degenerate ones and the basepoint simplex (recognizable
        via is_basepoint).
        """
        # a reversed r-subset of 0..n-1 is a valid word over a generator of
        # dimension n - r, and every word is one (r = 0: the empty word);
        # tuple.__new__ skips the NamedTuple constructor's call
        return tuple(
            tuple.__new__(Simplex, (combo[::-1], g))
            for g in sorted(self.generators, key=lambda g: g.name)
            if g.dim <= n
            for combo in itertools.combinations(range(n), n - g.dim)
        )


def validate_space(space: SimplicialSpace) -> list[tuple[str, int, int]]:
    """Check d_i d_j = d_{j-1} d_i (i < j) on every generator of dim >= 2.

    Returns the list of violations as (generator name, i, j); empty = pass.
    """
    violations = []
    for g in space.generators:
        if g.dim < 2:
            continue
        s = Simplex((), g)
        for j in range(1, g.dim + 1):
            for i in range(j):
                lhs = space.face(space.face(s, j), i)
                rhs = space.face(space.face(s, i), j - 1)
                if lhs != rhs:
                    violations.append((g.name, i, j))
    return violations


def _parse_word(raw, context: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(j, int) and not isinstance(j, bool) for j in raw
    ):
        raise FormatError(f"{context}: degeneracy word must be a list of naturals")
    return tuple(raw)


def parse_space(doc, *, validate: bool = True) -> SimplicialSpace:
    """Build a space from its JSON document form.

    Face references may point at degenerate simplices (generator + word);
    they are stored as given, already in normal form. With validate=True
    (the default) a simplicial-identity violation raises ValidationError.
    """
    if not isinstance(doc, dict):
        raise FormatError("space document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str):
        raise FormatError('space document needs a string "name"')
    entries = doc.get("simplices")
    if not isinstance(entries, list) or not entries:
        raise FormatError('space document needs a non-empty "simplices" list')

    generators = []
    by_name = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("each simplex entry must be an object")
        gname = entry.get("name")
        gdim = entry.get("dim")
        if not isinstance(gname, str) or not gname:
            raise FormatError("simplex entry needs a string name")
        if not isinstance(gdim, int) or isinstance(gdim, bool) or gdim < 0:
            raise FormatError(f"simplex {_abridged(gname)}: dim must be a natural number")
        if gname in by_name:
            raise FormatError(f"duplicate generator name {_abridged(gname)}")
        g = Generator(gname, gdim)
        by_name[gname] = g
        generators.append(g)

    bp_name = doc.get("basepoint")
    if not isinstance(bp_name, str) or bp_name not in by_name:
        raise FormatError('space document needs a "basepoint" naming a generator')
    basepoint = by_name[bp_name]
    if basepoint.dim != 0:
        raise FormatError(f"basepoint {_abridged(bp_name)} must have dimension 0")

    for entry, raw in zip(generators, entries):
        raw_faces = raw.get("faces", [])
        label = _abridged(entry.name)
        if entry.dim == 0:
            if raw_faces:
                raise FormatError(f"generator {label} has dim 0 but lists faces")
            continue
        if not isinstance(raw_faces, list) or len(raw_faces) != entry.dim + 1:
            raise FormatError(
                f"generator {label} needs exactly {entry.dim + 1} faces"
            )
        faces = []
        for i, ref in enumerate(raw_faces):
            if not (isinstance(ref, list) and len(ref) == 2 and isinstance(ref[0], str)):
                raise FormatError(
                    f"face {i} of {label}: expected [generator, [word...]]"
                )
            target_name, raw_word = ref
            target = by_name.get(target_name)
            if target is None:
                raise FormatError(
                    f"face {i} of {label}: unknown generator {_abridged(target_name)}"
                )
            word = _parse_word(raw_word, f"face {i} of {label}")
            if not word_is_valid(word, target.dim):
                raise FormatError(
                    f"face {i} of {label}: word {_abridged(list(word))} is not in "
                    f"normal form over {_abridged(target_name)}"
                )
            if target.dim + len(word) != entry.dim - 1:
                raise FormatError(
                    f"face {i} of {label}: has dimension "
                    f"{target.dim + len(word)}, expected {entry.dim - 1}"
                )
            faces.append(Simplex(word, target))
        entry.faces = tuple(faces)

    space = SimplicialSpace(name, generators, basepoint)
    if validate:
        violations = validate_space(space)
        if violations:
            listing = _listed(violations, lambda v: f"({_clipped(v[0])}, d{v[1]}, d{v[2]})")
            err = ValidationError(f"simplicial identities violated: {listing}")
            err.violations = violations
            raise err
    return space


def load_space(path: str, *, validate: bool = True) -> SimplicialSpace:
    return parse_space(read_json(path), validate=validate)


# largest builtin sphere: its n + 1 face words of length n - 1 make the
# document and its validation cubic in n
SPHERE_LIMIT = 256


def _builtin_doc(name: str):
    if name == "circle":
        return {
            "name": "circle",
            "basepoint": "pt",
            "simplices": [
                {"name": "pt", "dim": 0},
                {"name": "e", "dim": 1, "faces": [["pt", []], ["pt", []]]},
            ],
        }
    # one spelling per sphere: ASCII digits, no leading zero
    m = re.fullmatch(r"sphere([1-9][0-9]*)", name)
    if m:
        digits = m.group(1)
        # the length first: int() refuses more than 4,300 digits
        if len(digits) > len(str(SPHERE_LIMIT)) or int(digits) > SPHERE_LIMIT:
            raise FormatError(
                f"sphere dimension must be between 1 and {SPHERE_LIMIT}, got {_clipped(digits)}"
            )
        n = int(digits)
        bp = ["pt", list(range(n - 2, -1, -1))]
        return {
            "name": name,
            "basepoint": "pt",
            "simplices": [
                {"name": "pt", "dim": 0},
                {"name": "sigma", "dim": n, "faces": [bp] * (n + 1)},
            ],
        }
    if name == "torus":
        edge = {"faces": [["pt", []], ["pt", []]]}
        return {
            "name": "torus",
            "basepoint": "pt",
            "simplices": [
                {"name": "pt", "dim": 0},
                {"name": "a", "dim": 1, **edge},
                {"name": "b", "dim": 1, **edge},
                {"name": "c", "dim": 1, **edge},
                {"name": "sigma", "dim": 2,
                 "faces": [["c", []], ["b", []], ["a", []]]},
                {"name": "tau", "dim": 2,
                 "faces": [["a", []], ["b", []], ["c", []]]},
            ],
        }
    if name == "pinched-torus":
        edge = {"faces": [["pt", []], ["pt", []]]}
        collapsed = ["pt", [0]]
        return {
            "name": "pinched-torus",
            "basepoint": "pt",
            "simplices": [
                {"name": "pt", "dim": 0},
                {"name": "a", "dim": 1, **edge},
                {"name": "c", "dim": 1, **edge},
                {"name": "sigma", "dim": 2,
                 "faces": [["c", []], collapsed, ["a", []]]},
                {"name": "tau", "dim": 2,
                 "faces": [["a", []], collapsed, ["c", []]]},
            ],
        }
    raise FormatError(f"unknown builtin space {_abridged(name)}")


def builtin_space(name: str) -> SimplicialSpace:
    """One of the built-in minimal pointed spaces.

    circle: one vertex and one edge. sphere<n> (1 <= n <= SPHERE_LIMIT): one
    vertex and one n-cell with every face at the (degenerate) basepoint.
    torus: one vertex, edges a, b, c and triangles sigma = [c, b, a],
    tau = [a, b, c]; it is circle × circle under a = (s0 pt, e), b = (e, e),
    c = (e, s0 pt), sigma = (s0 e, s1 e) and tau = (s1 e, s0 e), and has the
    two circles as its factors.
    pinched-torus: the torus with b collapsed to the basepoint.
    """
    space = parse_space(_builtin_doc(name))
    if name == "torus":
        space.factors = (builtin_space("circle"),) * 2
    return space
