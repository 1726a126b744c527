"""Action slots of a pointed space and their equivalence closure.

A slot is a pair (non-degenerate simplex, face index) whose indexed face is
the basepoint; slots on degenerate simplices reduce to slots on their
underlying generator, at the face index that pushing the face through the
degeneracy word leaves (_face_rows). Scanning every generator of dimension
>= 2 produces forced identifications between slots (closure_pairs), as
pairs of slot numbers: slot k is enumerate_slots(space)[k]. Their closure,
ActionPartition(slots, pairs), is the finest partition compatible with a
cosimplicial structure, and its class count says what kind of coefficient
module the space admits; least_roots, the one union-find on integers (the
module summands of a cochain setup use it too), finds its classes. Each
class keys one action of the coefficient module (ActionPartition.class_of);
the partition in which every slot is its own class,
ActionPartition(enumerate_slots(space), ()), keys one action per slot.

Faces are read from integer rows, one per simplex: entry k is the position
of d_k s among the faces below, or ~p where d_k s is the basepoint and p is
the number of its slot in enumerate_slots(space), the order of every
ActionPartition.slots of the space. This row format is the public interface
of level_rows, which tabulates every non-basepoint simplex level by level.
The simplices over the generators of one dimension share their degeneracy
words, so a level walks each word once per face index (_template), merges
each kept word once per face index and face, and reads each generator's
rows out of one list of face positions and slot numbers; no face is built
as a Simplex. The sweep, which needs only the generators and their faces,
builds its rows simplex by simplex (_face_rows). Only this module decides
which slot carries a basepoint face, and a reader of the rows only tells a
position (f >= 0) from a slot number (f < 0). One pair routine on the rows
(row_pairs) serves the sweep, the paranoid scan and the cosimplicial
identity check; it yields no pair of a slot with itself. The paranoid scan
holds two levels at a time, and a cochain setup keeps the rows of every
level for its cofaces and its identity check. The paranoid scan of the
benchmark's actions-scan space (seed 1) to dimension 8 takes 27-39 ms in a
fresh process (median 31 ms of 15; 2-vCPU host, Python 3.11).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalError, _abridged
from .simplicial import Generator, Simplex, SimplicialSpace, _merge, _walk


# most face-pair visits paranoid_closure makes (paranoid_visits), timed
# with the face rows built: at the limit 0.24-0.48 s on the circle or the
# torus (0.06-0.12 microseconds a visit) and 1.2-2.0 s on sphere12, where
# most pairs reach the basepoint (0.30-0.49 microseconds a visit; 4,434,144
# visits to dimension 18 took 1.3-1.9 s and 72 MiB); 2-vCPU host, Python 3.11
PARANOID_LIMIT = 4_000_000


class ActionSlot(NamedTuple):
    """A generator together with a face index pointing at the basepoint.

    A tuple, so it hashes and compares like the plain (generator, index)
    pair, by which _face_rows and level_rows look it up.
    """

    generator: Generator
    index: int

    @property
    def id(self) -> str:
        return f"{self.generator.name}.{self.index}"

    def describe(self) -> str:
        """Slot id, annotated forward/backward on edges."""
        if self.generator.dim == 1:
            return f"{self.id} ({'forward' if self.index == 0 else 'backward'})"
        return self.id

    def __repr__(self):
        return f"ActionSlot({self.id})"


def least_roots(size: int, pairs) -> list[int]:
    """root[u] for u < size: the least member of u's class, the classes
    being those of the equivalence the pairs (a, b) of ints < size generate.

    Union-find with path halving in which the least index becomes the root,
    so root[u] <= u throughout; in increasing order root[root[u]] is then
    already final, and one pass leaves every root[u] the least member.
    """
    root = list(range(size))
    for a, b in pairs:
        while a != root[a]:
            root[a] = a = root[root[a]]
        while b != root[b]:
            root[b] = b = root[root[b]]
        root[max(a, b)] = min(a, b)
    for u in range(size):
        root[u] = root[root[u]]
    return root


class ActionPartition:
    """The classes of slots, numbered in order, under pairs of slot numbers.

    slots come in enumerate_slots order, sorted by (generator name, index);
    least_roots finds the classes, so they come out in order of their least
    members, each in slot order, and a class id is its least member's id.
    """

    def __init__(self, slots, pairs):
        self.slots = tuple(slots)
        root = least_roots(len(self.slots), pairs)
        classes = {}
        for slot, r in zip(self.slots, root):
            classes.setdefault(r, []).append(slot)
        self.classes = tuple(map(tuple, classes.values()))
        self._class_of = {slot: self.slots[r].id for slot, r in zip(self.slots, root)}

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def class_ids(self) -> tuple[str, ...]:
        return tuple(cls[0].id for cls in self.classes)

    def class_of(self, slot: ActionSlot) -> str:
        try:
            return self._class_of[slot]
        except KeyError:
            raise InternalError(f"{slot!r} is not a slot of this space") from None

    def coefficient_kind(self) -> str:
        k = self.class_count
        if k == 1:
            return "uni-module"
        if k == 2:
            return "bi-module"
        return f"{k}-multi-module"

    def to_report(self) -> dict:
        return {
            "slots": [s.id for s in self.slots],
            "classes": [
                {"id": cls[0].id, "members": [s.id for s in cls]}
                for cls in self.classes
            ],
            "class_count": self.class_count,
            "coefficient_kind": self.coefficient_kind(),
        }

    def same_classes(self, other: "ActionPartition") -> bool:
        return self.slots == other.slots and self.classes == other.classes

    def __repr__(self):
        return f"ActionPartition({self.class_count} classes on {len(self.slots)} slots)"


def enumerate_slots(space: SimplicialSpace) -> list[ActionSlot]:
    """All (generator, i) with the i-th face at the basepoint, in order."""
    slots = []
    for g in sorted(space.generators, key=lambda g: g.name):
        if g is space.basepoint or g.dim == 0:
            continue
        for i, f in enumerate(g.faces):
            if space.is_basepoint(f):
                slots.append(ActionSlot(g, i))
    return slots


class _Positions(dict):
    """Each key's position in order of first lookup; a missing key is added."""

    def __missing__(self, key):
        self[key] = position = len(self)
        return position


def _face_rows(space: SimplicialSpace, simplices, position, slots) -> list[tuple]:
    """One tuple of ints per simplex (none the basepoint, all of dim >= 1).

    Entry k is position[d_k s], the face's place in the level below, looked
    up by its plain (word, base) pair; when d_k s is the basepoint it is
    ~slots[generator, index] instead, with slots mapping the k-th slot of
    enumerate_slots(space) to k. Each (word, generator dimension) is walked
    once per call for all its face indices (_walk), and no face is built as
    a Simplex.

    A walk that cancels a degeneracy leaves a face over s's own generator,
    never the basepoint. Otherwise it leaves the generator's face k with
    the kept indices to merge over it; a face the generator's table already
    holds in normal form is looked up as it stands. When that face is the
    basepoint, no degeneracy of s cancelled, so each word index below the
    face index dropped it by one on the way and (base, k) is the slot
    behind it.
    """
    basepoint = space.basepoint
    walks = {}
    rows = []
    for s in simplices:
        word, base = s
        walked = walks.get((word, base.dim))
        if walked is None:
            faces = range(base.dim + len(word) + 1)
            walked = walks[word, base.dim] = [_walk(word, k) for k in faces]
        faces = base.faces
        row = []
        for kept, k in walked:
            if k is None:
                row.append(position[kept, base])
            elif (f := faces[k]).base is basepoint:
                row.append(~slots[base, k])
            elif kept:
                row.append(position[_merge(kept, f.word), f.base])
            else:
                row.append(position[f])
        rows.append(tuple(row))
    return rows


def row_pairs(simplices, rows, lower):
    """(i, j, via_j, via_i) for each basepoint face d_i d_j s, s of dim >= 2,
    reached through two different slots (via_j != via_i).

    rows are the simplices' _face_rows and lower the rows of the faces they
    point at; via_j and via_i are slot numbers, as in the rows. A pair of a
    slot with itself identifies nothing and acts alike in any module, so it
    is not yielded.

    For i < j the face d_i d_j s = d_{j-1} d_i s is reached two ways. When
    it is the basepoint, via_j is the slot carrying it via j (on s if d_j s
    is the basepoint, else on d_j s at i) and via_i the slot carrying it via
    i (on s if d_i s is the basepoint, else on d_i s at j - 1); a module
    must act equally on the two. One way reaching the basepoint and the
    other not, or, on a generator, two different double faces, break the
    simplicial identity (InternalError). A generator is checked both ways
    round; on a degenerate simplex, with neither d_i s nor d_j s at the
    basepoint, the way via i is only followed once the way via j has
    reached it, since degenerate simplices inherit the identities through
    their normal forms. So on a degenerate simplex whose row holds no
    basepoint entry, an index j whose face's row holds none either yields
    nothing, and is passed over in one test instead of one per i; whether
    a row (never empty: every face has dim >= 1) holds one is found once per
    call. Where d_j s is the basepoint, via_j is read once per j.
    """
    lower_clean = [min(row) >= 0 for row in lower]
    for s, row in zip(simplices, rows):
        both_ways = not s.word
        clean = not both_ways and min(row) >= 0
        for j in range(1, len(row)):
            at_j = row[j]
            if at_j < 0:
                via_j = ~at_j
            elif clean and lower_clean[at_j]:
                continue
            else:
                below_j = lower[at_j]
            for i in range(j):
                at_i = row[i]
                if at_j >= 0:
                    if (by_j := below_j[i]) < 0:
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
                if via_j == via_i and (via_j is not None or by_j == by_i):
                    continue
                if via_j is None or via_i is None:
                    raise InternalError(
                        f"faces {i},{j} of {s!r} break the simplicial identity"
                    )
                yield i, j, via_j, via_i


def closure_pairs(space: SimplicialSpace) -> list[tuple[int, int]]:
    """All identifications from scanning the generators of dimension >= 2, as
    pairs of slot numbers.

    The generators' faces and those faces' faces are positioned in order of
    first use, since they need not fill whole levels, and their rows are
    found simplex by simplex (_face_rows): level_rows would walk every word
    of a level, C(19, 10) = 92,378 of them for a 20-cell with a face over a
    10-cell.
    """
    cells = [
        Simplex((), g)
        for g in sorted(space.generators, key=lambda g: g.name)
        if g.dim >= 2
    ]
    numbers = {slot: k for k, slot in enumerate(enumerate_slots(space))}
    faces = _Positions()
    rows = _face_rows(space, cells, faces, numbers)
    lower = _face_rows(space, list(faces), _Positions(), numbers)
    return [pair[2:] for pair in row_pairs(cells, rows, lower)]


def _template(n: int, d: int, below):
    """(words, getters, kept) shared by the n-simplices over every generator
    of dimension d.

    words numbers the words of those simplices in space.simplices order;
    below numbers the words of the (n - 1)-simplices over such a generator
    (None when d = n). A generator's rows are read from one value list: the
    positions of its own block of the level below, then for each face index
    k one entry per word of kept[k], the kept indices that walks leaving
    face k of the generator carry. getters[p] reads the row of words' p-th
    word from that list (_walk, once per word and face index).

    kept[k] holds every word u of the (n - 1)-simplices over a (d - 1)-cell,
    C(n - 1, d - 1) of them, so each block's place in the value list is
    known before the walks fill it: s_u d_k is a monotone map [n - 1] -> [d]
    that misses k, and so a surjection [n] -> [d] after the coface that
    inserts a point sent to k, that is d_i s_w for some word w and index i.
    """
    own = len(below) if below else 0
    size = comb(n - 1, d - 1) if d else 0
    words = {}
    kept = [{} for _ in range(d + 1)]
    getters = []
    for combo in combinations(range(n), n - d):
        word = combo[::-1]
        words[word] = len(words)
        entries = []
        for i in range(n + 1):
            rest, k = _walk(word, i)
            if k is None:
                entries.append(below[rest])
            else:
                entries.append(own + k * size + kept[k].setdefault(rest, len(kept[k])))
        getters.append(itemgetter(*entries))
    return words, getters, kept


def level_rows(space: SimplicialSpace, top: int):
    """(simplices, rows) for the non-basepoint n-simplices, n = 0..top.

    Each level is in space.simplices order, with one row per simplex (an
    empty row per vertex). Entry k of the row of s is an int f: f >= 0 is
    the position of d_k s in the level below's tuple, and f < 0 says d_k s
    is the basepoint, carried by the slot enumerate_slots(space)[~f]. Only
    the level below is held to build a level; basepoint simplices, whose
    faces row_pairs never asks for, are neither built nor given a row.

    The simplices over generators of one dimension d share their words, so
    each level builds one _template per d and each generator one value list:
    ~slot where face k of the generator is the basepoint, else the place of
    each kept word merged over face k, merged once per level, face index
    and face (word, dimension). Each row is then one itemgetter call, and
    each simplex one tuple of a template word and its generator.
    """
    basepoint = space.basepoint
    numbers = {slot: k for k, slot in enumerate(enumerate_slots(space))}
    generators = sorted(space.generators, key=lambda g: g.name)
    generators.remove(basepoint)
    level = tuple(Simplex((), g) for g in generators if not g.dim)
    yield level, [()] * len(level)
    offsets = {s.base: p for p, s in enumerate(level)}
    words = {0: {(): 0}}
    for n in range(1, top + 1):
        cells = [g for g in generators if g.dim <= n]
        templates = {d: _template(n, d, words.get(d)) for d in {g.dim for g in cells}}
        below, offsets = offsets, {}
        merged, level, rows = {}, [], []
        for g in cells:
            cell_words, getters, kept = templates[g.dim]
            level += [tuple.__new__(Simplex, (word, g)) for word in cell_words]
            offsets[g], start = len(rows), below.get(g, 0)
            values = list(range(start, start + len(words.get(g.dim, ()))))
            for k, f in enumerate(g.faces):
                if f.base is basepoint:
                    values += [~numbers[g, k]] * len(kept[k])
                    continue
                key = (k, f.word, f.base.dim)
                if key not in merged:
                    merged[key] = [words[f.base.dim][_merge(w, f.word)] for w in kept[k]]
                values += [below[f.base] + j for j in merged[key]]
            rows += [get(values) for get in getters]
        words = {d: template[0] for d, template in templates.items()}
        yield tuple(level), rows


def sweep_closure(space: SimplicialSpace) -> ActionPartition:
    """The finest slot partition closed under the face-scan identifications."""
    return ActionPartition(enumerate_slots(space), closure_pairs(space))


def paranoid_visits(space: SimplicialSpace, dim_cap: int) -> int:
    """Face-pair visits of a paranoid scan to dim_cap, from the generators.

    Each non-basepoint n-simplex, n = 2..dim_cap, is visited once per pair
    i < j of its face indices. A generator of dim d has C(n, d) n-simplices;
    C(n + 1, 2) C(n, d) = C(d + 2, 2) C(n, d + 2) + (d + 1)^2 C(n, d + 1)
    + C(d + 1, 2) C(n, d), the sum of C(n, k) over n = 0..N is
    C(N + 1, k + 1), and the terms n = 0, 1 of the sum come to C(1, d).
    """
    top = dim_cap + 1
    return sum(
        comb(d + 2, 2) * comb(top, d + 3)
        + (d + 1) ** 2 * comb(top, d + 2)
        + comb(d + 1, 2) * comb(top, d + 1)
        - comb(1, d)
        for d in (g.dim for g in space.generators if g is not space.basepoint)
    )


def paranoid_closure(space: SimplicialSpace, dim_cap: int) -> ActionPartition:
    """Same closure, but scanning every simplex (degenerate included).

    Scans dimensions 2..dim_cap and reduces each slot to its generator; the
    result should always equal sweep_closure, which only trusts generators.
    A scan of more than PARANOID_LIMIT face-pair visits (paranoid_visits)
    is refused before it starts. A scan with no visit to make, such as the
    point's, builds no level past dimension 1, since no level 2..dim_cap
    holds a non-basepoint simplex; so any cap costs the same.
    """
    if dim_cap < space.max_dim + 1:
        raise ValueError(
            f"dim_cap {_abridged(dim_cap)} must be at least max generator "
            f"dimension + 1 ({space.max_dim + 1})"
        )
    visits = paranoid_visits(space, dim_cap)
    if visits > PARANOID_LIMIT:
        raise ValueError(
            f"paranoid scan to dimension {_abridged(dim_cap)} would make "
            f"{_abridged(visits)} face-pair visits, more than the limit of "
            f"{PARANOID_LIMIT}"
        )
    pairs = set()
    for n, (level, rows) in enumerate(level_rows(space, dim_cap if visits else 1)):
        if n >= 2:
            pairs.update(map(itemgetter(2, 3), row_pairs(level, rows, lower)))
        lower = rows
    return ActionPartition(enumerate_slots(space), pairs)
