"""Action slots of a pointed space and their equivalence closure.

A slot is a pair (non-degenerate simplex, face index) whose indexed face is
the basepoint; slots on degenerate simplices reduce to slots on their
underlying generator, at the face index that pushing the face through the
degeneracy word leaves (_face_rows). Scanning every generator of dimension
>= 2 produces forced identifications between slots (closure_pairs); their
union-find closure is the finest partition compatible with a cosimplicial
structure, and its class count says what kind of coefficient module the
space admits. Each class keys one action of the coefficient module
(ActionPartition.class_of); the partition in which every slot is its own
class, partition_from_pairs(enumerate_slots(space), ()), keys one action
per slot.

Faces are read from integer rows, one per simplex (_face_rows): entry k is
the position of d_k s among the faces below, or ~p where d_k s is the
basepoint and p is the number of its slot in enumerate_slots(space), the
order of every ActionPartition.slots of the space. This row format is the
public interface of level_rows, which tabulates every non-basepoint simplex
level by level, so each face is found once and none is built as a Simplex;
only this module decides which slot carries a basepoint face, and a reader
of the rows only tells a position (f >= 0) from a slot number (f < 0). One
pair routine on the rows (row_pairs) serves the sweep, the paranoid scan
and the cosimplicial identity check. The paranoid scan holds two levels at
a time, and a cochain setup keeps the rows of every level for its cofaces
and its identity check. The paranoid scan of the benchmark's actions-scan
space (seed 1) to dimension 8 takes 0.04-0.08 s in a fresh process (median
0.07 s of 8; 2-vCPU host, Python 3.11).
"""

from __future__ import annotations

from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalError, _abridged
from .simplicial import Generator, Simplex, SimplicialSpace, _merge, _walk


# most face-pair visits paranoid_closure makes (paranoid_visits): at the
# limit 0.6-0.8 s on the circle or the torus (0.15-0.19 microseconds a
# visit) and 1.8-2.5 s on sphere12, where most pairs reach the basepoint
# (0.45-0.62 microseconds a visit; 4,434,144 visits to dimension 18 took
# 2.0-2.7 s and 87 MiB); 2-vCPU host, Python 3.11
PARANOID_LIMIT = 4_000_000


class ActionSlot(NamedTuple):
    """A generator together with a face index pointing at the basepoint.

    A tuple, so it hashes and compares like the plain (generator, index)
    pair, by which _face_rows looks it up.
    """

    generator: Generator
    index: int

    @property
    def key(self) -> tuple[str, int]:
        return (self.generator.name, self.index)

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


class UnionFind:
    """Plain union-find with path compression over hashable items."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


class ActionPartition:
    """Slots partitioned into classes; class id = smallest member's id."""

    def __init__(self, slots, classes):
        self.slots = tuple(sorted(slots, key=lambda s: s.key))
        self.classes = tuple(
            sorted(
                (tuple(sorted(cls, key=lambda s: s.key)) for cls in classes),
                key=lambda cls: cls[0].key,
            )
        )
        covered = [s for cls in self.classes for s in cls]
        if sorted(covered, key=lambda s: s.key) != list(self.slots):
            raise InternalError("classes do not partition the slot set")
        self._class_of = {}
        for cls in self.classes:
            cid = cls[0].id
            for slot in cls:
                self._class_of[slot] = cid

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
    """(i, j, via_j, via_i) for each basepoint face d_i d_j s, s of dim >= 2.

    rows are the simplices' _face_rows and lower the rows of the faces they
    point at; via_j and via_i are slot numbers, as in the rows.

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
    call.
    """
    lower_clean = [min(row) >= 0 for row in lower]
    for s, row in zip(simplices, rows):
        both_ways = not s.word
        clean = not both_ways and min(row) >= 0
        for j in range(1, len(row)):
            at_j = row[j]
            if at_j >= 0:
                if clean and lower_clean[at_j]:
                    continue
                below_j = lower[at_j]
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


def closure_pairs(space: SimplicialSpace) -> list[tuple[ActionSlot, ActionSlot]]:
    """All identifications from scanning the generators of dimension >= 2.

    The generators' faces and those faces' faces are positioned in order of
    first use, since they need not fill whole levels.
    """
    cells = [
        Simplex((), g)
        for g in sorted(space.generators, key=lambda g: g.name)
        if g.dim >= 2
    ]
    slots = enumerate_slots(space)
    numbers = {slot: k for k, slot in enumerate(slots)}
    faces = _Positions()
    rows = _face_rows(space, cells, faces, numbers)
    lower = _face_rows(space, list(faces), _Positions(), numbers)
    return [(slots[a], slots[b]) for _, _, a, b in row_pairs(cells, rows, lower)]


def level_rows(space: SimplicialSpace, top: int):
    """(simplices, rows) for the non-basepoint n-simplices, n = 0..top.

    Each level is in space.simplices order, with one row per simplex (an
    empty row per vertex). Entry k of the row of s is an int f: f >= 0 is
    the position of d_k s in the level below's tuple, and f < 0 says d_k s
    is the basepoint, carried by the slot enumerate_slots(space)[~f]. Only
    the level below is held to build a level; basepoint simplices, whose
    faces row_pairs never asks for, get no row.
    """
    numbers = {slot: k for k, slot in enumerate(enumerate_slots(space))}
    level = tuple(s for s in space.simplices(0) if not space.is_basepoint(s))
    yield level, [()] * len(level)
    for n in range(1, top + 1):
        position = {s: p for p, s in enumerate(level)}
        level = tuple(s for s in space.simplices(n) if not space.is_basepoint(s))
        yield level, _face_rows(space, level, position, numbers)


def partition_from_pairs(slots, pairs) -> ActionPartition:
    uf = UnionFind(slots)
    for a, b in pairs:
        uf.union(a, b)
    return ActionPartition(slots, uf.classes())


def sweep_closure(space: SimplicialSpace) -> ActionPartition:
    """The finest slot partition closed under the face-scan identifications."""
    return partition_from_pairs(enumerate_slots(space), closure_pairs(space))


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
    is refused before it starts.
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
    for n, (level, rows) in enumerate(level_rows(space, dim_cap)):
        if n >= 2:
            pairs.update(map(itemgetter(2, 3), row_pairs(level, rows, lower)))
        lower = rows
    slots = enumerate_slots(space)
    return partition_from_pairs(slots, [(slots[a], slots[b]) for a, b in pairs])
