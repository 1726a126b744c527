"""Action slots of a pointed space and their equivalence closure.

A slot is a pair (non-degenerate simplex, face index) whose indexed face is
the basepoint; slots on degenerate simplices reduce to slots on their
underlying generator, with the index read off the degeneracy word
(slot_at). Scanning every generator of dimension >= 2 produces forced
identifications between slots (slot_pairs); their union-find closure is the
finest partition compatible with a cosimplicial structure, and its class
count says what kind of coefficient module the space admits. Each class
keys one action of the coefficient module (ActionPartition.class_of); the
partition in which every slot is its own class,
partition_from_pairs(enumerate_slots(space), ()), keys one action per slot.

The paranoid scan and the identity check run slot_pairs on every
non-basepoint simplex, level by level, reading faces from a table of two
levels (level_pairs), so each face is computed once.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import InternalError
from .simplicial import Generator, Simplex, SimplicialSpace


# most simplices paranoid_closure visits. It bounds the count, not the time:
# an n-simplex has C(n + 1, 2) face pairs. 85,257 simplices of dimensions
# 2..16 took 12 s (2-vCPU host, Python 3.11), so a scan near the limit runs
# for many minutes, and for hours if its simplices are of high dimension
PARANOID_LIMIT = 1_000_000


class ActionSlot(NamedTuple):
    """A generator together with a face index pointing at the basepoint."""

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


def slot_at(s: Simplex, i: int) -> ActionSlot:
    """The slot on s's generator behind face i of s; no checks.

    The caller knows that d_i s is the basepoint and s is not. Then d_i
    cancels no degeneracy, so neither i nor i - 1 is in s.word, and each
    word index below i drops the face index by one on its way to the
    generator.
    """
    return ActionSlot(s.base, i - sum(1 for j in s.word if j < i))


def reduce_slot(space: SimplicialSpace, s: Simplex, i: int) -> ActionSlot:
    """The slot on the underlying generator carrying the same action."""
    if space.is_basepoint(s):
        raise ValueError(f"{s!r} is the basepoint and carries no actions")
    if not space.is_basepoint(space.face(s, i)):
        raise ValueError(f"face {i} of {s!r} is not the basepoint")
    return slot_at(s, i)


def slot_pairs(space: SimplicialSpace, s: Simplex, face):
    """(i, j, via_j, via_i) for each basepoint face d_i d_j s, s of dim >= 2.

    face(x, k) = d_k x, asked of s and its non-basepoint faces only.

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
    their normal forms.
    """
    n = s.dim
    both_ways = not s.word
    is_basepoint = space.is_basepoint
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


def closure_pairs(space: SimplicialSpace) -> list[tuple[ActionSlot, ActionSlot]]:
    """All identifications from scanning the generators of dimension >= 2."""
    pairs = []
    for g in sorted(space.generators, key=lambda g: g.name):
        if g.dim >= 2:
            s = Simplex((), g)
            pairs.extend(pair[2:] for pair in slot_pairs(space, s, space.face))
    return pairs


def level_pairs(space: SimplicialSpace, top: int):
    """(n, i, j, via_j, via_i) from slot_pairs of every non-basepoint n-simplex.

    Levels n = 2..top, each in space.simplices order. The faces of each
    non-basepoint simplex of dims 1..top are computed once, interned to the
    objects of space.simplices, and kept in a table of the two levels
    slot_pairs reads; basepoint simplices, whose faces it never asks for,
    get no entry.
    """
    table = {}

    def lookup(x, k):
        return table[x][k]

    older = lower = ()
    for n in range(1, top + 1):
        intern = {f: f for f in space.simplices(n - 1)}
        level = [s for s in space.simplices(n) if not space.is_basepoint(s)]
        for s in older:
            del table[s]
        for s in level:
            table[s] = tuple([intern[space.face(s, k)] for k in range(n + 1)])
        if n >= 2:
            for s in level:
                for pair in slot_pairs(space, s, lookup):
                    yield (n, *pair)
        older, lower = lower, level


def partition_from_pairs(slots, pairs) -> ActionPartition:
    uf = UnionFind(slots)
    for a, b in pairs:
        uf.union(a, b)
    return ActionPartition(slots, uf.classes())


def sweep_closure(space: SimplicialSpace) -> ActionPartition:
    """The finest slot partition closed under the face-scan identifications."""
    return partition_from_pairs(enumerate_slots(space), closure_pairs(space))


def scan_size(space: SimplicialSpace, dim_cap: int) -> int:
    """Number of simplices of dimensions 2..dim_cap, basepoint ones included.

    A generator of dim d has C(n, d) n-simplices, and the sum of C(n, d)
    over n = 2..dim_cap is C(dim_cap + 1, d + 1) - C(2, d + 1).
    """
    return sum(
        comb(dim_cap + 1, g.dim + 1) - comb(2, g.dim + 1) for g in space.generators
    )


def paranoid_closure(space: SimplicialSpace, dim_cap: int) -> ActionPartition:
    """Same closure, but scanning every simplex (degenerate included).

    Scans dimensions 2..dim_cap and reduces each slot to its generator; the
    result should always equal sweep_closure, which only trusts generators.
    A scan of more than PARANOID_LIMIT simplices is refused before it starts.
    """
    if dim_cap < space.max_dim + 1:
        raise ValueError(
            f"dim_cap {dim_cap} must be at least max generator dimension + 1 "
            f"({space.max_dim + 1})"
        )
    size = scan_size(space, dim_cap)
    if size > PARANOID_LIMIT:
        raise ValueError(
            f"paranoid scan to dimension {dim_cap} would visit {size} simplices, "
            f"more than the limit of {PARANOID_LIMIT}"
        )
    pairs = {pair[3:] for pair in level_pairs(space, dim_cap)}
    return partition_from_pairs(enumerate_slots(space), pairs)
