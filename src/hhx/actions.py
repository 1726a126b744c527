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
of level_rows, which tabulates the non-basepoint simplices level by level,
all of them or those over chosen generators.
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
level for its cofaces and its identity check. Generators whose faces look
alike from the basepoint fall into one class, and the paranoid scan reads
the degenerate simplices of one generator per class (paranoid_closure) and
builds the rows of only those and of the simplices they point at
(_scan_blocks): on the benchmark's actions-scan space (seed 1), whose 94
generators fall into 16 classes, it hands row_pairs 1,380 simplices and
builds 1,761 of the 6,492 rows to dimension 8, and the scan takes
10.1-16.9 ms in a fresh process (median 10.6 ms of 15, where building every
row took 14.4-19.2 ms, median 15.6 ms; 2-vCPU host, Python 3.11).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalError, _abridged
from .simplicial import Generator, Simplex, SimplicialSpace, _merge, _walk


# most face-pair visits a paranoid scan may count (paranoid_visits): every
# pair i < j on every simplex, which bounds from above what row_pairs reads
# now that it reads one generator's degenerate simplices per class. Timed
# with the face rows built: the circle to dimension 74 (3,919,224 visits)
# 0.33-0.67 s, the torus to 31 (3,478,197) 0.21-0.50 s, and sphere12, where
# most pairs reach the basepoint, to 18 (4,434,144) 1.36-2.12 s and 71 MiB;
# 2-vCPU host, Python 3.11
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


def row_pairs(simplices, rows, lower, lower_clean=None):
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
    call, unless the caller passes lower_clean, whether each lower row holds
    none. Where d_j s is the basepoint, via_j is read once per j.
    """
    lower_clean = lower_clean or [min(row) >= 0 for row in lower]
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


def level_rows(space: SimplicialSpace, top: int, blocks=None):
    """(simplices, rows) for the non-basepoint n-simplices, n = 0..top.

    Each level is in space.simplices order, with one row per simplex (an
    empty row per vertex). Entry k of the row of s is an int f: f >= 0 is
    the position of d_k s in the level below's tuple, and f < 0 says d_k s
    is the basepoint, carried by the slot enumerate_slots(space)[~f]. Only
    the level below is held to build a level; basepoint simplices, whose
    faces row_pairs never asks for, are neither built nor given a row.

    blocks, when given, holds a set of generators per level n = 0..top, and
    only the n-simplices over those are built, in the same order. The rows
    over a generator g at level n point at the (n - 1)-simplices over g when
    g.dim < n and over each face base of g, so blocks must be closed
    downward: each such generator is in blocks[n - 1]. A row that would
    point at a block left out fails its lookup (KeyError) instead.

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

    def cells(n):
        return [g for g in generators if g.dim <= n and (blocks is None or g in blocks[n])]

    level = tuple(Simplex((), g) for g in cells(0))
    yield level, [()] * len(level)
    offsets = {s.base: p for p, s in enumerate(level)}
    words = {0: {(): 0}}
    for n in range(1, top + 1):
        built = cells(n)
        templates = {
            d: _template(n, d, words[d] if d < n else None) for d in {g.dim for g in built}
        }
        below, offsets = offsets, {}
        merged, level, rows = {}, [], []
        for g in built:
            cell_words, getters, kept = templates[g.dim]
            level += [tuple.__new__(Simplex, (word, g)) for word in cell_words]
            offsets[g], values = len(rows), []
            if g.dim < n:
                values = list(range(below[g], below[g] + len(words[g.dim])))
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


def _neighbourhood(g: Generator, basepoint: Generator, numbers):
    """(key, slots) of a generator g for paranoid_closure's classes.

    Entry k of key is None where d_k g is the basepoint, else (word, B(base),
    local id of the base): B(x) lists the indices of x's basepoint faces,
    and local ids number the distinct face bases in order of first
    appearance. The key holds no dimension, since its length fixes g's and
    a word's length then fixes its base's. slots lists the slot numbers of
    g's basepoint faces, then those of each distinct face base, in order.
    """
    def own(x):
        return tuple(k for k, f in enumerate(x.faces) if f.base is basepoint)

    bases = list(dict.fromkeys(f.base for f in g.faces if f.base is not basepoint))
    key = tuple(
        None if f.base is basepoint else (f.word, own(f.base), bases.index(f.base))
        for f in g.faces
    )
    return key, [numbers[x, k] for x in (g, *bases) for k in own(x)]


def _scan_blocks(space: SimplicialSpace, generators, firsts, top: int) -> list[set]:
    """blocks[n], n = 0..top: the generators whose n-simplices a paranoid
    scan to top builds (level_rows' blocks).

    At each level n >= 2 row_pairs reads the block of each first member of
    a class (firsts) of dim <= n and of each generator of dim n. Level by
    level from the top down, each level also holds what level_rows' rule
    asks of the level above: its generators of dim <= n and their face
    bases, so no row points at a block left out.
    """
    blocks, built = [], set()
    for n in range(top, -1, -1):
        built = {g for g in built if g.dim <= n} | {f.base for g in built for f in g.faces}
        if n >= 2:
            built |= {g for g in generators if g.dim == n or g.dim < n and g in firsts}
        built.discard(space.basepoint)
        blocks.append(built)
    return blocks[::-1]


def paranoid_closure(space: SimplicialSpace, dim_cap: int) -> ActionPartition:
    """Same closure, but scanning every simplex (degenerate included).

    Scans dimensions 2..dim_cap and reduces each slot to its generator; the
    result should always equal sweep_closure, which only trusts generators.
    A scan of more than PARANOID_LIMIT face-pair visits (paranoid_visits)
    is refused before it starts. A scan with no visit to make, such as the
    point's, builds no level past dimension 1, since no level 2..dim_cap
    holds a non-basepoint simplex; so any cap costs the same.

    Generators with one key (_neighbourhood) form a class, and row_pairs
    reads the degenerate block of only the first by name of each class at
    each level; a later member takes those (via_j, via_i) pairs relabelled
    slot for slot, sigma = dict(zip(slots(first), slots(member))). This is
    exact. On a degenerate simplex row_pairs reads of the rows only the sign
    of each entry and slot numbers, which it compares for equality; position
    equality (by_j == by_i) is read on generators alone, so each generator's
    own level is scanned directly. The lower rows it reads are those of
    simplices over g and over the face bases, (merge(kept, f.word), f.base),
    whose sign patterns the words and B fix; the key fixes those, and which
    slots coincide. level_rows builds only the blocks row_pairs reads and
    those their rows point at (_scan_blocks), C(n, g.dim) simplices per
    generator in name order, so the first InternalError is raised at the
    same simplex.
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
    slots = enumerate_slots(space)
    numbers = {slot: k for k, slot in enumerate(slots)}
    generators = sorted(set(space.generators) - {space.basepoint}, key=lambda g: g.name)
    classes, relabel = {}, {}
    for g in generators:
        key, own = _neighbourhood(g, space.basepoint, numbers)
        first, first_own = classes.setdefault(key, (g, own))
        relabel[g] = first, dict(zip(first_own, own))
    top = dim_cap if visits else 1
    firsts = {first for first, _ in relabel.values()}
    blocks = _scan_blocks(space, generators, firsts, top)
    pairs = set()
    for n, (level, rows) in enumerate(level_rows(space, top, blocks)):
        if n >= 2:
            clean, found, stop = [min(row) >= 0 for row in lower], {}, 0
            for g in (g for g in generators if g.dim <= n):
                if g in blocks[n]:
                    start, stop = stop, stop + comb(n, g.dim)
                first, sigma = relabel[g]
                if first is g or g.dim == n:
                    block = row_pairs(level[start:stop], rows[start:stop], lower, clean)
                    pairs |= found.setdefault(g, set(map(itemgetter(2, 3), block)))
                else:
                    pairs.update((sigma[a], sigma[b]) for a, b in found[first])
        lower = rows
    return ActionPartition(slots, pairs)
