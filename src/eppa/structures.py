"""Finite relational structures, morphisms and partial automorphisms.

Universes are always initial segments {0, ..., n-1}; every canonical order
used elsewhere in the package derives from this numbering.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, lt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import config
from .errors import EppaError


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) pairs; the order is part of identity."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [s for s, _ in self.symbols]
        if len(set(names)) != len(names):
            raise EppaError(f"duplicate symbol names in {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise EppaError(f"arity of {name} must be >= 1, got {arity}")

    @staticmethod
    def make(*symbols: tuple[str, int]) -> "Signature":
        return Signature(tuple((str(n), int(a)) for n, a in symbols))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise KeyError(name)


GRAPH_SIGNATURE = Signature.make(("E", 2))


@dataclass(frozen=True)
class Structure:
    """Finite relational structure; relations are stored sorted per symbol."""

    signature: Signature
    size: int
    relations: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        """Bulk passes per relation: neighbours strictly increase (sorted
        and free of duplicates), the tuples have one length, the arity, and
        the least and greatest of the points they hold lie in the universe.
        Only a relation that fails a pass is searched for its first bad
        tuple, to name it."""
        if self.size < 0:
            raise EppaError(f"structure size must be >= 0, got {self.size}")
        if len(self.relations) != len(self.signature.symbols):
            raise EppaError("relation list does not match signature")
        for (name, arity), tuples in zip(self.signature.symbols, self.relations):
            if not all(map(lt, tuples, itertools.islice(tuples, 1, None))):
                raise EppaError(f"relation {name} is not canonically sorted")
            if not tuples:
                continue
            points = set(itertools.chain.from_iterable(tuples))
            if ({*map(len, tuples)} == {arity}
                    and min(points) >= 0 and max(points) < self.size):
                continue
            for t in tuples:
                if len(t) != arity:
                    raise EppaError(f"tuple {t} has wrong arity for {name}")
                for x in t:
                    if not 0 <= x < self.size:
                        raise EppaError(f"point {x} out of range in {name}{t}")

    @staticmethod
    def make(signature: Signature,
             size: int,
             relations: Mapping[str, Iterable[Sequence[int]]] | None = None) -> "Structure":
        relations = relations or {}
        unknown = set(relations) - set(signature.names())
        if unknown:
            raise EppaError(f"unknown symbols {sorted(unknown)}")
        rels = tuple(
            tuple(sorted({tuple(map(int, t)) for t in relations.get(name, ())}))
            for name, _ in signature.symbols)
        return Structure(signature, size, rels)

    def tuples(self, name: str) -> tuple[tuple[int, ...], ...]:
        return self.relations[self.signature.index(name)]

    def tuple_set(self, name: str) -> frozenset[tuple[int, ...]]:
        return frozenset(self.tuples(name))

    @cached_property
    def tails(self) -> tuple[tuple[tuple[frozenset, ...], tuple[Callable, ...] | None], ...]:
        """Per symbol, (sets, gathers).  sets[v] holds the tuples that start
        at v, each without its first point: a binary tuple (v, w) as w, any
        other as t[1:].  A permutation g is an automorphism iff it sends the
        tails at v onto the tails at g(v) for every symbol and point.

        For a binary symbol gathers[v](g) is the tuple of the images under
        g of the tails at v, in one C-level call (see _gather).  For other
        arities gathers is None."""
        out = []
        for (_, arity), tuples in zip(self.signature.symbols, self.relations):
            at: list[list] = [[] for _ in range(self.size)]
            for t in tuples:
                at[t[0]].append(t[1] if arity == 2 else t[1:])
            # the tuples are sorted, so each at[v] is too
            gathers = tuple(map(_gather, at)) if arity == 2 else None
            out.append((tuple(frozenset(ts) for ts in at), gathers))
        return tuple(out)

    @cached_property
    def masks(self) -> tuple[int | tuple[tuple[int, ...], tuple[int, ...], int] | None, ...]:
        """Per symbol, bitmasks over the universe for `embeddings`.  For a
        unary symbol, the mask of the points that hold it.  For a binary
        symbol, (out, into, loops): out[v] is the mask of the points w with
        (v, w) in the relation, into[v] that of the points u with (u, v),
        and loops that of the points v with (v, v); into is out when the
        relation is symmetric.  None for other arities."""
        out: list = []
        for (_, arity), tuples in zip(self.signature.symbols, self.relations):
            if arity == 1:
                out.append(sum(1 << v for v, in tuples))
            elif arity == 2:
                succ, pred = [0] * self.size, [0] * self.size
                for v, w in tuples:
                    succ[v] |= 1 << w
                    pred[w] |= 1 << v
                loops = sum(1 << v for v, w in tuples if v == w)
                succ, pred = tuple(succ), tuple(pred)
                out.append((succ, succ if pred == succ else pred, loops))
            else:
                out.append(None)
        return tuple(out)

    @cached_property
    def pattern_index(self) -> tuple:
        """This structure's side of `embeddings` as the pattern, built once:
        (units, rows, symmetric_rows, closing, hyper).  Each test is a flip,
        0 where this structure holds the tuple tested and -1 where it does
        not, so a target mask XORed with it (x ^ -1 is ~x) keeps the target
        points that agree with the pattern.

        units: per unary or binary symbol i, (i, loop, flips), flips[k]
        testing point k on the target's mask of i, or of its loops when
        loop is true.  rows[k]: (i, d, j, flip) per binary symbol i,
        direction d and earlier point j, testing (j, k) on out[h(j)] when d
        is 0 and (k, j) on into[h(j)] when d is 1.  symmetric_rows: rows
        without d = 1, or None unless every binary relation here is
        symmetric; with a target whose binary relations are symmetric too
        the two tests of a pair are one.  closing[k]: (i, t) per tuple t of
        arity >= 3 whose largest point is k; hyper: (i, tuples as a set) per
        symbol of arity >= 3."""
        m = self.size
        units, rows, hyper, symmetric = [], [[] for _ in range(m)], [], True
        for i, ((_, arity), own, tuples) in enumerate(
                zip(self.signature.symbols, self.masks, self.relations)):
            if arity == 1:
                units.append((i, False, tuple([(own >> k & 1) - 1 for k in range(m)])))
            elif arity == 2:
                out, into, loops = own
                symmetric = symmetric and into is out
                units.append((i, True, tuple([(loops >> k & 1) - 1 for k in range(m)])))
                # (j, k) is a tuple iff j is in into[k], and (k, j) iff j is in
                # out[k]; the two tests of each j are adjacent in rows[k]
                for k in range(1, m):
                    row, into_k, out_k = rows[k], into[k], out[k]
                    for j in range(k):
                        row.append((i, 0, j, (into_k >> j & 1) - 1))
                        row.append((i, 1, j, (out_k >> j & 1) - 1))
            else:
                hyper.append((i, frozenset(tuples)))
        closing = [[] for _ in range(m)] if hyper else []
        for i, _ in hyper:
            for t in self.relations[i]:
                closing[max(t)].append((i, t))
        return (tuple(units), tuple(map(tuple, rows)),
                tuple([row[::2] for row in rows]) if symmetric else None,
                tuple(map(tuple, closing)), tuple(hyper))

    def is_graphlike(self) -> bool:
        """All symbols binary with symmetric irreflexive interpretation."""
        for (name, arity), tuples in zip(self.signature.symbols, self.relations):
            if arity != 2:
                return False
            for a, b in tuples:
                if a == b or (b, a) not in tuples:
                    return False
        return True


def _gather(points: list[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """g -> (g[x] for x in points) as a tuple, in one C-level call where
    operator.itemgetter allows: it takes at least one point, and over one
    point it returns a bare value, so one point is gathered twice."""
    if len(points) > 1:
        return itemgetter(*points)
    if points:
        return itemgetter(points[0], points[0])
    return _no_points


def _no_points(g: Sequence[int]) -> tuple[()]:
    return ()


def subset_sums(items: Sequence, zero=0) -> list:
    """The sum of each subset of `items`, indexed by the subset's bitmask
    and added in their order: the OR of distinct bits, or the concatenation
    of tuples from zero = ()."""
    sums = [zero]
    for item in items:
        sums += [s + item for s in sums]
    return sums


def graph(n: int, edges: Iterable[tuple[int, int]]) -> Structure:
    """Symmetric irreflexive binary structure over the standard graph signature."""
    rel = set()
    for a, b in edges:
        if a == b:
            raise EppaError(f"loop {a} not allowed in graph()")
        rel.add((a, b))
        rel.add((b, a))
    return Structure.make(GRAPH_SIGNATURE, n, {"E": rel})


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0,...,n-1} given by its image array."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise EppaError(f"not a permutation: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    @staticmethod
    def _unchecked(images: tuple[int, ...]) -> "Permutation":
        """A Permutation of images known to be one, built without the
        sorting check of __post_init__."""
        perm = object.__new__(Permutation)
        object.__setattr__(perm, "images", images)
        return perm

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x)).  The
        composite of two permutations of one degree is a permutation, so
        only the degrees are checked."""
        if len(self.images) != len(other.images):
            raise EppaError(f"cannot compose permutations of degrees "
                            f"{len(self.images)} and {len(other.images)}")
        return Permutation._unchecked(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._unchecked(tuple(inv))


@dataclass(frozen=True)
class PartialAutomorphism:
    """Isomorphism between two induced substructures, as a sorted pair list."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if list(self.pairs) != sorted(self.pairs):
            raise EppaError("pairs must be sorted")
        xs = [x for x, _ in self.pairs]
        ys = [y for _, y in self.pairs]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise EppaError("coordinates must be distinct")

    @staticmethod
    def from_map(mapping: Mapping[int, int]) -> "PartialAutomorphism":
        return PartialAutomorphism(tuple(sorted(mapping.items())))

    @staticmethod
    def empty() -> "PartialAutomorphism":
        return PartialAutomorphism(())

    @staticmethod
    def identity_on(points: Iterable[int]) -> "PartialAutomorphism":
        return PartialAutomorphism(tuple((x, x) for x in sorted(points)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def domain(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.pairs)

    def image(self) -> frozenset[int]:
        return frozenset(y for _, y in self.pairs)

    def __call__(self, x: int) -> int:
        for a, b in self.pairs:
            if a == x:
                return b
        raise KeyError(x)

    def __len__(self) -> int:
        return len(self.pairs)

    @staticmethod
    def _unchecked(pairs: tuple[tuple[int, int], ...]) -> "PartialAutomorphism":
        """A PartialAutomorphism of pairs known to be sorted and injective,
        built without the checks of __post_init__."""
        p = object.__new__(PartialAutomorphism)
        object.__setattr__(p, "pairs", pairs)
        return p

    def inverse(self) -> "PartialAutomorphism":
        return PartialAutomorphism._unchecked(tuple(sorted((y, x) for x, y in self.pairs)))

    def compose(self, other: "PartialAutomorphism") -> "PartialAutomorphism":
        """self after other, defined on other's domain, whose image must lie
        in self's domain.  other's pairs are sorted by distinct first points
        and both maps are injective, so (x, self(y)) over other's pairs are
        the sorted pairs of an injective map."""
        m = self.as_dict()
        try:
            pairs = tuple([(x, m[y]) for x, y in other.pairs])
        except KeyError as missing:
            raise EppaError(f"cannot compose: point {missing.args[0]} is in the image "
                            f"of {other.encode()} but not in the domain of "
                            f"{self.encode()}") from None
        return PartialAutomorphism._unchecked(pairs)

    def order_completion(self, n: int) -> Permutation:
        """The permutation of {0, ..., n-1} that agrees with this map on its
        domain and sends the points outside it, in increasing order, onto the
        points outside its image.  This is the coherent lift of the map on
        singletons: when q = p1 o p2 with range(p2) = dom(p1), the completion
        of q is that of p1 after that of p2."""
        images = [-1] * n
        for x, y in self.pairs:
            images[x] = y
        image = self.image()
        rest = iter([y for y in range(n) if y not in image])
        return Permutation(tuple(next(rest) if y < 0 else y for y in images))

    def encode(self) -> str:
        """Canonical key: comma-joined "x>y" pairs, "-" for the empty map."""
        return self._key

    def __hash__(self) -> int:
        """The dataclass hash, computed on a map's first lookup and kept
        beside its key (a cached_property costs more on a first lookup)."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.pairs,))
        return h

    @cached_property
    def _key(self) -> str:  # built once per map, however often it is looked up
        if not self.pairs:
            return "-"
        return ",".join(f"{x}>{y}" for x, y in self.pairs)

    @staticmethod
    def decode(key: str) -> "PartialAutomorphism":
        """Inverse of `encode`; a malformed key raises EppaError."""
        if key == "-":
            return PartialAutomorphism(())
        pairs = []
        for item in key.split(","):
            x, sep, y = item.partition(">")
            try:  # int() alone would also take '-1', '+1', '1_0' and non-ASCII digits
                if not (sep and (x + y).isascii() and x.isdigit() and y.isdigit()):
                    raise ValueError
                pairs.append((int(x), int(y)))
            except ValueError:
                raise EppaError(f"bad pair {item!r}") from None
        return PartialAutomorphism(tuple(sorted(pairs)))


def induced_substructure(structure: Structure,
                         points: Iterable[int]) -> tuple[Structure, dict[int, int]]:
    """Substructure on `points` reindexed by the order-preserving index map."""
    pts = sorted(set(points))
    for x in pts:
        if not 0 <= x < structure.size:
            raise EppaError(f"point {x} outside universe of size {structure.size}")
    index = {x: i for i, x in enumerate(pts)}
    rels = {}
    for name, _ in structure.signature.symbols:
        rels[name] = [tuple(index[x] for x in t)
                      for t in structure.tuples(name)
                      if all(x in index for x in t)]
    return Structure.make(structure.signature, len(pts), rels), index


def is_homomorphism(h: Sequence[int], a: Structure, b: Structure) -> bool:
    """h total on A's universe; satisfied tuples must map to satisfied tuples."""
    _check_map(h, a, b)
    for name, _ in a.signature.symbols:
        target = b.tuple_set(name)
        for t in a.tuples(name):
            if tuple(h[x] for x in t) not in target:
                return False
    return True


def is_embedding(h: Sequence[int], a: Structure, b: Structure) -> bool:
    """Injective homomorphism whose image reflects every relation of b: h
    maps each relation of a onto the tuples of b inside the image.  Those
    all start at an image point, so b is read only there, each point's
    tuples found by bisection in b's sorted relation."""
    _check_map(h, a, b)
    image = frozenset(h)
    if len(image) != a.size:
        return False
    at = h.__getitem__
    for own, target in zip(a.relations, b.relations):
        runs = (target[bisect_left(target, (v,)):bisect_left(target, (v + 1,))] for v in h)
        inside = {t for t in itertools.chain.from_iterable(runs) if image.issuperset(t)}
        if {tuple(map(at, t)) for t in own} != inside:
            return False
    return True


def is_automorphism(g: Sequence[int], structure: Structure) -> bool:
    """Is g a permutation of the universe that maps every tuple to a tuple?
    A bijection of a finite set that maps a relation into itself maps it
    onto itself, so this is is_embedding(g, structure, structure).  Read
    point by point from `Structure.tails`: g maps the tuples that start at v
    onto those that start at g(v).  For a binary symbol it is enough that
    the tails at g(v) contain the gathered images of those at v: that is g
    mapping the relation into itself."""
    _check_map(g, structure, structure)
    if len(set(g)) != structure.size:
        return False
    image = g.__getitem__
    for sets, gathers in structure.tails:
        targets = map(sets.__getitem__, g)
        if gathers is not None:
            for gather, target in zip(gathers, targets):
                if not target.issuperset(gather(g)):
                    return False
        else:
            for own, target in zip(sets, targets):
                if {tuple(map(image, t)) for t in own} != target:
                    return False
    return True


def _check_map(h: Sequence[int], a: Structure, b: Structure) -> None:
    if a.signature != b.signature:
        raise EppaError("signature mismatch")
    if len(h) != a.size:
        raise EppaError(f"map has {len(h)} entries for universe of {a.size}")
    for v in h:
        if not 0 <= v < b.size:
            raise EppaError(f"image point {v} outside codomain of size {b.size}")


def is_partial_automorphism(structure: Structure, p: PartialAutomorphism) -> bool:
    """Does p map the induced substructure on dom(p) isomorphically onto range?"""
    dom = p.domain()
    img = p.image()
    if any(not 0 <= x < structure.size for x in dom | img):
        return False
    m = p.as_dict()
    inv = {y: x for x, y in p.pairs}
    for name, _ in structure.signature.symbols:
        tuples = structure.tuple_set(name)
        for t in tuples:
            if all(x in dom for x in t) and tuple(m[x] for x in t) not in tuples:
                return False
            if all(x in img for x in t) and tuple(inv[x] for x in t) not in tuples:
                return False
    return True


def embeddings(pattern: Structure, target: Structure) -> Iterator[tuple[int, ...]]:
    """Every embedding of `pattern` into `target`, as its image tuple, in
    lexicographic order of assignments.

    Backtracking over the pattern's points in order, with the candidates
    for each point as one bitmask over the target's points (Ullmann 1976;
    McCreesh and Prosser 2015).  Point k may go to a free point that holds
    the unary symbols and loops that k holds, and no others, and that lies
    in out[h(j)] exactly when (j, k) is a pattern tuple and in into[h(j)]
    exactly when (k, j) is, for every earlier point j and binary symbol.
    Each of these tests is built once per pattern (`Structure.pattern_index`)
    as a flip, and applied to the target's `Structure.masks` by XOR: mask ^ 0
    keeps the points that hold the tuple, mask ^ -1 those that do not.  When
    every binary relation of both sides is symmetric, the into tests repeat
    the out tests and are skipped.  The candidates are tried lowest point
    first.  Only a symbol of arity >= 3 is checked a tuple at a time:
    assigning k to v checks the pattern tuples whose largest point is k and
    the target tuples through v whose points are all assigned, which are
    listed only when the signature has such a symbol.  The
    remaining candidates of each assigned point wait on an explicit stack,
    so the depth of the search is not bounded by Python's recursion limit.
    """
    if pattern.signature != target.signature:
        raise EppaError("signature mismatch")
    m, n = pattern.size, target.size
    if m > n:
        return
    if m == 0:
        yield ()
        return
    # h(k) must lie in fixed[k] and pass every row of rows[k]
    units, rows, symmetric_rows, closing, hyper = pattern.pattern_index
    masks = target.masks
    fixed = [(1 << n) - 1] * m
    for i, loop, flips in units:
        mask = masks[i]
        if loop:
            if mask[0] is not mask[1]:
                symmetric_rows = None
            mask = mask[2]
        fixed = [f & (mask ^ flip) for f, flip in zip(fixed, flips)]
    if symmetric_rows is not None:
        rows = symmetric_rows
    if hyper:
        target_sets = {i: frozenset(target.relations[i]) for i, _ in hyper}
        through: list[list[tuple[tuple[int, ...], frozenset]]] = [[] for _ in range(n)]
        for i, pattern_set in hyper:
            for u in target.relations[i]:
                for v in set(u):
                    through[v].append((u, pattern_set))
        back = [0] * n  # back[v] is read only while v is assigned
        hyper = any(closing) or any(through)
    image = [0] * m
    taken = [0] * m  # taken[k]: the mask of h(0), ..., h(k - 1)
    stack = [fixed[0]]  # stack[k]: the candidates for k not yet tried
    while stack:
        k = len(stack) - 1
        rest = stack[k]
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        stack[k] = rest ^ low
        v = image[k] = low.bit_length() - 1
        if hyper:
            back[v] = k
            assigned = taken[k] | low
            if (any(tuple(map(image.__getitem__, t)) not in target_sets[i]
                    for i, t in closing[k])
                    or any(tuple(map(back.__getitem__, u)) not in pattern_set
                           for u, pattern_set in through[v]
                           if all(assigned >> x & 1 for x in u))):
                continue
        if k + 1 == m:
            yield tuple(image)
            continue
        k += 1
        taken[k] = taken[k - 1] | low
        candidates = fixed[k] & ~taken[k]
        for i, d, j, flip in rows[k]:
            candidates &= masks[i][d][image[j]] ^ flip
        if candidates:
            stack.append(candidates)


def enumerate_partial_automorphisms(structure: Structure) -> list[PartialAutomorphism]:
    """All of Part(A), empty map included: by domain size, then domain in
    combination order, then image in lexicographic order.

    Listed a domain size at a time.  Part(A) is closed under restriction, so
    each map on k + 1 points is a map h on its k least points, with domain
    D, extended by a point x > max(D) to a free point y.  y is tested as
    `embeddings` tests a pattern point, with this structure's own
    `pattern_index` flips on its `Structure.masks`: the unary and loop tests
    of x, and a row test per binary symbol, direction and d in D, read at
    h(d).  A tuple of arity >= 3 is checked when it gains its largest point:
    each tuple through x inside D + x must map to a tuple, and each through
    y inside the new image must come from one.

    The order is that of one embedding search per domain.  Each size's
    domains are kept in combination order, each with its images in
    lexicographic order.  The domains of size k + 1 are the D + x with
    x > max(D), so D in order, then x ascending, is combination order, and
    the parents of D + x in image order, then y ascending, is image order.
    The maps are built unchecked: their pairs are sorted by construction,
    and injective since y is free.  Each domain charges the count so far."""
    n = structure.size
    units, rows, symmetric_rows, _, hyper = structure.pattern_index
    masks = structure.masks
    fixed = [(1 << n) - 1] * n
    for i, loop, flips in units:
        mask = masks[i][2] if loop else masks[i]
        fixed = [f & (mask ^ flip) for f, flip in zip(fixed, flips)]
    # tests[x][j]: the row tests of (j, x), each (table, flip) read at h(j); the
    # target is this structure, so its symmetric rows serve whenever they exist
    tests = [[[] for _ in range(x)] for x in range(n)]
    for x, row in enumerate(rows if symmetric_rows is None else symmetric_rows):
        for i, d, j, flip in row:
            tests[x][j].append((masks[i][d], flip))
    through: list[list] = [[] for _ in range(n)]  # per point, its tuples of arity >= 3
    for i, tuple_set in hyper:
        for t in structure.relations[i]:
            for v in set(t):
                through[v].append((tuple_set, t, _bits(t)))

    unchecked = PartialAutomorphism._unchecked
    out = [unchecked(())]
    level = [((), [()], [0])]  # per domain, its images and their masks
    listed = 1
    for _ in range(n):
        below, level = level, []
        for dom, images, takens in below:
            for x in range(dom[-1] + 1 if dom else 0, n):
                checks = [(k, table, flip) for k, j in enumerate(dom)
                          for table, flip in tests[x][j]]
                grown = dom + (x,)
                new_images, new_takens = [], []
                for img, taken in zip(images, takens):
                    candidates = fixed[x] & ~taken
                    for k, table, flip in checks:
                        candidates &= table[img[k]] ^ flip
                    while candidates:
                        low = candidates & -candidates
                        candidates ^= low
                        y = low.bit_length() - 1
                        image = img + (y,)
                        if hyper and not (
                                _keeps(dict(zip(grown, image)), through[x], _bits(grown))
                                and _keeps(dict(zip(image, grown)), through[y],
                                           taken | low)):
                            continue
                        new_images.append(image)
                        new_takens.append(taken | low)
                level.append((grown, new_images, new_takens))
                listed += len(new_images)
                config.charge("Part(A)", listed, "maps", config.PART_MAX_MAPS)
        out += [unchecked(tuple(zip(dom, img)))
                for dom, images, _ in level for img in images]
    return out


def _bits(points: Iterable[int]) -> int:
    return sum({1 << p for p in points})


def _keeps(h: dict[int, int], through: list, inside: int) -> bool:
    """Does h send to a tuple each (tuple_set, t, bits) of `through` whose
    points all lie `inside`, the mask of h's domain?"""
    return all(tuple(map(h.__getitem__, t)) in tuple_set
               for tuple_set, t, bits in through if not bits & ~inside)


def automorphism_group(structure: Structure,
                       degree_bound: int = config.DEFAULT_AUT_DEGREE_BOUND):
    """Materialized Aut(A), elements in lexicographic order; refuses degrees
    above the bound."""
    from .coherence import PermutationGroup  # cycle: groups live with coherence

    config.charge("automorphism search", structure.size, "points", degree_bound)
    elements = tuple(Permutation(g) for g in embeddings(structure, structure))
    return PermutationGroup(degree=structure.size, elements=elements)


def gaifman_masks(structure: Structure) -> list[int]:
    """Per point, the bitmask of its Gaifman neighbours: the other points
    that share a satisfied tuple with it."""
    masks = [0] * structure.size
    for t in itertools.chain.from_iterable(structure.relations):
        joint = _bits(t)
        for x in t:
            masks[x] |= joint
    return [mask & ~(1 << x) for x, mask in enumerate(masks)]


def gaifman_graph(structure: Structure) -> Structure:
    """Co-occurrence graph: distinct points adjacent iff they share a satisfied tuple."""
    return graph(structure.size, [(x, y) for x, mask in enumerate(gaifman_masks(structure))
                                  for y in range(x + 1, structure.size) if mask >> y & 1])


def is_gaifman_clique(structure: Structure, points: Iterable[int] | None = None) -> bool:
    """True iff every two distinct points of the set co-occur in some tuple."""
    pts = sorted(set(points)) if points is not None else list(range(structure.size))
    for x in pts:
        if not 0 <= x < structure.size:
            raise EppaError(f"point {x} outside universe")
    masks = gaifman_masks(structure)
    return all(masks[u] >> v & 1 for u, v in itertools.combinations(pts, 2))
