"""Coherent triples, coherence/extension verification, and the coherent lift
of set-level partial maps to permutations.

A triple (p1, p2, q) of partial bijections is coherent when dom(p2) = dom(q),
range(p1) = range(q), range(p2) = dom(p1) and q = p1 o p2.  A map into a
permutation group is coherent when it sends coherent triples to composing
permutations; on a group of total maps this is exactly a homomorphism.  On
Part(A), closed under composition and inverses, it is decided on the
spanning triples of its groupoid, base_extension.PartGroupoid: built once per
call, not cached on Structure, where it cost base4 +9.4% to +10.6% of
peak_rss_mb against a 10% bound (+16.5% to +17.2% with its forest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from .errors import EppaError
from .structures import PartialAutomorphism, Permutation, Structure, is_automorphism

H = TypeVar("H", bound=Hashable)


def closure(start: Iterable[H], step: Callable[[H], Iterable[H]]) -> set[H]:
    """The least set that contains `start` and is closed under `step`, where
    step(x) yields the elements one step from x."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        for y in step(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@dataclass(frozen=True)
class PermutationGroup:
    """Finite permutation group materialized as a full element list.
    from_generators lists the products of the generators, sorted by images,
    without repeats: the generated group, since a finite set of permutations
    closed under composition holds each g's inverse, a power of g.  So a
    list is a group in that order iff from_generators gives it back."""

    degree: int
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.elements:
            raise EppaError("group must contain at least the identity")

    @staticmethod
    def from_generators(degree: int, generators: Iterable[Permutation]) -> "PermutationGroup":
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise EppaError("generator degree mismatch")
        elements = closure([Permutation.identity(degree)],
                           lambda a: (g.compose(a) for g in gens))
        return PermutationGroup(degree, tuple(sorted(elements, key=lambda p: p.images)))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verifier; `condition` names the violated check when not ok."""

    ok: bool
    condition: str = ""
    detail: str = ""

    @staticmethod
    def passed() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def failed(condition: str, detail: str = "") -> "Verdict":
        return Verdict(False, condition, detail)

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.condition}: {self.detail}" if self.detail else self.condition


@dataclass(frozen=True)
class ExtensionMap:
    """Table assigning a codomain permutation to every encoded partial
    automorphism, together with the point embedding it extends through."""

    domain_universe: int
    codomain_universe: int
    embedding: tuple[int, ...]
    table: dict[str, Permutation] = field(hash=False)

    def __post_init__(self):
        if len(self.embedding) != self.domain_universe:
            raise EppaError("embedding length does not match domain universe")
        if any(not 0 <= y < self.codomain_universe for y in self.embedding):
            raise EppaError("embedding point outside the codomain universe")
        for key, perm in self.table.items():
            if perm.degree != self.codomain_universe:
                raise EppaError(f"table value for {key} is not a codomain permutation")

    def lookup(self, p: PartialAutomorphism) -> Permutation:
        key = p.encode()
        if key not in self.table:
            raise EppaError(f"missing table entry for {key}")
        return self.table[key]

    def embed(self, x: int) -> int:
        return self.embedding[x]


def coherent_triples(maps: Sequence[PartialAutomorphism]
                     ) -> list[tuple[PartialAutomorphism, PartialAutomorphism, PartialAutomorphism]]:
    """All coherent triples within `maps`: composable pairs with their
    composite, which must itself belong to `maps`; in the order of `maps`
    by p2, then by p1.  The composite is looked up by its pair tuple: p2's
    pairs are sorted by their distinct first points, so (x, p1(y)) over
    them is already the sorted pair tuple of p1 o p2."""
    by_pairs = {p.pairs: p for p in maps}
    by_domain: dict[frozenset[int], list[tuple[PartialAutomorphism, dict[int, int]]]] = {}
    for p in maps:
        by_domain.setdefault(p.domain(), []).append((p, p.as_dict()))
    out = []
    for p2 in maps:
        for p1, m in by_domain.get(p2.image(), ()):
            ql = by_pairs.get(tuple([(x, m[y]) for x, y in p2.pairs]))
            if ql is not None:
                out.append((p1, p2, ql))
    return out


def verify_coherence(phi: ExtensionMap, maps: Sequence[PartialAutomorphism],
                     *, triples: Sequence[tuple[PartialAutomorphism, ...]] | None = None
                     ) -> Verdict:
    """Checks phi(q) = phi(p1) o phi(p2) on `triples`, which every verifier
    passes (P's coherent triples or Part(A)'s spanning triples), or else on
    all of coherent_triples(maps), the brute-force reference.  Each phi(p)
    is read once, by its key, and each composite is compared as a plain
    image tuple, with no Permutation built for it."""
    image = {p.encode(): phi.lookup(p).images for p in maps}
    for p1, p2, q in coherent_triples(maps) if triples is None else triples:
        if tuple(map(image[p1.encode()].__getitem__, image[p2.encode()])) != image[q.encode()]:
            return Verdict.failed(
                "coherence",
                f"triple ({p1.encode()}, {p2.encode()}, {q.encode()}): "
                f"phi(q) != phi(p1) o phi(p2)")
    return Verdict.passed()


def verify_extension(phi: ExtensionMap, maps: Sequence[PartialAutomorphism]) -> Verdict:
    """phi(p) must extend p through the embedding, for every p.  Each phi(p)
    is read once, by its key, as a plain image tuple."""
    emb = phi.embedding
    for p in maps:
        images = phi.lookup(p).images
        for x, y in p.pairs:
            if images[emb[x]] != emb[y]:
                return Verdict.failed(
                    "extension",
                    f"phi({p.encode()}) moves embedded point {x} to "
                    f"{images[emb[x]]}, expected image of {y}")
    return Verdict.passed()


def verify_coherent_extension(phi: ExtensionMap, maps, structure: Structure, *,
                              triples: Sequence[tuple[PartialAutomorphism, ...]] | None = None
                              ) -> Verdict:
    """The checks every certificate makes of its phi table, in this order:
    its keys are exactly the encodings of the maps, phi(p) extends p for
    every map, the checked maps' values are automorphisms of `structure`,
    and phi is coherent on the checked triples.  The verdict names the
    first check that fails: an extension or automorphism failure at the
    first map whose value fails it, in list order, a coherence failure at
    the first failing triple.  Each list is taken only once the checks
    before it pass, and each distinct permutation is checked to be an
    automorphism at most once per call.

    With `triples`, `maps` is a list P, and all of P and `triples` are
    checked.  Otherwise `maps` is Part(A) as a base_extension.PartGroupoid,
    and its spanning maps (each root's vertex group G(r) and each tree map
    T_t, t != r) and spanning triples are checked; the vertex group's are
    (a, s, a o s) for a in G(r) and s among its generators.  When these
    pass, every check passes.  Proof.  The triple (e, s, s) forces phi(e) =
    id, and every element of G(r) is a positive word w in the generators, so
    phi(a w) = phi(a) phi(w) by induction on the length of w: phi is a
    homomorphism on G(r).  Coherence on all of coherent_triples follows from
    that and the tree triples (PartGroupoid.spanning_triples).  A map p: s
    -> t with g(p) = T_t^-1 o p o T_s in G(r) has phi(p) = phi(T_t)
    phi(g(p)) phi(T_s)^-1, which the spanning triples force, so phi(p) is a
    product of checked automorphisms and their inverses.  So a table is
    accepted exactly when every value is an extending automorphism and every
    coherent triple holds.  A reject checks no automorphism an accept does
    not: a value off the spanning maps that is no automorphism but extends
    its map fails coherence, at the first spanning triple through it."""
    if triples is None:  # `maps` is Part(A) as a groupoid
        checked, listed, maps = maps.spanning_maps, maps.spanning_triples, maps.maps
    else:
        checked, listed = (lambda: maps), (lambda: triples)
    keys = {p.encode() for p in maps}
    missing = sorted(keys - phi.table.keys())
    if missing:
        return Verdict.failed("table", f"missing table entry for {missing[0]}")
    extra = sorted(phi.table.keys() - keys)
    if extra:
        return Verdict.failed("table", f"table entry for {extra[0]} is not a listed map")

    def automorphisms(ps: Iterable[PartialAutomorphism]) -> Verdict:
        known: set[Permutation] = set()
        for p in ps:
            g = phi.lookup(p)
            if g not in known:
                if not is_automorphism(g.images, structure):
                    return Verdict.failed("automorphism",
                                          f"phi({p.encode()}) is not an automorphism")
                known.add(g)
        return Verdict.passed()

    return (verify_extension(phi, maps) and automorphisms(checked())
            and verify_coherence(phi, maps, triples=listed()))


@dataclass(frozen=True)
class SetPartialMap:
    """Partial function on subsets of X (as bitmasks), induced elementwise by
    a witness permutation: image = witness[preimage] for every pair."""

    universe: int
    pairs: tuple[tuple[int, int], ...]
    witness: Permutation

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if a in seen:
                raise EppaError("duplicate domain set")
            seen.add(a)
            if _apply_mask(self.witness, a) != b:
                raise EppaError("witness fails to induce the map on some domain set")

    def domain_sets(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    def image_of(self, a: int) -> int:
        for x, y in self.pairs:
            if x == a:
                return y
        raise KeyError(a)


def _apply_mask(perm: Permutation, mask: int) -> int:
    out = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        out |= 1 << perm(b.bit_length() - 1)
    return out


def mask_atoms(universe: int, masks: Iterable[int]) -> list[int]:
    """Atoms of the Boolean algebra generated by `masks` (with X and the empty
    set), via partition refinement; ordered by least element."""
    full = (1 << universe) - 1
    cells = [full] if universe else []
    for m in masks:
        nxt = []
        for c in cells:
            inside = c & m
            outside = c & ~m
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        cells = nxt
    return sorted(cells, key=lambda c: (c & -c).bit_length())


def mask_points(mask: int) -> list[int]:
    """Elements of the set `mask`, in increasing order."""
    out = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        out.append(b.bit_length() - 1)
    return out


def coherent_lift(universe: int, maps: Sequence[SetPartialMap]) -> list[Permutation]:
    """Lift each set-level partial map to a permutation of X so that the
    assignment is coherent and agrees with the map on its domain sets.

    Closing each domain under complement and finite intersections generates a
    Boolean algebra whose atoms are the refinement cells of the domain sets;
    the lift maps each atom onto its witness image by the unique
    order-preserving bijection, under the natural order of X.
    """
    out = []
    for m in maps:
        if m.universe != universe:
            raise EppaError("universe mismatch")
        atoms = mask_atoms(universe, m.domain_sets())
        images = [None] * universe
        for atom in atoms:
            target = _apply_mask(m.witness, atom)
            src = mask_points(atom)
            dst = sorted(mask_points(target))
            for i, j in zip(src, dst):
                images[i] = j
        out.append(Permutation(tuple(images)))
    return out


def set_map_coherent_triples(maps: Sequence[SetPartialMap]
                             ) -> list[tuple[int, int, int]]:
    """Indices (i1, i2, iq) of coherent triples among set-level maps."""
    out = []
    for i2, p2 in enumerate(maps):
        dom2 = frozenset(p2.domain_sets())
        rng2 = frozenset(b for _, b in p2.pairs)
        for i1, p1 in enumerate(maps):
            if frozenset(p1.domain_sets()) != rng2:
                continue
            rng1 = frozenset(b for _, b in p1.pairs)
            comp = {a: p1.image_of(p2.image_of(a)) for a in dom2}
            for iq, q in enumerate(maps):
                if frozenset(q.domain_sets()) != dom2:
                    continue
                if frozenset(b for _, b in q.pairs) != rng1:
                    continue
                if all(q.image_of(a) == comp[a] for a in dom2):
                    out.append((i1, i2, iq))
    return out


def check_forced_values(phi: ExtensionMap, maps: Sequence[PartialAutomorphism]) -> Verdict:
    """phi(empty) = id, phi(id_D) = id, phi(p^-1) = phi(p)^-1 whenever present.
    An inverse is looked up as the map listed in `maps`, which is encoded once.
    No verifier calls it: over Part(A), which holds every id_D and every
    inverse, coherence forces these values.  It stays as an independent
    check for the tests."""
    ident = Permutation.identity(phi.codomain_universe)
    listed = {p: p for p in maps}
    for p in maps:
        if all(x == y for x, y in p.pairs):
            if phi.lookup(p) != ident:
                return Verdict.failed("forced-identity",
                                      f"phi({p.encode()}) is not the identity")
        if (q := listed.get(p.inverse())) is not None:
            if phi.lookup(q) != phi.lookup(p).inverse():
                return Verdict.failed("forced-inverse",
                                      f"phi({q.encode()}) != phi({p.encode()})^-1")
    return Verdict.passed()
