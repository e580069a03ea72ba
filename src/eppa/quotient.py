"""Special extensions by quotienting a product of the base structure with a
permutation group of a verified extension.

Given a coherent, extending assignment psi of automorphisms of B' to a set P
of partial automorphisms of A, the carrier is (A x G)/~ for the group G
generated by the assigned automorphisms, where a single move identifies
(x, g) with (p(x), psi(p) o g).  Points reachable by words act as witnesses:
every point, every relation tuple and every A-to-A transition of the
quotient is realized by a word over P."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .coherence import (ExtensionMap, PermutationGroup, Verdict, verify_coherence,
                        verify_coherent_extension, verify_extension)
from .errors import EppaError, VerificationError
from .structures import (PartialAutomorphism, Permutation, Structure,
                         is_embedding, is_homomorphism)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def _generated_group(codomain: Structure, maps: Sequence[PartialAutomorphism],
                     psi: ExtensionMap) -> PermutationGroup:
    """The group G generated by the assigned automorphisms psi(p), p in P."""
    return PermutationGroup.from_generators(codomain.size, [psi.lookup(p) for p in maps])


def _word_classes(base: Structure, maps: Sequence[PartialAutomorphism],
                  psi: ExtensionMap, group: PermutationGroup
                  ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Classes of (A x G)/~, each a sorted tuple of (point, group index)
    pairs, ordered by least member: the union-find closure of the single
    moves (x, g) ~ (p(x), psi(p) o g)."""
    gindex = {g: i for i, g in enumerate(group.elements)}
    ng = len(group.elements)
    uf = _UnionFind(base.size * ng)
    for p in maps:
        gp = psi.lookup(p)
        for gi, g in enumerate(group.elements):
            moved = gindex[gp.compose(g)]
            for x, y in p.pairs:
                uf.union(x * ng + gi, y * ng + moved)
    class_of: dict[int, list[tuple[int, int]]] = {}
    for x in range(base.size):
        for gi in range(ng):
            class_of.setdefault(uf.find(x * ng + gi), []).append((x, gi))
    return tuple(sorted(tuple(sorted(members)) for members in class_of.values()))


@dataclass(frozen=True)
class SpecialCertificate:
    """Quotient extension with its word data: the coherent map phi over P, the
    embedding iota, and the equivariant homomorphism back onto the base
    extension.  The fields are exactly the contents of the certificate file;
    the group and the classes of the quotient are derived from them."""

    base: Structure
    extension: Structure
    codomain: Structure
    maps: tuple[PartialAutomorphism, ...]
    psi: ExtensionMap = field(hash=False)
    phi: ExtensionMap = field(hash=False)
    hom: tuple[int, ...] = ()

    @cached_property
    def group(self) -> PermutationGroup:
        return _generated_group(self.codomain, self.maps, self.psi)

    @cached_property
    def class_members(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _word_classes(self.base, self.maps, self.psi, self.group)


def special_extension(base: Structure, maps: Sequence[PartialAutomorphism],
                      codomain: Structure, psi: ExtensionMap) -> SpecialCertificate:
    """Build the quotient, its relations (closure of embedded tuples under the
    assigned automorphisms), the coherent action and the equivariant
    homomorphism; everything is verified structurally before returning."""
    maps = tuple(maps)
    v = verify_extension(psi, maps)
    if not v:
        raise VerificationError(f"psi fails extension: {v.message()}")
    v = verify_coherence(psi, maps)
    if not v:
        raise VerificationError(f"psi fails coherence: {v.message()}")

    group = _generated_group(codomain, maps, psi)
    gindex = {g: i for i, g in enumerate(group.elements)}
    classes = _word_classes(base, maps, psi, group)
    point_of = {pair: i for i, members in enumerate(classes) for pair in members}
    representatives = [members[0] for members in classes]

    n = base.size
    size = len(representatives)
    identity = Permutation.identity(codomain.size)
    iota = tuple(point_of[(x, gindex[identity])] for x in range(n))

    action_table: dict[str, Permutation] = {}
    for p in maps:
        inv = psi.lookup(p).inverse()
        action_table[p.encode()] = Permutation(tuple(
            point_of[(x, gindex[group.elements[gi].compose(inv)])]
            for x, gi in representatives))

    rels: dict[str, set[tuple[int, ...]]] = {}
    for name, _ in base.signature.symbols:
        current = {tuple(iota[x] for x in t) for t in base.tuples(name)}
        frontier = set(current)
        while frontier:
            nxt = set()
            for t in frontier:
                for p in maps:
                    g = action_table[p.encode()]
                    for image in (tuple(g(i) for i in t),
                                  tuple(g.inverse()(i) for i in t)):
                        if image not in current:
                            current.add(image)
                            nxt.add(image)
            frontier = nxt
        rels[name] = current
    extension = Structure.make(base.signature, size, rels)

    hom = tuple(group.elements[gi].inverse()(psi.embed(x)) for x, gi in representatives)
    phi = ExtensionMap(domain_universe=n, codomain_universe=size,
                       embedding=iota, table=action_table)
    cert = SpecialCertificate(base=base, extension=extension, codomain=codomain,
                              maps=maps, psi=psi, phi=phi, hom=hom)

    check = verify_structural(cert)
    if not check:
        raise VerificationError(f"construction failed verification: {check.message()}")
    return cert


def verify_structural(cert: SpecialCertificate) -> Verdict:
    """Structure-level checks: embedding, the phi and psi tables over P
    (automorphisms, extension, coherence), homomorphism and equivariance."""
    if not is_embedding(cert.phi.embedding, cert.base, cert.extension):
        return Verdict.failed("iota-embedding", "A is not induced along iota")
    for table, structure in ((cert.phi, cert.extension), (cert.psi, cert.codomain)):
        v = verify_coherent_extension(table, cert.maps, structure)
        if not v:
            return v
    if not is_homomorphism(cert.hom, cert.extension, cert.codomain):
        return Verdict.failed("homomorphism", "f is not a homomorphism to the base extension")
    for x in range(cert.base.size):
        if cert.hom[cert.phi.embedding[x]] != cert.psi.embed(x):
            return Verdict.failed("homomorphism",
                                  f"f o iota differs from the base embedding at {x}")
    for p in cert.maps:
        g = cert.phi.lookup(p)
        gp = cert.psi.lookup(p)
        for b in range(cert.extension.size):
            if cert.hom[g(b)] != gp(cert.hom[b]):
                return Verdict.failed(
                    "equivariance",
                    f"f(phi({p.encode()})(b)) != psi({p.encode()})(f(b)) at point {b}")
    return Verdict.passed()


def _letters(cert: SpecialCertificate):
    out = []
    for p in cert.maps:
        out.append((p, cert.phi.lookup(p)))
        out.append((p.inverse(), cert.phi.lookup(p).inverse()))
    return out


def verify_special(cert: SpecialCertificate, max_word_len: int = 6) -> Verdict:
    """Bounded check of the three special-extension conditions plus the
    structural checks; (ii) and (iii) are decided up to the word bound."""
    if max_word_len < 0:
        raise EppaError(f"word bound must be >= 0, got {max_word_len}")
    structural = verify_structural(cert)
    if not structural:
        return structural
    size = cert.extension.size
    letters = _letters(cert)
    iota = cert.phi.embedding

    reachable = set(iota)
    frontier = list(reachable)
    while frontier:
        nxt = []
        for b in frontier:
            for _, g in letters:
                image = g(b)
                if image not in reachable:
                    reachable.add(image)
                    nxt.append(image)
        frontier = nxt
    if len(reachable) != size:
        missing = sorted(set(range(size)) - reachable)[0]
        return Verdict.failed("reachability",
                              f"point {missing} is not a word image of the inner copy")

    # group elements realized by words of bounded length, with shortest words
    identity = Permutation.identity(size)
    word_of: dict[Permutation, int] = {identity: 0}
    frontier_elems = [identity]
    for depth in range(1, max_word_len + 1):
        nxt = []
        for g in frontier_elems:
            for _, letter in letters:
                h = letter.compose(g)
                if h not in word_of:
                    word_of[h] = depth
                    nxt.append(h)
        frontier_elems = nxt
        if not frontier_elems:
            break

    for name, _ in cert.base.signature.symbols:
        base_tuples = [tuple(iota[x] for x in t) for t in cert.base.tuples(name)]
        wanted = set(cert.extension.tuples(name))
        covered = set()
        for g in word_of:
            for t in base_tuples:
                covered.add(tuple(g(i) for i in t))
        stray = wanted - covered
        if stray:
            return Verdict.failed(
                "tuple-realization",
                f"{name} tuple {sorted(stray)[0]} is not a word image of an "
                f"embedded tuple within word length {max_word_len}")
        extra = covered - wanted
        if extra:
            return Verdict.failed(
                "tuple-realization",
                f"word image {sorted(extra)[0]} of an embedded {name} tuple "
                "is not satisfied in the extension")

    # condition (iii): transitions between embedded points must be realized by
    # words defined on the source point, with the same group image
    realizes: dict[tuple[Permutation, int, int], bool] = {}
    for x1 in range(cert.base.size):
        layer = {(identity, x1)}
        seen2 = set(layer)
        for depth in range(max_word_len + 1):
            for g, y in layer:
                realizes[(g, x1, y)] = True
            nlayer = set()
            for g, y in layer:
                for p, letter in letters:
                    if y in p.domain():
                        st = (letter.compose(g), p(y))
                        if st not in seen2:
                            seen2.add(st)
                            nlayer.add(st)
            layer = nlayer
            if not layer:
                break
    for g in word_of:
        for x1 in range(cert.base.size):
            target = g(iota[x1])
            for x2 in range(cert.base.size):
                if iota[x2] == target:
                    if not realizes.get((g, x1, x2)):
                        return Verdict.failed(
                            "transition-realization",
                            f"no word of length <= {max_word_len} with the same group "
                            f"image sends {x1} to {x2} while defined on {x1}")
    return Verdict.passed()


def quotient_matches_word_relation(cert: SpecialCertificate) -> bool:
    """Oracle: the union-find quotient equals the word-generated equivalence,
    computed independently by closing single moves to a fixed point."""
    group = cert.group
    gindex = {g: i for i, g in enumerate(group.elements)}
    n = cert.base.size
    pair_class: dict[tuple[int, int], int] = {}
    for rep_i, members in enumerate(cert.class_members):
        for x, gi in members:
            pair_class[(x, gi)] = rep_i
    letters = [(p, cert.psi.lookup(p)) for p in cert.maps]
    letters += [(p.inverse(), cert.psi.lookup(p).inverse()) for p in cert.maps]
    for x in range(n):
        for gi in range(len(group.elements)):
            seen = {(x, gi)}
            layer = {(x, gi)}
            while layer:
                nxt = set()
                for y, hi in layer:
                    h = group.elements[hi]
                    for p, gp in letters:
                        if y in p.domain():
                            state = (p(y), gindex[gp.compose(h)])
                            if state not in seen:
                                seen.add(state)
                                nxt.add(state)
                layer = nxt
            if seen != set(cert.class_members[pair_class[(x, gi)]]):
                return False
    return True
