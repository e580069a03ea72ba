"""Special extensions by quotienting a product of the base structure with a
permutation group of a verified extension.

Given a coherent, extending assignment psi of automorphisms of B' to a set P
of partial automorphisms of A, the carrier is (A x G)/~ for the group G
generated by the assigned automorphisms, where a single move identifies
(x, g) with (p(x), psi(p) o g).  Points reachable by words act as witnesses:
every point, every relation tuple and every A-to-A transition of the
quotient is realized by a word over P.  Words act on the finite set of
states (point, group element), so `verify_special` decides each of these
conditions exactly, from the group and the classes of its word moves."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .coherence import (ExtensionMap, PermutationGroup, Verdict, closure,
                        coherent_triples, verify_coherent_extension)
from .errors import EppaError, VerificationError
from .structures import (PartialAutomorphism, Permutation, Structure,
                         is_embedding, is_homomorphism)


def _generated_group(structure: Structure, maps: Sequence[PartialAutomorphism],
                     table: ExtensionMap) -> PermutationGroup:
    """The group generated by the assigned automorphisms table(p), p in `maps`,
    of `structure`: G for psi, and its action on the quotient for phi."""
    return PermutationGroup.from_generators(structure.size, [table.lookup(p) for p in maps])


def _word_classes(base: Structure, maps: Sequence[PartialAutomorphism],
                  table: ExtensionMap, group: PermutationGroup
                  ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Classes of A x `group`, each a sorted tuple of (point, group index)
    pairs: the closures under the single moves (x, g) -> (p(x), table(p) o g),
    one per p in `maps` and one per inverse, of the states in product order,
    so the classes come ordered by least member: (A x G)/~ for psi, and for
    phi the states that words over P reach.  Each p's move on group indices
    is tabled once, and its inverse's move is that table inverted."""
    elements = group.elements
    gindex = {g: i for i, g in enumerate(elements)}
    moves = []
    for p in maps:
        gp = table.lookup(p)
        moved = [gindex[gp.compose(g)] for g in elements]
        back = sorted(range(len(moved)), key=moved.__getitem__)
        moves += [(dict(p.pairs), moved), (dict(p.inverse().pairs), back)]
    classes, seen = [], set()
    for state in itertools.product(range(base.size), range(len(elements))):
        if state not in seen:
            members = closure([state], lambda s: ((pairs[s[0]], moved[s[1]])
                                                  for pairs, moved in moves if s[0] in pairs))
            seen |= members
            classes.append(tuple(sorted(members)))
    return tuple(classes)


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
    if len(set(maps)) != len(maps):
        raise EppaError("P lists a partial automorphism twice")
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

    actions = [g for a in action_table.values() for g in (a, a.inverse())]
    rels = {name: closure((tuple(iota[x] for x in t) for t in base.tuples(name)),
                          lambda t: (tuple(g(i) for i in t) for g in actions))
            for name, _ in base.signature.symbols}
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
    (extension, automorphisms, coherence on P's coherent triples, listed once
    for both), homomorphism and equivariance."""
    if not is_embedding(cert.phi.embedding, cert.base, cert.extension):
        return Verdict.failed("iota-embedding", "A is not induced along iota")
    triples = coherent_triples(cert.maps)
    for table, structure in ((cert.phi, cert.extension), (cert.psi, cert.codomain)):
        v = verify_coherent_extension(table, cert.maps, structure, triples=triples)
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


def verify_special(cert: SpecialCertificate, max_word_len: int = 6) -> Verdict:
    """The structural checks, then the three special-extension conditions,
    each decided exactly from the group G generated by phi(P) and the
    classes of _word_classes over phi and G: a word over P sends the state
    (x, g) to (p(x), phi(p) o g) letter by letter, so the states a word
    reaches from (x1, identity) are the class of that state.

    (i) reachability: every point is a word image of an embedded point, that
    is, lies in the G-orbit of iota's points;
    (ii) tuple-realization: every tuple is the image of an embedded tuple
    under G.  The converse inclusion needs no check: each letter is a
    verified automorphism and iota a verified embedding;
    (iii) transition-realization: whenever g in G sends iota(x1) to iota(x2),
    some word with group image g is defined on x1 and sends it to x2, that
    is, (x2, g) is in the class of (x1, identity).

    `max_word_len` is accepted and ignored; no bound is needed."""
    structural = verify_structural(cert)
    if not structural:
        return structural
    size = cert.extension.size
    group = _generated_group(cert.extension, cert.maps, cert.phi)
    iota = cert.phi.embedding

    reachable = {g(b) for g in group.elements for b in iota}
    if len(reachable) != size:
        missing = sorted(set(range(size)) - reachable)[0]
        return Verdict.failed("reachability",
                              f"point {missing} is not a word image of the inner copy")

    for name, _ in cert.base.signature.symbols:
        covered = {tuple(g(iota[x]) for x in t)
                   for g in group.elements for t in cert.base.tuples(name)}
        stray = set(cert.extension.tuples(name)) - covered
        if stray:
            return Verdict.failed(
                "tuple-realization",
                f"{name} tuple {sorted(stray)[0]} is not a word image of an embedded tuple")

    classes = _word_classes(cert.base, cert.maps, cert.phi, group)
    class_of = {state: i for i, members in enumerate(classes) for state in members}
    start = group.elements.index(Permutation.identity(size))
    inner = {b: x for x, b in enumerate(iota)}
    for x1 in range(cert.base.size):
        for gi, g in enumerate(group.elements):
            x2 = inner.get(g(iota[x1]))
            if x2 is not None and class_of[(x2, gi)] != class_of[(x1, start)]:
                return Verdict.failed(
                    "transition-realization",
                    f"no word with the same group image sends {x1} to {x2} "
                    f"while defined on {x1}")
    return Verdict.passed()
